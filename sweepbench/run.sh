#!/usr/bin/env bash
# Builds the sweep benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash sweepbench/run.sh --workload default --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span files stay under
# .bench_build/ in the repository root (or $CARGO_TARGET_DIR when set).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd sweepbench && go build -o "$out/sweepbench" .)
exec "$out/sweepbench" "$@"
