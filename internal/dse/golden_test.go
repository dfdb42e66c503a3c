package dse

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"mpsockit/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden sweep regression files")

// TestDefaultSweepGolden pins the default sweep's observable output —
// the JSONL provenance header (whose spec_hash fingerprints every
// expanded point and derived seed), the per-workload Pareto fronts,
// and their hypervolumes — against a committed golden file. Silent
// determinism drift anywhere in the stack (expansion, seeding,
// mapping search, execution, metrics, front extraction, hypervolume)
// shows up here as a diff instead of surviving until a cross-host
// merge fails. Regenerate deliberately with:
//
//	go test ./internal/dse/ -run TestDefaultSweepGolden -update-golden
func TestDefaultSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates the full 612-point default sweep; skipped under -short")
	}
	sw, err := ParseSweep("default", 1)
	if err != nil {
		t.Fatal(err)
	}
	points, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteHeader(&buf, NewHeader("default", 1, points, nil)); err != nil {
		t.Fatal(err)
	}
	// The golden run carries full telemetry — a live metrics registry
	// and a span tracer — so matching the golden file (recorded before
	// instrumentation existed) proves observation never changes an
	// output byte on the real 612-point sweep.
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(io.Discard)
	results := (&Engine{Obs: NewEvalObs(reg), Tracer: tracer}).Run(points)
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("point %d failed: %s", r.Point.ID, r.Err)
		}
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := tracer.Spans(), int64(len(points)); got < want {
		t.Fatalf("tracer recorded %d spans, want at least one per evaluated point (%d)", got, want)
	}
	front := GroupedFront(results)
	buf.WriteString(FrontTable(results, front))
	buf.WriteString(HVTable(Hypervolumes(results), false))

	path := filepath.Join("testdata", "default_sweep.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("default sweep drifted from %s.\nThe header, fronts or hypervolumes changed — if intentional, regenerate with -update-golden and call the change out in the PR.\n--- got ---\n%s\n--- want ---\n%s",
			path, truncate(buf.Bytes()), truncate(want))
	}
}

// truncate keeps failure output readable; the full files diff better
// offline.
func truncate(b []byte) []byte {
	const max = 4096
	if len(b) <= max {
		return b
	}
	return append(append([]byte(nil), b[:max]...), []byte("\n... (truncated)")...)
}

// rtosGoldenSpec is a 32-point mini-sweep of rtos job bags across
// core mixes, fabrics, DVFS levels and bag sizes.
const rtosGoldenSpec = "plat=homog4,celllike4,wireless,2xrisc+4xdsp;fab=mesh,bus;dvfs=0,2;wl=jobs8,jobs64"

// TestRTOSSweepGolden pins the full JSONL of rtosGoldenSpec at seed 3
// — header and every result line, sim_events included — byte for
// byte, so any change to the scheduler's event order or timing shows
// up as a diff. The file is what `dse -sweep <rtosGoldenSpec> -seed 3`
// writes. Regenerate deliberately with:
//
//	go test ./internal/dse/ -run TestRTOSSweepGolden -update-golden
func TestRTOSSweepGolden(t *testing.T) {
	sw, err := ParseSweep(rtosGoldenSpec, 3)
	if err != nil {
		t.Fatal(err)
	}
	points, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteHeader(&buf, NewHeader(rtosGoldenSpec, 3, points, nil)); err != nil {
		t.Fatal(err)
	}
	for _, r := range (&Engine{Workers: 2}).Run(points) {
		if r.Err != "" {
			t.Fatalf("point %d failed: %s", r.Point.ID, r.Err)
		}
		if err := WriteResult(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "rtos_sweep.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("rtos sweep drifted from %s.\n--- got ---\n%s\n--- want ---\n%s",
			path, truncate(buf.Bytes()), truncate(want))
	}
}
