package dse

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mpsockit/internal/mem"
	"mpsockit/internal/platform"
)

// memSpec crosses the memory axis with both fabrics and both mapping
// heuristics — the shape a real contention study sweeps.
const memSpec = "plat=homog4,wireless;fab=mesh,bus;wl=jpeg,synth12;" +
	"heur=list,anneal;mem=bank:4x2,bw:8"

// TestMemIdealEquivalentToAbsent is the tentpole's compatibility
// contract: a mem=ideal axis expands to exactly the points a sweep
// with no mem= dimension expands to — same IDs, seeds, JSON encodings
// and therefore the same spec hash — across the full default 612-point
// sweep. The default golden file stays byte-identical because of this.
func TestMemIdealEquivalentToAbsent(t *testing.T) {
	absent, err := ParseSweep("default", 42)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := ParseSweep("default", 42)
	if err != nil {
		t.Fatal(err)
	}
	ideal.Mems = []mem.Spec{{Kind: "ideal"}}
	pa, err := absent.Points()
	if err != nil {
		t.Fatal(err)
	}
	pi, err := ideal.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pa) != 612 || len(pi) != 612 {
		t.Fatalf("default sweep expanded to %d / %d points, want 612", len(pa), len(pi))
	}
	if !reflect.DeepEqual(pa, pi) {
		t.Fatal("mem=ideal expansion differs from token-absent expansion")
	}
	if HashPoints(pa) != HashPoints(pi) {
		t.Fatal("mem=ideal spec hash differs from token-absent hash")
	}
	// The same equivalence through the grammar, evaluated: identical
	// points score to identical result bytes.
	base := "plat=homog2,homog4;wl=jpeg,synth8;heur=list,anneal"
	pb := expandSweep(t, base, 9)
	pbi := expandSweep(t, base+";mem=ideal", 9)
	if !reflect.DeepEqual(pb, pbi) {
		t.Fatal("grammar-level mem=ideal expansion differs from token-absent")
	}
	var a, b bytes.Buffer
	for _, r := range (&Engine{Workers: 2}).Run(pb) {
		if err := WriteResult(&a, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range (&Engine{Workers: 5}).Run(pbi) {
		if err := WriteResult(&b, r); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("mem=ideal results differ from token-absent results")
	}
}

// TestMemSweepDeterminism: a contended-memory sweep evaluates to
// identical bytes on any worker count, and a different seed moves the
// results.
func TestMemSweepDeterminism(t *testing.T) {
	a := sweepJSONL(t, memSpec, 31, 1)
	b := sweepJSONL(t, memSpec, 31, 8)
	if !bytes.Equal(a, b) {
		t.Fatal("mem= sweep differs across worker counts")
	}
	c := sweepJSONL(t, memSpec, 32, 4)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical mem= sweeps")
	}
}

// TestMemShardMergeByteIdentity: sharding a mem= sweep in two and
// merging reproduces the unsharded bytes — EstCost, headers,
// spec_hash and merge validation all understand the new token.
func TestMemShardMergeByteIdentity(t *testing.T) {
	const seed = 13
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	runShardFile(t, full, memSpec, seed, nil, 3)
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	points := expandSweep(t, memSpec, seed)
	shards, err := PlanShards(points, 2)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for k := range shards {
		path := ShardPath(filepath.Join(dir, "s.jsonl"), k)
		runShardFile(t, path, memSpec, seed, &shards[k], k+1)
		paths = append(paths, path)
	}
	h, acc := mustMerge(t, paths)
	var buf bytes.Buffer
	if _, err := acc.WriteTo(&buf, h); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("mem= 2-shard merge diverged from unsharded run (%d vs %d bytes)", buf.Len(), len(want))
	}
}

// TestMemPointMetrics: a contended point reports its memory traffic —
// one service per fabric transfer — and a longer makespan than its
// ideal twin, while the twin's mem fields stay zero (and therefore
// omitted from JSON). The per-assignment monotonicity theorem lives
// in the mapping package; this is the sweep-level surface.
func TestMemPointMetrics(t *testing.T) {
	base := Point{
		ID: 0, Seed: 7,
		Plat:         PlatSpec{Kind: "wireless", Fabric: "mesh", DVFS: 1},
		Workload:     "jpeg",
		WorkloadSeed: 11,
		Heuristic:    "list",
		Fidelity:     "mvp",
	}
	ideal := Evaluate(base)
	if ideal.Err != "" {
		t.Fatalf("ideal point failed: %s", ideal.Err)
	}
	if ideal.Metrics.MemTransfers != 0 || ideal.Metrics.MemWaitPS != 0 {
		t.Fatalf("ideal point reported memory traffic: %+v", ideal.Metrics)
	}
	for _, tok := range []string{"bank:4x2", "bw:8"} {
		p := base
		p.Plat.Mem = tok
		r := Evaluate(p)
		if r.Err != "" {
			t.Fatalf("mem=%s point failed: %s", tok, r.Err)
		}
		m := r.Metrics
		if m.NoCTransfers == 0 {
			t.Fatalf("mem=%s point did no transfers", tok)
		}
		if m.MemTransfers != m.NoCTransfers {
			t.Fatalf("mem=%s serviced %d accesses for %d fabric transfers",
				tok, m.MemTransfers, m.NoCTransfers)
		}
		if m.MemWaitPS < 0 {
			t.Fatalf("mem=%s negative queue wait %d", tok, m.MemWaitPS)
		}
		if m.Makespan <= ideal.Metrics.Makespan {
			t.Fatalf("mem=%s makespan %v not above ideal %v despite per-access latency",
				tok, m.Makespan, ideal.Metrics.Makespan)
		}
	}
	// Evaluation is loud about a corrupt token (e.g. a hand-edited
	// checkpoint), not silently ideal.
	p := base
	p.Plat.Mem = "dram"
	if r := Evaluate(p); r.Err == "" {
		t.Fatal("corrupt mem token evaluated without error")
	}
}

// TestMemEstCost: contended points plan slightly more expensive than
// their ideal twins, so shard balancing accounts for the service
// events.
func TestMemEstCost(t *testing.T) {
	p := Point{Plat: PlatSpec{Kind: "homog", Cores: 4, Fabric: "mesh"}, Fidelity: "mvp"}
	ideal := EstCost(p)
	p.Plat.Mem = "bank:4x2"
	if got := EstCost(p); got <= ideal {
		t.Fatalf("mem point EstCost %g not above ideal %g", got, ideal)
	}
}

// TestPEAreaUnknownClass is the regression for the silent-zero area
// bug: a PE class missing from classArea must fail evaluation loudly
// instead of pricing the core at zero silicon.
func TestPEAreaUnknownClass(t *testing.T) {
	for cl := range classArea {
		c := &platform.Core{ID: 0, Class: cl, L1Bytes: 32 << 10}
		a, err := peArea(c)
		if err != nil {
			t.Fatalf("known class %v errored: %v", cl, err)
		}
		if a <= 0 {
			t.Fatalf("known class %v scored area %g", cl, a)
		}
	}
	c := &platform.Core{ID: 3, Class: platform.PEClass(99)}
	if _, err := peArea(c); err == nil {
		t.Fatal("unknown PE class scored silently instead of erroring")
	}
}
