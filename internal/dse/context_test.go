package dse

import (
	"encoding/json"
	"testing"
)

// contextPoints covers every evaluation path through an EvalContext:
// task-level one-shot, pipelined, instruction-level vp refinement
// (its scratch reused), and the RTOS jobs path (whose dispatcher
// processes are unwound so the next point resets the kernel).
func contextPoints() []Point {
	mk := func(id int, plat PlatSpec, wl string, n int, heur, fid string, iters, quantum int) Point {
		return Point{
			ID: id, Seed: seedFor(11, "point", id),
			Plat: plat, Workload: wl, N: n,
			WorkloadSeed: seedFor(11, "wl/"+wl, n),
			Heuristic:    heur, Fidelity: fid,
			Iterations: iters, Quantum: quantum,
		}
	}
	wireless := PlatSpec{Kind: "wireless", Fabric: "mesh", DVFS: 1}
	homog := PlatSpec{Kind: "homog", Cores: 4, Fabric: "bus", DVFS: 0}
	cell := PlatSpec{Kind: "celllike", Cores: 4, Fabric: "mesh", DVFS: 2}
	return []Point{
		mk(0, wireless, "jpeg", 0, "list", "mvp", 0, 0),
		mk(1, wireless, "jpeg", 0, "anneal", "mvp", 0, 0),
		mk(2, homog, "synth", 12, "anneal", "vp", 0, 64),
		mk(3, cell, "carradio", 0, "exhaustive", "pipe", 6, 0),
		mk(4, homog, "jobs", 16, "-", "rtos", 0, 0),
		mk(5, wireless, "h264", 0, "anneal", "vp", 0, 16),
		mk(6, homog, "synth", 12, "list", "mvp", 0, 0), // same graph key as 2
	}
}

// TestEvalContextReuseIdentity: evaluating a stream of points on one
// reused context — reset kernels, cached graph prototypes, rebound
// mapping scratch — yields byte-identical results to a fresh context
// per point, in any order. This is the no-state-leak contract kernel
// and scratch reuse must uphold (run under -race in CI).
func TestEvalContextReuseIdentity(t *testing.T) {
	points := contextPoints()
	want := make([]string, len(points))
	for i, p := range points {
		r := NewEvalContext().Evaluate(p)
		if r.Err != "" {
			t.Fatalf("point %d failed: %s", p.ID, r.Err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = string(b)
	}
	orders := [][]int{
		{0, 1, 2, 3, 4, 5, 6},
		{6, 5, 4, 3, 2, 1, 0},
		{4, 0, 4, 2, 6, 2, 1, 3, 5, 0}, // repeats: same point twice on one context
	}
	for oi, order := range orders {
		ctx := NewEvalContext()
		for _, idx := range order {
			r := ctx.Evaluate(points[idx])
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != want[idx] {
				t.Fatalf("order %d: reused context diverged on point %d:\nfresh  %s\nreused %s",
					oi, points[idx].ID, want[idx], b)
			}
		}
	}
}

// TestEvalContextGraphCache: points sharing (workload, N, seed) map
// the same prototype graph, points differing in any key do not.
func TestEvalContextGraphCache(t *testing.T) {
	ctx := NewEvalContext()
	p1 := Point{Plat: PlatSpec{Kind: "homog", Cores: 2, Fabric: "mesh"}, Workload: "synth", N: 8, WorkloadSeed: 5}
	p2 := p1
	p3 := p1
	p3.WorkloadSeed = 6
	g1, err := ctx.graph(p1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ctx.graph(p2)
	if err != nil {
		t.Fatal(err)
	}
	g3, err := ctx.graph(p3)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("identical workload keys built two prototypes")
	}
	if g1 == g3 {
		t.Fatal("different workload seeds shared a prototype")
	}
}
