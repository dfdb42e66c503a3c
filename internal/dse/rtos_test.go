package dse

import (
	"encoding/json"
	"testing"
)

// TestEvaluateRunsNoProcess: no point kind starts a simulation process.
// One context evaluates mvp, pipe, vp, multi-app and rtos points in
// turn; after each, its kernel has no live process and is the same
// kernel (Reset, not replaced), and the result is byte-identical to a
// fresh context's.
func TestEvaluateRunsNoProcess(t *testing.T) {
	wireless := PlatSpec{Kind: "wireless", Fabric: "mesh", DVFS: 1}
	homog := PlatSpec{Kind: "homog", Cores: 4, Fabric: "mesh", DVFS: 1}
	points := []Point{
		{Plat: wireless, Workload: "synth", N: 12, WorkloadSeed: 5, Heuristic: "list", Fidelity: "mvp"},
		{Plat: wireless, Workload: "h264", Heuristic: "anneal", Fidelity: "pipe", Iterations: 4, Seed: 7},
		{Plat: homog, Workload: "synth", N: 12, WorkloadSeed: 5, Heuristic: "list", Fidelity: "vp", Quantum: 64},
		{Plat: homog, Workload: "multi:synth8+synth8", WorkloadSeed: 55, Heuristic: "list", Fidelity: "mvp",
			Apps: []AppRef{{Kind: "synth", N: 8, Seed: 100}, {Kind: "synth", N: 8, Seed: 200}}},
		{Plat: homog, Workload: "jobs", N: 8, WorkloadSeed: 1000, Heuristic: "-", Fidelity: "rtos"},
		{Plat: homog, Workload: "jobs", N: 32, WorkloadSeed: 1001, Heuristic: "-", Fidelity: "rtos"},
	}
	c := NewEvalContext()
	k := c.k
	for round := 0; round < 2; round++ {
		for i, p := range points {
			p.ID = i
			r := c.Evaluate(p)
			if r.Err != "" {
				t.Fatalf("%s/%s point: %s", p.Workload, p.Fidelity, r.Err)
			}
			if n := c.k.LiveProcs(); n != 0 {
				t.Fatalf("%s/%s point left %d live processes", p.Workload, p.Fidelity, n)
			}
			if k == nil {
				k = c.k
			} else if c.k != k {
				t.Fatalf("%s/%s point: the context replaced its kernel", p.Workload, p.Fidelity)
			}
			got, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(NewEvalContext().Evaluate(p))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("%s/%s point: reused context\n%s\nfresh context\n%s", p.Workload, p.Fidelity, got, want)
			}
		}
	}
}
