package dse

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"
)

// TestRTOSPointsLeakNoGoroutines: evaluating rtos points on one
// context leaves no scheduler goroutine behind, so the context's
// kernel is reused rather than replaced, and the results stay
// byte-identical to fresh-context evaluations.
func TestRTOSPointsLeakNoGoroutines(t *testing.T) {
	p := Point{
		Plat:     PlatSpec{Kind: "homog", Cores: 4, Fabric: "mesh", DVFS: 1},
		Workload: "jobs", N: 8, Heuristic: "-", Fidelity: "rtos",
	}
	c := NewEvalContext()
	c.Evaluate(p) // warm up
	before := runtime.NumGoroutine()
	k := c.k
	for i := 0; i < 50; i++ {
		p.ID, p.WorkloadSeed = i, uint64(1000+i)
		got, err := json.Marshal(c.Evaluate(p))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(NewEvalContext().Evaluate(p))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("point %d: reused context\n%s\nfresh context\n%s", i, got, want)
		}
	}
	if c.k != k {
		t.Fatal("the context replaced its kernel: an rtos point left live processes behind")
	}
	// Fresh contexts' kernels are garbage once their dispatchers have
	// unwound; give any goroutine still returning a moment to exit.
	after := runtime.NumGoroutine()
	for i := 0; i < 100 && after > before; i++ {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("50 rtos points leaked %d goroutines", after-before)
	}
}
