package dse

import (
	"testing"

	"mpsockit/internal/obs"
)

// BenchmarkSweepPoint measures one task-level design-point evaluation
// end to end (platform build, mapping search, mapped execution) — the
// unit of work the sweep engine repeats hundreds of times per run.
func BenchmarkSweepPoint(b *testing.B) {
	p := Point{
		ID:   0,
		Seed: 12345,
		Plat: PlatSpec{Kind: "wireless", Fabric: "mesh", DVFS: 1},

		Workload:     "synth",
		N:            16,
		WorkloadSeed: 99,
		Heuristic:    "anneal",
		Fidelity:     "mvp",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Evaluate(p)
		if r.Err != "" {
			b.Fatal(r.Err)
		}
	}
}

// BenchmarkVPPointEval is the full vp-fidelity design-point
// evaluation — mapping search, task-level execution, closed-form vp
// refinement — on an 8-core platform, fresh context per point versus
// one reused context.
func BenchmarkVPPointEval(b *testing.B) {
	p := Point{
		ID:   0,
		Seed: 12345,
		Plat: PlatSpec{Kind: "homog", Cores: 8, Fabric: "mesh", DVFS: 1},

		Workload:     "synth",
		N:            16,
		WorkloadSeed: 99,
		Heuristic:    "list",
		Fidelity:     "vp",
		Quantum:      64,
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := NewEvalContext().Evaluate(p)
			if r.Err != "" {
				b.Fatal(r.Err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		c := NewEvalContext()
		c.Evaluate(p) // warm the caches
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := c.Evaluate(p)
			if r.Err != "" {
				b.Fatal(r.Err)
			}
		}
	})
}

// BenchmarkSweepPointObs is the same point evaluated on a reused
// EvalContext with live metrics attached — the farm worker's
// steady-state configuration. TestInstrumentationAllocFree holds that
// this path allocates exactly what the unobserved one does.
func BenchmarkSweepPointObs(b *testing.B) {
	p := Point{
		ID:   0,
		Seed: 12345,
		Plat: PlatSpec{Kind: "wireless", Fabric: "mesh", DVFS: 1},

		Workload:     "synth",
		N:            16,
		WorkloadSeed: 99,
		Heuristic:    "anneal",
		Fidelity:     "mvp",
	}
	c := NewEvalContext()
	c.SetObs(NewEvalObs(obs.NewRegistry()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c.Evaluate(p)
		if r.Err != "" {
			b.Fatal(r.Err)
		}
	}
}
