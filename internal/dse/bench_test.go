package dse

import (
	"bytes"
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

// BenchmarkRTOSPoint is one rtos design point — a 32-job bag on the
// hybrid time-/space-shared scheduler of section II-B — evaluated on a
// reused EvalContext, as a sweep worker does.
func BenchmarkRTOSPoint(b *testing.B) {
	p := Point{
		ID:   0,
		Seed: 12345,
		Plat: PlatSpec{Kind: "homog", Cores: 4, Fabric: "mesh", DVFS: 1},

		Workload:     "jobs",
		N:            32,
		WorkloadSeed: 99,
		Heuristic:    "-",
		Fidelity:     "rtos",
	}
	c := NewEvalContext()
	c.Evaluate(p) // warm the context
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c.Evaluate(p)
		if r.Err != "" {
			b.Fatal(r.Err)
		}
	}
}

// benchTasklevelSpec is the sweepbench tasklevel workload's sweep:
// 2268 task-level points in six workload groups.
const benchTasklevelSpec = "plat=homog4,homog8,homog16,wireless,celllike4,2xrisc+4xdsp+1xvliw;" +
	"fab=mesh,bus;dvfs=0,1,2;mem=ideal,bank:4x2,bw:8;" +
	"wl=jpeg,h264,carradio,synth32,multi:jpeg+carradio+synth8,jobs64;heur=list,anneal;fid=mvp,pipe8"

// benchSweepLines evaluates the tasklevel sweep once and returns its
// points, results and JSONL lines, indexed by point ID.
func benchSweepLines(b *testing.B) ([]Point, []Result, [][]byte) {
	b.Helper()
	sw, err := ParseSweep(benchTasklevelSpec, 1)
	if err != nil {
		b.Fatal(err)
	}
	points, err := sw.Points()
	if err != nil {
		b.Fatal(err)
	}
	results := (&Engine{Workers: 2}).Run(points)
	lines := make([][]byte, len(results))
	for i, r := range results {
		var buf bytes.Buffer
		if err := WriteResult(&buf, r); err != nil {
			b.Fatal(err)
		}
		lines[i] = buf.Bytes()
	}
	return points, results, lines
}

// BenchmarkLiveFront is one live front snapshot of a complete
// tasklevel-sized accumulator, as the coordinator takes it for a
// progress line or GET /front: the grouped front's point IDs and every
// group's hypervolume, read off the per-group archives.
func BenchmarkLiveFront(b *testing.B) {
	points, results, lines := benchSweepLines(b)
	acc := NewAccumulator(points)
	for i, r := range results {
		if _, err := acc.AddResult(r, lines[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if front, hvs := acc.Front(); len(front) == 0 || len(hvs) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkAccumulatorAdd is one JSONL result line accepted by Add —
// parse, validation against the expansion, the raw-line copy and the
// archive insert — as the coordinator accepts a worker's submission.
// Each pass over the tasklevel sweep starts from a fresh accumulator
// (built outside the timer), so fronts grow as in a live sweep.
func BenchmarkAccumulatorAdd(b *testing.B) {
	points, _, lines := benchSweepLines(b)
	var acc *Accumulator
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % len(lines)
		if id == 0 {
			b.StopTimer()
			acc = NewAccumulator(points)
			b.StartTimer()
		}
		if _, err := acc.Add(lines[id]); err != nil {
			b.Fatal(err)
		}
	}
}
