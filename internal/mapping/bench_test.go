package mapping

import (
	"testing"

	"mpsockit/internal/mem"
	"mpsockit/internal/obs"
	"mpsockit/internal/taskgraph"
	"mpsockit/internal/workload"
)

// liveSearchObs returns a SearchObs with every counter attached, so
// the *Obs benchmark variants measure the instrumented fast path (nil
// check + atomic add) rather than the inert one.
func liveSearchObs(r *obs.Registry) SearchObs {
	return SearchObs{
		Schedules:     r.Counter("map_schedules_total", "List-schedule passes, full or anneal-move suffix."),
		CostEvals:     r.Counter("map_cost_evals_total", "Objective-cost evaluations."),
		AnnealMoves:   r.Counter("map_anneal_moves_total", "Proposed annealing moves."),
		AnnealAccepts: r.Counter("map_anneal_accepts_total", "Accepted annealing moves."),
		AnnealRejects: r.Counter("map_anneal_rejects_total", "Rejected annealing moves."),
	}
}

// Benchmarks of the candidate-evaluation hot path. These are the
// numbers docs/performance.md tracks PR-to-PR: evaluate and
// objectiveCost must stay at 0 allocs/op (CI guards this), and
// BenchmarkAnneal is the headline mapping-search figure.

func BenchmarkEvaluate(b *testing.B) {
	g := workload.SyntheticTaskGraph(16, 42)
	plat := wirelessPlat()
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		b.Fatal(err)
	}
	ev := NewEvaluator(g, plat)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ev.schedule(a.TaskPE, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnnealCost(b *testing.B) {
	g := workload.SyntheticTaskGraph(16, 42)
	plat := wirelessPlat()
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		b.Fatal(err)
	}
	ev := NewEvaluator(g, plat)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.objectiveCost(Makespan, a.TaskPE)
	}
}

// BenchmarkEvaluateObs is BenchmarkEvaluate with live metrics
// attached; the CI guard requires it to stay at 0 allocs/op, proving
// instrumentation-on costs no allocations on the hot path.
func BenchmarkEvaluateObs(b *testing.B) {
	g := workload.SyntheticTaskGraph(16, 42)
	plat := wirelessPlat()
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		b.Fatal(err)
	}
	ev := NewEvaluator(g, plat)
	ev.Obs = liveSearchObs(obs.NewRegistry())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ev.schedule(a.TaskPE, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnnealCostObs is BenchmarkAnnealCost with live metrics
// attached; CI requires 0 allocs/op here too.
func BenchmarkAnnealCostObs(b *testing.B) {
	g := workload.SyntheticTaskGraph(16, 42)
	plat := wirelessPlat()
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		b.Fatal(err)
	}
	ev := NewEvaluator(g, plat)
	ev.Obs = liveSearchObs(obs.NewRegistry())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.objectiveCost(Makespan, a.TaskPE)
	}
}

// BenchmarkEvaluateMem is BenchmarkEvaluate with a bank/channel
// memory contention model attached to the platform: the scheduler
// charges the model's estimate per cross-PE edge. The CI guard
// requires 0 allocs/op — the memory axis must not buy its fidelity
// with allocations on the scoring path.
func BenchmarkEvaluateMem(b *testing.B) {
	g := workload.SyntheticTaskGraph(16, 42)
	plat := wirelessPlat()
	access, bpns := plat.MemTiming()
	plat.Mem = mem.NewBankModel(4, 2, access, bpns)
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		b.Fatal(err)
	}
	ev := NewEvaluator(g, plat)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ev.schedule(a.TaskPE, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnneal is one whole anneal through Map. A first Map builds
// the graph's cached view outside the timer, so even -benchtime 1x
// reports the steady state that CI holds to 17 allocs/op.
func BenchmarkAnneal(b *testing.B) {
	g := workload.SyntheticTaskGraph(16, 42)
	plat := wirelessPlat()
	if _, err := Map(g, plat, Options{Heuristic: Anneal, Seed: 7}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Map(g, plat, Options{Heuristic: Anneal, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnnealMove is one makespan-objective anneal move: the
// suffix re-schedule after a mid-order task of synth16 changes core on
// the wireless terminal with bank:4x2 memory. Each op toggles the task
// between two capable cores and keeps the result, as an accept does.
// The CI guard requires 0 allocs/op.
func BenchmarkAnnealMove(b *testing.B) {
	g := workload.SyntheticTaskGraph(16, 42)
	plat := memPlat()
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		b.Fatal(err)
	}
	ev := NewEvaluator(g, plat)
	order, err := g.View().TopoOrder()
	if err != nil {
		b.Fatal(err)
	}
	task := order[len(order)/2]
	cur := append([]int(nil), a.TaskPE...)
	pes := [2]int{cur[task], cur[task]}
	for _, pe := range ev.Capable(task) {
		if pe != cur[task] {
			pes[1] = pe
			break
		}
	}
	if pes[0] == pes[1] {
		b.Fatalf("task %d has one capable core", task)
	}
	if _, _, err := ev.schedule(cur, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur[task] = pes[(i+1)&1]
		if _, _, err := ev.rescheduleMoved(cur, order, task); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExhaustive(b *testing.B) {
	g := workload.CarRadioTaskGraph()
	plat := wirelessPlat()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Map(g, plat, Options{Heuristic: Exhaustive}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecute(b *testing.B) {
	g := workload.JPEGTaskGraph()
	plat := wirelessPlat()
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutePipelined is the pipe8 fidelity's execution: JPEG on
// the wireless terminal over 8 iterations.
func BenchmarkExecutePipelined(b *testing.B) {
	g := workload.JPEGTaskGraph()
	plat := wirelessPlat()
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecutePipelined(a, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteMulti executes a jpeg+carradio union graph with
// per-application makespans.
func BenchmarkExecuteMulti(b *testing.B) {
	g, spans := taskgraph.Union("jpeg+carradio", workload.JPEGTaskGraph(), workload.CarRadioTaskGraph())
	plat := wirelessPlat()
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ExecuteMulti(a, spans); err != nil {
			b.Fatal(err)
		}
	}
}
