package dse

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"mpsockit/internal/isa"
	"mpsockit/internal/mapping"
	"mpsockit/internal/sim"
	"mpsockit/internal/vp"
)

// assembleLoop assembles the vp calibration loop that busy-spins for
// iters iterations.
func assembleLoop(iters int64) (*isa.Program, error) {
	return isa.Assemble(fmt.Sprintf(`
	li r10, %d
loop:
	addi r8, r8, 1
	mul  r9, r8, r8
	bne  r8, r10, loop
	halt
`, iters))
}

// vpRefineISS is the vp refinement run on the instruction-set
// simulator — the oracle the closed-form vpRefine must equal byte for
// byte. Each busy PE (the 16 busiest) becomes a core of a fresh
// vp.DefaultConfig platform spinning assembleLoop for its calibrated
// iteration count; vp.RunUntilHalted measures the run.
func vpRefineISS(p Point, stats mapping.ExecStats) (sim.Time, uint64, uint64, error) {
	type peBusy struct {
		pe   int
		busy sim.Time
	}
	var busiest []peBusy
	for pe, b := range stats.PEBusy {
		if b > 0 {
			busiest = append(busiest, peBusy{pe, b})
		}
	}
	if len(busiest) == 0 {
		return stats.Makespan, 0, 0, nil
	}
	sort.Slice(busiest, func(i, j int) bool {
		if busiest[i].busy != busiest[j].busy {
			return busiest[i].busy > busiest[j].busy
		}
		return busiest[i].pe < busiest[j].pe
	})
	if len(busiest) > 16 {
		busiest = busiest[:16]
	}
	maxBusy := busiest[0].busy
	cfg := vp.DefaultConfig(len(busiest))
	cfg.Quantum = max(p.Quantum, 1)
	v := vp.New(sim.NewKernel(), cfg)
	cyclePS := int64(v.CyclePeriod())
	for i, e := range busiest {
		iters := max(int64(e.busy)/cyclePS/6, 1)
		prog, err := assembleLoop(iters)
		if err != nil {
			return 0, 0, 0, err
		}
		v.LoadProgram(i, prog)
	}
	v.Start()
	halted := v.RunUntilHalted(stats.Makespan + maxBusy + sim.Millisecond)
	now, events, retired := v.K.Now(), v.K.Executed, v.Retired()
	// Let every core finish so no process goroutine outlives the run.
	v.K.Run()
	if !halted {
		return 0, 0, 0, fmt.Errorf("dse: vp refinement did not halt (point %d)", p.ID)
	}
	return stats.Makespan - maxBusy + now, events, retired, nil
}

// checkAgainstISS compares the closed form with the ISS oracle on one
// input: same makespan, kernel events, retired instructions and error.
func checkAgainstISS(t *testing.T, c *EvalContext, p Point, stats mapping.ExecStats) {
	t.Helper()
	if err := compareISS(c, p, stats); err != nil {
		t.Fatal(err)
	}
}

func compareISS(c *EvalContext, p Point, stats mapping.ExecStats) error {
	type out struct {
		mk     sim.Time
		ev, in uint64
		err    string
	}
	run := func(f func(Point, mapping.ExecStats) (sim.Time, uint64, uint64, error)) out {
		mk, ev, in, err := f(p, stats)
		o := out{mk: mk, ev: ev, in: in}
		if err != nil {
			o.err = err.Error()
		}
		return o
	}
	// The closed form sorts its scratch copy; the oracle must see the
	// caller's PE order untouched.
	pe := append([]sim.Time(nil), stats.PEBusy...)
	got := run(c.vpRefine)
	if !slices.Equal(pe, stats.PEBusy) {
		return fmt.Errorf("vpRefine mutated PEBusy: %v -> %v", pe, stats.PEBusy)
	}
	want := run(vpRefineISS)
	if got != want {
		return fmt.Errorf("quantum %d, makespan %d, busy %v:\nclosed form %+v\nISS         %+v",
			p.Quantum, stats.Makespan, stats.PEBusy, got, want)
	}
	return nil
}

// vpCase is a random vp refinement input: up to 16 PEs (some idle),
// busy times up to 500 µs at three scales so the iteration clamp, short
// loops and long loops all occur, and one of the quanta the sweeps use
// plus the edge values.
type vpCase struct {
	Busy     []sim.Time
	Quantum  int
	Makespan sim.Time
}

func (vpCase) Generate(r *rand.Rand, _ int) reflect.Value {
	quanta := []int{0, 1, 2, 3, 8, 64, 1000}
	scales := []sim.Time{200 * sim.Nanosecond, 20 * sim.Microsecond, 500 * sim.Microsecond}
	c := vpCase{Quantum: quanta[r.Intn(len(quanta))], Busy: make([]sim.Time, r.Intn(17))}
	scale := scales[r.Intn(len(scales))]
	var maxBusy sim.Time
	for i := range c.Busy {
		if r.Intn(4) > 0 {
			c.Busy[i] = 1 + sim.Time(r.Int63n(int64(scale)))
		}
		maxBusy = max(maxBusy, c.Busy[i])
	}
	c.Makespan = maxBusy + sim.Time(r.Int63n(int64(100*sim.Microsecond)))
	return reflect.ValueOf(c)
}

// TestVPRefineClosedFormMatchesISS: over random busy vectors × quanta
// the closed form returns exactly what the ISS run measures.
func TestVPRefineClosedFormMatchesISS(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 30
	}
	c := NewEvalContext()
	prop := func(vc vpCase) bool {
		p := Point{ID: 7, Fidelity: "vp", Quantum: vc.Quantum}
		if err := compareISS(c, p, mapping.ExecStats{Makespan: vc.Makespan, PEBusy: vc.Busy}); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestVPRefineEdgeCases pins the closed form to the ISS where its
// arithmetic changes regime.
func TestVPRefineEdgeCases(t *testing.T) {
	c := NewEvalContext()
	iter := sim.Time(vpIterCycles) * vpCycle
	one := func(q int, busy ...sim.Time) (Point, mapping.ExecStats) {
		var mk sim.Time
		for _, b := range busy {
			mk = max(mk, b)
		}
		return Point{ID: 3, Fidelity: "vp", Quantum: q}, mapping.ExecStats{Makespan: mk + sim.Microsecond, PEBusy: busy}
	}
	cases := map[string]func() (Point, mapping.ExecStats){
		"clamp-1ps":        func() (Point, mapping.ExecStats) { return one(1, 1) },
		"clamp-below-iter": func() (Point, mapping.ExecStats) { return one(64, iter-1) },
		"one-iter":         func() (Point, mapping.ExecStats) { return one(2, iter) },
		"li-short-max":     func() (Point, mapping.ExecStats) { return one(64, (vpLongLI-1)*iter) },
		"li-long-min":      func() (Point, mapping.ExecStats) { return one(64, vpLongLI*iter) },
		"li-both":          func() (Point, mapping.ExecStats) { return one(3, vpLongLI*iter+1, (vpLongLI-1)*iter) },
		"no-busy-pe":       func() (Point, mapping.ExecStats) { return one(64, 0, 0, 0) },
		"no-pe":            func() (Point, mapping.ExecStats) { return one(64) },
		"more-than-16": func() (Point, mapping.ExecStats) {
			busy := make([]sim.Time, 21)
			for i := range busy {
				// Ties across the 16-core cut, and an idle PE.
				busy[i] = sim.Time(i%7) * 3 * sim.Microsecond
			}
			return one(8, busy...)
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			p, stats := mk()
			checkAgainstISS(t, c, p, stats)
		})
	}

	t.Run("halt-on-slice-boundary", func(t *testing.T) {
		// Halts are odd cycle counts unless the run stops right after
		// a loop's addi, so few (iterations, quantum) pairs land on a
		// slice end: at quantum 7 from 334 iterations, at quantum 1
		// only with the two-instruction prologue.
		for _, q := range []int{1, 7} {
			found := 0
			for iters := int64(1); iters < 40_000 && found < 2; iters++ {
				busy := sim.Time(iters) * iter
				_, halt, _ := newVPCore(busy).run(int64(q))
				if halt == 0 || halt%vpSlice != 0 {
					continue
				}
				found++
				p, stats := one(q, busy)
				checkAgainstISS(t, c, p, stats)
				// The neighbours straddle the boundary.
				p, stats = one(q, busy-iter, busy+iter)
				checkAgainstISS(t, c, p, stats)
			}
			if found == 0 {
				t.Fatalf("quantum %d: no loop halts on a slice boundary; the case is vacuous", q)
			}
		}
	})

	t.Run("did-not-halt-bound", func(t *testing.T) {
		busy := 37 * sim.Microsecond
		_, halt, _ := newVPCore(busy).run(8)
		// RunUntilHalted's time bound is Makespan + maxBusy + 1 ms;
		// drive it onto, just above and just below the last slice
		// that still sees the halt.
		for _, bound := range []sim.Time{halt, vpSliceEnd(halt) - vpSlice + 1, vpSliceEnd(halt) - vpSlice, sim.Picosecond} {
			stats := mapping.ExecStats{Makespan: bound - busy - sim.Millisecond, PEBusy: []sim.Time{busy}}
			checkAgainstISS(t, c, Point{ID: 9, Quantum: 8}, stats)
		}
		stats := mapping.ExecStats{Makespan: sim.Picosecond - busy - sim.Millisecond, PEBusy: []sim.Time{busy}}
		if _, _, _, err := c.vpRefine(Point{ID: 9, Quantum: 8}, stats); err == nil {
			t.Fatal("a 1 ps bound did not fail the refinement")
		}
	})

	t.Run("loop-bound-overflow", func(t *testing.T) {
		busy := sim.Time(1<<32) * iter
		stats := mapping.ExecStats{Makespan: busy, PEBusy: []sim.Time{busy}}
		if _, _, _, err := c.vpRefine(Point{Quantum: 64}, stats); err == nil {
			t.Fatal("a loop bound beyond 32 bits did not fail the refinement")
		}
	})
}

// defaultVPPoints returns the vp points of the default sweep, seed 1.
func defaultVPPoints(t *testing.T) []Point {
	t.Helper()
	sw, err := ParseSweep("default", 1)
	if err != nil {
		t.Fatal(err)
	}
	points, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	var vps []Point
	for _, p := range points {
		if p.Fidelity == "vp" {
			vps = append(vps, p)
		}
	}
	if len(vps) == 0 {
		t.Fatal("default sweep has no vp points")
	}
	return vps
}

// taskStats maps and executes the point at task level, the execution
// record vp refinement starts from.
func taskStats(t *testing.T, c *EvalContext, p Point) mapping.ExecStats {
	t.Helper()
	plat, _, err := buildPlatform(reuseKernel(&c.k), p.Plat)
	if err != nil {
		t.Fatal(err)
	}
	g, spans, _, err := c.pointGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	heur, err := mapping.ParseHeuristic(p.Heuristic)
	if err != nil {
		t.Fatal(err)
	}
	c.me.Bind(g, plat)
	a, err := c.me.Map(mapping.Options{Heuristic: heur, Seed: p.Seed})
	if err != nil {
		t.Fatal(err)
	}
	var stats mapping.ExecStats
	if spans != nil {
		stats, _, err = mapping.ExecuteMulti(a, spans)
	} else {
		stats, err = mapping.Execute(a)
	}
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestVPRefineDefaultSweepOracle: every vp point of the default sweep
// (seed 1) evaluates to what the ISS run measures for its mapping.
func TestVPRefineDefaultSweepOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ISS for every vp point of the default sweep; skipped under -short")
	}
	c := NewEvalContext()
	for _, p := range defaultVPPoints(t) {
		r := c.Evaluate(p)
		if r.Err != "" {
			t.Fatalf("point %d: %s", p.ID, r.Err)
		}
		stats := taskStats(t, c, p)
		mk, ev, in, err := vpRefineISS(p, stats)
		if err != nil {
			t.Fatalf("point %d: ISS: %v", p.ID, err)
		}
		if got, want := [3]uint64{uint64(r.Metrics.Makespan), r.Metrics.SimEvents, r.Metrics.VPInstr}, [3]uint64{uint64(mk), ev, in}; got != want {
			t.Fatalf("point %d: evaluated (makespan, events, instr) %v, ISS %v", p.ID, got, want)
		}
	}
}

// vpTierBound is how far a vp makespan may sit from its task-level
// (mvp) twin at quantum q. vp replaces the bottleneck PE's compute b
// by the refinement's measured time, so vp−mvp is that time minus b:
//
//   - loop floor: the loop runs floor(b / one iteration) iterations,
//     at least one, plus a 1–2 cycle prologue and a 4-cycle halt, so
//     each core's loop lasts within one iteration of b plus 6 cycles;
//   - quantum: a core's halt is seen at the start of its last burst of
//     at most q instructions (≤ 4 cycles each), up to 4q cycles early;
//   - slice: the run observes halts at vpSlice ends, up to one slice
//     late (vpSliceEnd).
func vpTierBound(q int) (lo, hi sim.Time) {
	floor := sim.Time(vpIterCycles) * vpCycle
	lo = -(floor + sim.Time(vpHaltCycles*max(q, 1))*vpCycle)
	hi = vpSlice + 2*floor
	return lo, hi
}

// TestVPTierBound: on every vp point of the default sweep the vp
// makespan stays within vpTierBound of its mvp twin.
func TestVPTierBound(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates every vp point of the default sweep and its mvp twin; skipped under -short")
	}
	c := NewEvalContext()
	for _, p := range defaultVPPoints(t) {
		twin := p
		twin.Fidelity = "mvp"
		v, m := c.Evaluate(p), c.Evaluate(twin)
		if v.Err != "" || m.Err != "" {
			t.Fatalf("point %d: vp %q, mvp %q", p.ID, v.Err, m.Err)
		}
		lo, hi := vpTierBound(p.Quantum)
		if d := v.Metrics.Makespan - m.Metrics.Makespan; d < lo || d > hi {
			t.Errorf("point %d: vp %v − mvp %v = %v outside [%v, %v]",
				p.ID, v.Metrics.Makespan, m.Metrics.Makespan, d, lo, hi)
		}
	}
}

// BenchmarkVPRefine measures one closed-form vp refinement of an
// 8-busy-PE mapping on a reused context. CI holds it at 0 allocs/op.
func BenchmarkVPRefine(b *testing.B) {
	c := NewEvalContext()
	p := Point{Fidelity: "vp", Quantum: 64}
	stats := mapping.ExecStats{Makespan: 900 * sim.Microsecond, PEBusy: []sim.Time{
		410 * sim.Microsecond, 0, 377 * sim.Microsecond, 801 * sim.Microsecond,
		12 * sim.Microsecond, 650 * sim.Microsecond, 0, 99 * sim.Microsecond,
		530 * sim.Microsecond, 2 * sim.Microsecond,
	}}
	if _, _, _, err := c.vpRefine(p, stats); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := c.vpRefine(p, stats); err != nil {
			b.Fatal(err)
		}
	}
}
