// Package mapping assigns task graphs to MPSoC processing elements
// and schedules them — the back half of the MAPS flow in the paper's
// section IV: "Using optimization algorithms, the task graphs are
// mapped to the target architecture, taking into account real-time
// requirements and preferred PE classes."
//
// Three mappers are provided: HEFT-style list scheduling, simulated
// annealing refinement, and branch-and-bound exhaustive search for
// small instances. Execute runs a mapped graph on the event-driven
// platform model with real fabric contention — the fast high-level
// simulation that plays the role of the MAPS Virtual Platform (MVP)
// in experiments.
//
// # Hot-path design
//
// Candidate evaluation is the inner loop of design-space exploration
// (thousands of scored assignments per anneal, one per leaf of the
// exhaustive search), so it is engineered as a zero-allocation hot
// path: an Evaluator binds one (graph, platform) pair, precomputes
// capable-core sets and per-(task, core) execution times from the
// graph's cached taskgraph.View, and scores assignments into reused
// scratch. The annealer mutates one task per move and reverts on
// reject instead of copying assignments; for the throughput objective
// the move cost is an O(cores) incremental load update. The search
// results are byte-identical to the naive implementations — the
// regression tests in this package hold that equivalence.
package mapping

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mpsockit/internal/mem"
	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
	"mpsockit/internal/taskgraph"
	"mpsockit/internal/xrand"
)

// Heuristic selects the mapping algorithm.
type Heuristic int

// Mapping heuristics.
const (
	List Heuristic = iota
	Anneal
	Exhaustive
)

// String returns the heuristic's flag/spec name.
func (h Heuristic) String() string {
	switch h {
	case List:
		return "list"
	case Anneal:
		return "anneal"
	default:
		return "exhaustive"
	}
}

// ParseHeuristic converts a heuristic name ("list", "anneal",
// "exhaustive") to a Heuristic.
func ParseHeuristic(s string) (Heuristic, error) {
	switch s {
	case "list":
		return List, nil
	case "anneal":
		return Anneal, nil
	case "exhaustive":
		return Exhaustive, nil
	}
	return 0, fmt.Errorf("mapping: unknown heuristic %q", s)
}

// Objective selects what Map optimizes: one-shot makespan (latency)
// or pipeline throughput (bottleneck stage time) — MAPS uses the
// latter for streaming multimedia codecs.
type Objective int

// Mapping objectives.
const (
	Makespan Objective = iota
	Throughput
)

// Options configures Map.
type Options struct {
	Heuristic  Heuristic
	Objective  Objective
	Seed       uint64
	Iterations int // annealing steps (default 2000)
}

// Slot is one scheduled task occurrence.
type Slot struct {
	Task, PE      int
	Start, Finish sim.Time
}

// Assignment is a mapping plus its static schedule.
type Assignment struct {
	Graph    *taskgraph.Graph
	Platform *platform.Platform
	TaskPE   []int
	Schedule []Slot
	Makespan sim.Time
}

// Evaluator is a reusable candidate-scoring context for one (graph,
// platform) pair. It precomputes what every cost evaluation needs —
// the graph's cached adjacency view, per-task capable-core sets, and
// per-(task, core) execution times at the cores' current DVFS levels
// — and keeps scratch arrays alive across evaluations, so scoring an
// assignment allocates nothing. Rebind (or construct) after changing
// the graph, the platform, or a core's DVFS level; an Evaluator is
// not safe for concurrent use.
type Evaluator struct {
	g    *taskgraph.Graph
	plat *platform.Platform
	view *taskgraph.View
	// mem is the platform's memory contention model (nil for ideal),
	// cached at bind time so the scoring loop skips the field chase.
	mem mem.Model

	capab  [][]int // per task: capable core IDs (preferred-PE filtered)
	capBuf []int   // backing array for capab

	// durs[id*nPE+pe] is the task's execution time on core pe at its
	// bound DVFS level, or -1 when the task cannot run there.
	durs []sim.Time
	// infCost[pe] is Cycles(1<<50) — the legacy "impossible" charge the
	// throughput objective adds for an infeasible placement, kept
	// bit-identical to the pre-Evaluator implementation.
	infCost []sim.Time

	peAvail []sim.Time
	finish  []sim.Time
	load    []sim.Time
	// undo[i] is the finish that the last scheduleFrom pass overwrote
	// at topological position i; it shares finish's backing array.
	undo []sim.Time

	// Obs is the optional search-instrumentation handle. The zero
	// value is inert; attaching counters never changes which
	// assignment a heuristic returns.
	Obs SearchObs
}

// NewEvaluator returns an evaluator bound to (g, plat). The graph's
// edges must reference tasks in range (anything built through
// AddTask/Connect is); use Map, which validates first, for untrusted
// graphs.
func NewEvaluator(g *taskgraph.Graph, plat *platform.Platform) *Evaluator {
	e := &Evaluator{}
	e.Bind(g, plat)
	return e
}

// Bind repoints the evaluator at (g, plat), reusing its scratch
// storage. Call it again after structural graph changes or core DVFS
// level changes; the per-(task, core) time table is frozen at bind
// time.
func (e *Evaluator) Bind(g *taskgraph.Graph, plat *platform.Platform) {
	e.g, e.plat = g, plat
	e.mem = plat.Mem
	e.view = g.View()
	n := len(g.Tasks)
	nPE := len(plat.Cores)

	if cap(e.capab) < n {
		e.capab = make([][]int, n)
	}
	e.capab = e.capab[:n]
	need := n * nPE
	if cap(e.capBuf) < need {
		e.capBuf = make([]int, 0, need)
	}
	e.capBuf = e.capBuf[:0]
	if cap(e.durs) < need {
		e.durs = make([]sim.Time, need)
	}
	e.durs = e.durs[:need]
	e.infCost = growTime(e.infCost, nPE)
	e.peAvail = growTime(e.peAvail, nPE)
	// finish and undo share one allocation, [finish | undo], so the
	// annealer's undo log costs a fresh evaluator nothing extra.
	e.finish = growTime(e.finish, 2*n)
	e.finish, e.undo = e.finish[:n], e.finish[n:]
	e.load = growTime(e.load, nPE)

	for pe, c := range plat.Cores {
		e.infCost[pe] = c.Cycles(1 << 50)
	}
	v := e.view
	for id, t := range g.Tasks {
		usePref := false
		if t.HasPref {
			for _, c := range plat.Cores {
				if c.Class == t.PreferredPE && v.CanRunOn(id, c.Class) {
					usePref = true
					break
				}
			}
		}
		start := len(e.capBuf)
		for _, c := range plat.Cores {
			if !v.CanRunOn(id, c.Class) {
				e.durs[id*nPE+c.ID] = -1
				continue
			}
			e.durs[id*nPE+c.ID] = c.Cycles(v.CyclesOn(id, c.Class))
			if !usePref || c.Class == t.PreferredPE {
				e.capBuf = append(e.capBuf, c.ID)
			}
		}
		e.capab[id] = e.capBuf[start:len(e.capBuf):len(e.capBuf)]
	}
}

// growTime returns s resized to n, reusing its backing array.
func growTime(s []sim.Time, n int) []sim.Time {
	if cap(s) < n {
		return make([]sim.Time, n)
	}
	return s[:n]
}

// Capable returns the core IDs that can run task id, respecting a
// preferred PE class when one is available. The slice is the
// evaluator's own — read-only.
func (e *Evaluator) Capable(id int) []int { return e.capab[id] }

// schedule computes the static schedule for a fixed assignment:
// topological order, communication charged at contention-free fabric
// estimates, one task at a time per PE. With wantSlots false it runs
// entirely in reused scratch — zero allocations — and returns only
// the makespan; with wantSlots true it allocates a fresh slot list
// for the caller to keep.
func (e *Evaluator) schedule(taskPE []int, wantSlots bool) (sim.Time, []Slot, error) {
	order, err := e.view.TopoOrder()
	if err != nil {
		return 0, nil, err
	}
	clear(e.peAvail)
	var slots []Slot
	if wantSlots {
		slots = make([]Slot, 0, len(order))
	}
	return e.scheduleFrom(taskPE, order, 0, 0, slots)
}

// scheduleFrom runs the list schedule over order[p:] on top of the
// tasks before p: e.peAvail must hold each PE's end after them, and
// makespan their latest finish. It saves every finish it overwrites
// in e.undo, by position, so that restoreFrom can take the pass back.
// A non-nil slots receives one slot per scheduled task.
func (e *Evaluator) scheduleFrom(taskPE, order []int, p int, makespan sim.Time, slots []Slot) (sim.Time, []Slot, error) {
	e.Obs.Schedules.Inc()
	v := e.view
	nPE := len(e.plat.Cores)
	peAvail, finish, undo := e.peAvail, e.finish, e.undo
	for i := p; i < len(order); i++ {
		id := order[i]
		pe := taskPE[id]
		dur := e.durs[id*nPE+pe]
		if dur < 0 {
			t := e.g.Tasks[id]
			return 0, nil, fmt.Errorf("mapping: task %q cannot run on core %d (%v)", t.Name, pe, e.plat.Core(pe).Class)
		}
		ready := sim.Time(0)
		for _, pr := range v.Preds(id) {
			arr := finish[pr.Task]
			if taskPE[pr.Task] != pe {
				arr += e.plat.Fabric.EstLatency(taskPE[pr.Task], pe, pr.Bytes)
				if e.mem != nil {
					arr += e.mem.EstLatency(taskPE[pr.Task], pe, pr.Bytes)
				}
			}
			if arr > ready {
				ready = arr
			}
		}
		start := ready
		if peAvail[pe] > start {
			start = peAvail[pe]
		}
		end := start + dur
		peAvail[pe] = end
		undo[i] = finish[id]
		finish[id] = end
		if slots != nil {
			slots = append(slots, Slot{Task: id, PE: pe, Start: start, Finish: end})
		}
		if end > makespan {
			makespan = end
		}
	}
	return makespan, slots, nil
}

// rescheduleMoved returns the makespan of taskPE after task moved
// changed core, and moved's topological position p. e.finish must
// hold the static schedule from before the move. The tasks before p
// keep their finishes, so on its way to p it rebuilds e.peAvail and
// the makespan from them — per-PE ends only grow in schedule order,
// so a PE's end is its last finish there — and then re-schedules
// order[p:] alone.
func (e *Evaluator) rescheduleMoved(taskPE, order []int, moved int) (sim.Time, int, error) {
	clear(e.peAvail)
	var makespan sim.Time
	p := 0
	for ; order[p] != moved; p++ {
		id := order[p]
		end := e.finish[id]
		e.peAvail[taskPE[id]] = end
		makespan = max(makespan, end)
	}
	mk, _, err := e.scheduleFrom(taskPE, order, p, makespan, nil)
	return mk, p, err
}

// restoreFrom takes back the scheduleFrom pass that started at
// topological position p: every finish it overwrote comes back from
// e.undo.
func (e *Evaluator) restoreFrom(order []int, p int) {
	for i := p; i < len(order); i++ {
		e.finish[order[i]] = e.undo[i]
	}
}

// evaluate is the legacy entry point kept for the equivalence tests:
// score one assignment with a throwaway evaluator.
func evaluate(g *taskgraph.Graph, plat *platform.Platform, taskPE []int) (sim.Time, []Slot, error) {
	return NewEvaluator(g, plat).schedule(taskPE, true)
}

// objectiveCost scores an assignment under the selected objective:
// static-schedule makespan, or the pipeline's steady-state period
// (the most-loaded core) for throughput. Zero allocations.
func (e *Evaluator) objectiveCost(objective Objective, assign []int) sim.Time {
	e.Obs.CostEvals.Inc()
	if objective == Throughput {
		nPE := len(e.plat.Cores)
		load := e.load
		for i := range load {
			load[i] = 0
		}
		var worst sim.Time
		for id, pe := range assign {
			d := e.durs[id*nPE+pe]
			if d < 0 {
				d = e.infCost[pe]
			}
			load[pe] += d
			if load[pe] > worst {
				worst = load[pe]
			}
		}
		return worst
	}
	mk, _, err := e.schedule(assign, false)
	if err != nil {
		return sim.Forever
	}
	return mk
}

// Map assigns g's tasks onto plat with the selected heuristic, using
// a fresh Evaluator. Callers mapping many candidates against reusable
// scratch should construct an Evaluator once and call its Map method.
func Map(g *taskgraph.Graph, plat *platform.Platform, opt Options) (*Assignment, error) {
	// Validate before building the evaluator: its adjacency view
	// indexes edge endpoints unchecked, and a malformed graph (edges
	// edited outside AddTask/Connect) must surface as the Validate
	// error, not a panic.
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return NewEvaluator(g, plat).Map(opt)
}

// Map assigns the bound graph's tasks onto the bound platform with
// the selected heuristic.
func (e *Evaluator) Map(opt Options) (*Assignment, error) {
	g, plat := e.g, e.plat
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(plat.Cores) == 0 {
		return nil, fmt.Errorf("mapping: platform has no cores")
	}
	for id, t := range g.Tasks {
		if len(e.capab[id]) == 0 {
			return nil, fmt.Errorf("mapping: no core can run task %q", t.Name)
		}
	}
	var taskPE []int
	var err error
	switch opt.Heuristic {
	case List:
		if opt.Objective == Throughput {
			taskPE, err = e.throughputMap()
		} else {
			taskPE, err = e.listMap()
		}
	case Anneal:
		taskPE, err = e.annealMap(opt)
	case Exhaustive:
		taskPE, err = e.exhaustiveMap(opt.Objective)
	default:
		return nil, fmt.Errorf("mapping: unknown heuristic %d", opt.Heuristic)
	}
	if err != nil {
		return nil, err
	}
	mk, slots, err := e.schedule(taskPE, true)
	if err != nil {
		return nil, err
	}
	return &Assignment{Graph: g, Platform: plat, TaskPE: taskPE, Schedule: slots, Makespan: mk}, nil
}

// listMap is HEFT-flavoured: rank tasks by upward rank (mean compute
// plus mean communication to the exit), then greedily place each on
// the core minimizing its earliest finish time.
func (e *Evaluator) listMap() ([]int, error) {
	g, plat, v := e.g, e.plat, e.view
	n := len(g.Tasks)
	meanCycles := func(id int) float64 {
		var sum float64
		var cnt int
		for _, c := range plat.Cores {
			if v.CanRunOn(id, c.Class) {
				sum += float64(v.CyclesOn(id, c.Class)) / float64(c.Hz()) * 1e12
				cnt++
			}
		}
		if cnt == 0 {
			return 0
		}
		return sum / float64(cnt)
	}
	rank := make([]float64, n)
	order, _ := v.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		var best float64
		for _, s := range v.Succs(id) {
			comm := float64(plat.Fabric.EstLatency(0, len(plat.Cores)-1, s.Bytes))
			if e.mem != nil {
				comm += float64(e.mem.EstLatency(0, len(plat.Cores)-1, s.Bytes))
			}
			if r := rank[s.Task] + comm; r > best {
				best = r
			}
		}
		rank[id] = meanCycles(id) + best
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool {
		if rank[ids[a]] != rank[ids[b]] {
			return rank[ids[a]] > rank[ids[b]]
		}
		return ids[a] < ids[b]
	})

	taskPE := make([]int, n)
	for i := range taskPE {
		taskPE[i] = -1
	}
	nPE := len(plat.Cores)
	peAvail := e.peAvail
	for i := range peAvail {
		peAvail[i] = 0
	}
	finish := e.finish
	for _, id := range ids {
		bestPE, bestEFT := -1, sim.Forever
		for _, pe := range e.capab[id] {
			ready := sim.Time(0)
			for _, pr := range v.Preds(id) {
				if taskPE[pr.Task] < 0 {
					continue // predecessor not placed yet (rank order anomaly)
				}
				arr := finish[pr.Task]
				if taskPE[pr.Task] != pe {
					arr += plat.Fabric.EstLatency(taskPE[pr.Task], pe, pr.Bytes)
					if e.mem != nil {
						arr += e.mem.EstLatency(taskPE[pr.Task], pe, pr.Bytes)
					}
				}
				if arr > ready {
					ready = arr
				}
			}
			start := ready
			if peAvail[pe] > start {
				start = peAvail[pe]
			}
			eft := start + e.durs[id*nPE+pe]
			if eft < bestEFT {
				bestEFT = eft
				bestPE = pe
			}
		}
		taskPE[id] = bestPE
		peAvail[bestPE] = bestEFT
		finish[id] = bestEFT
	}
	return taskPE, nil
}

// throughputMap balances stage load across PEs (greedy LPT on
// per-core execution time): the pipeline's steady-state period is the
// most-loaded core, so minimizing the maximum load maximizes
// throughput.
func (e *Evaluator) throughputMap() ([]int, error) {
	g, plat := e.g, e.plat
	n := len(g.Tasks)
	nPE := len(plat.Cores)
	ids := make([]int, n)
	weights := make([]int64, n)
	for i := range ids {
		ids[i] = i
		// Fastest capable core's execution time. An explicit found
		// flag, not a zero sentinel: a 0-cycle task must not fall
		// through to a slower core's time.
		var w int64
		found := false
		for _, c := range plat.Cores {
			if d := e.durs[i*nPE+c.ID]; d >= 0 {
				if t := int64(d); !found || t < w {
					w = t
					found = true
				}
			}
		}
		weights[i] = w
	}
	sort.SliceStable(ids, func(a, b int) bool { return weights[ids[a]] > weights[ids[b]] })
	load := e.load
	for i := range load {
		load[i] = 0
	}
	taskPE := make([]int, n)
	for _, id := range ids {
		bestPE := -1
		var bestLoad sim.Time = sim.Forever
		for _, pe := range e.capab[id] {
			l := load[pe] + e.durs[id*nPE+pe]
			if l < bestLoad {
				bestLoad = l
				bestPE = pe
			}
		}
		taskPE[id] = bestPE
		load[bestPE] = bestLoad
	}
	return taskPE, nil
}

// annealMap refines the list (or, for throughput, LPT) mapping with
// simulated annealing over single-task moves, optimizing the selected
// objective; deterministic under Options.Seed. Moves mutate the
// current assignment in place and revert on reject, and each move
// costs only what it changes:
//   - throughput: an incremental per-core load update;
//   - makespan, no-op move (the task redraws its own core): the
//     current cost, with nothing scheduled;
//   - makespan, real move: e.finish holds the current assignment's
//     static schedule, so rescheduleMoved re-runs only the moved
//     task's topological suffix, logging the finishes it overwrites;
//     a reject restores them from that log, an accept keeps them.
//
// Every move's cost equals a full recomputation's, integer for
// integer, so the accept/reject trajectory — and therefore the
// returned assignment — is byte-identical to full-schedule scoring.
func (e *Evaluator) annealMap(opt Options) ([]int, error) {
	g := e.g
	nPE := len(e.plat.Cores)
	var cur []int
	var err error
	if opt.Objective == Throughput {
		cur, err = e.throughputMap()
	} else {
		cur, err = e.listMap()
	}
	if err != nil {
		return nil, err
	}
	order, err := e.view.TopoOrder()
	if err != nil {
		return nil, err
	}
	iters := opt.Iterations
	if iters <= 0 {
		iters = 2000
	}
	rng := xrand.New(opt.Seed + 1)
	curCost := e.objectiveCost(opt.Objective, cur)
	best := append([]int{}, cur...)
	bestCost := curCost
	temp := float64(curCost)
	// objectiveCost above left cur's static schedule in e.finish
	// (makespan) or its per-core loads in e.load (throughput); every
	// move keeps them current.
	load := e.load
	dur := func(id, pe int) sim.Time {
		if d := e.durs[id*nPE+pe]; d >= 0 {
			return d
		}
		return e.infCost[pe]
	}
	for i := 0; i < iters; i++ {
		tIdx := rng.Intn(len(g.Tasks))
		cands := e.capab[tIdx]
		oldPE := cur[tIdx]
		newPE := cands[rng.Intn(len(cands))]
		cur[tIdx] = newPE
		var nc sim.Time
		p := -1 // position of a re-scheduled suffix, to restore on reject
		switch {
		case opt.Objective == Throughput:
			load[oldPE] -= dur(tIdx, oldPE)
			load[newPE] += dur(tIdx, newPE)
			for _, l := range load {
				if l > nc {
					nc = l
				}
			}
		case newPE == oldPE:
			nc = curCost
		default:
			// Every candidate core is capable, so this cannot fail.
			if nc, p, err = e.rescheduleMoved(cur, order, tIdx); err != nil {
				return nil, err
			}
		}
		e.Obs.AnnealMoves.Inc()
		dE := float64(nc - curCost)
		if dE <= 0 || rng.Float64() < math.Exp(-dE/math.Max(temp, 1)) {
			e.Obs.AnnealAccepts.Inc()
			curCost = nc
			if curCost < bestCost {
				copy(best, cur)
				bestCost = curCost
			}
		} else {
			e.Obs.AnnealRejects.Inc()
			cur[tIdx] = oldPE
			if opt.Objective == Throughput {
				load[newPE] -= dur(tIdx, newPE)
				load[oldPE] += dur(tIdx, oldPE)
			} else if p >= 0 {
				e.restoreFrom(order, p)
			}
		}
		temp *= 0.995
	}
	return best, nil
}

// exhaustiveMap enumerates all feasible assignments under the
// selected objective with branch-and-bound: a prefix is cut when an
// admissible lower bound — the larger of the most-loaded core so far
// and the remaining work spread perfectly over all cores — already
// meets the incumbent. Bounds never cut a strictly better leaf and
// enumeration order is unchanged, so the returned assignment is the
// plain enumeration's first-found argmin, byte for byte. Guarded to
// small instances (the paper's exploration loop for design studies).
func (e *Evaluator) exhaustiveMap(objective Objective) ([]int, error) {
	g := e.g
	n := len(g.Tasks)
	nPE := len(e.plat.Cores)
	space := 1
	for id := range g.Tasks {
		space *= len(e.capab[id])
		if space > 500_000 {
			return nil, fmt.Errorf("mapping: exhaustive search space too large (>500k); use list or anneal")
		}
	}
	// minDur[i] is task i's fastest capable-core time; remMin[i] the
	// total over tasks i..n-1 — the admissible remaining-work term.
	minDur := make([]sim.Time, n)
	for id := range g.Tasks {
		m := sim.Forever
		for _, pe := range e.capab[id] {
			if d := e.durs[id*nPE+pe]; d < m {
				m = d
			}
		}
		minDur[id] = m
	}
	remMin := make([]sim.Time, n+1)
	for id := n - 1; id >= 0; id-- {
		remMin[id] = remMin[id+1] + minDur[id]
	}
	assign := make([]int, n)
	best := make([]int, n)
	bestCost := sim.Forever
	load := make([]sim.Time, nPE)
	var loadSum sim.Time
	var rec func(i int, maxLoad sim.Time)
	rec = func(i int, maxLoad sim.Time) {
		if i == n {
			c := e.objectiveCost(objective, assign)
			if c < bestCost {
				bestCost = c
				copy(best, assign)
			}
			return
		}
		if bestCost < sim.Forever {
			lb := maxLoad
			if spread := (loadSum + remMin[i] + sim.Time(nPE) - 1) / sim.Time(nPE); spread > lb {
				lb = spread
			}
			if lb >= bestCost {
				return
			}
		}
		for _, pe := range e.capab[i] {
			assign[i] = pe
			d := e.durs[i*nPE+pe]
			load[pe] += d
			loadSum += d
			ml := maxLoad
			if load[pe] > ml {
				ml = load[pe]
			}
			rec(i+1, ml)
			load[pe] -= d
			loadSum -= d
		}
	}
	rec(0, 0)
	if bestCost == sim.Forever {
		return nil, fmt.Errorf("mapping: no feasible assignment")
	}
	return best, nil
}

// Validate checks schedule sanity: no PE runs two tasks at once and
// every dependence finishes before its consumer starts.
func (a *Assignment) Validate() error {
	byPE := map[int][]Slot{}
	byTask := make([]Slot, len(a.Graph.Tasks))
	for _, s := range a.Schedule {
		byPE[s.PE] = append(byPE[s.PE], s)
		byTask[s.Task] = s
	}
	for pe, slots := range byPE {
		sort.Slice(slots, func(i, j int) bool { return slots[i].Start < slots[j].Start })
		for i := 1; i < len(slots); i++ {
			if slots[i].Start < slots[i-1].Finish {
				return fmt.Errorf("mapping: PE %d overlaps tasks %d and %d", pe, slots[i-1].Task, slots[i].Task)
			}
		}
	}
	for _, e := range a.Graph.Edges {
		if byTask[e.To].Start < byTask[e.From].Finish {
			return fmt.Errorf("mapping: task %d starts before producer %d finishes", e.To, e.From)
		}
	}
	return nil
}

// FeasibleWithin reports whether the schedule fits a period/deadline.
func (a *Assignment) FeasibleWithin(deadline sim.Time) bool {
	return a.Makespan <= deadline
}

// Gantt renders the schedule as text for reports.
func (a *Assignment) Gantt() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule on %s (makespan %v):\n", a.Platform.Name, a.Makespan)
	byPE := map[int][]Slot{}
	for _, s := range a.Schedule {
		byPE[s.PE] = append(byPE[s.PE], s)
	}
	var pes []int
	for pe := range byPE {
		pes = append(pes, pe)
	}
	sort.Ints(pes)
	for _, pe := range pes {
		slots := byPE[pe]
		sort.Slice(slots, func(i, j int) bool { return slots[i].Start < slots[j].Start })
		fmt.Fprintf(&b, "  %-8s:", a.Platform.Core(pe).Name)
		for _, s := range slots {
			fmt.Fprintf(&b, " [%s %v..%v]", a.Graph.Tasks[s.Task].Name, s.Start, s.Finish)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ExecStats is the measurement record a simulated execution returns:
// the makespan, per-PE busy time (compute only, excluding contention
// stalls), and the fabric traffic generated during the run. It feeds
// dse.Metrics — utilization, energy proxies and NoC pressure all
// derive from it.
type ExecStats struct {
	Makespan sim.Time
	// PEBusy[pe] is the time core pe spent computing tasks.
	PEBusy []sim.Time
	// Fabric is the traffic delta attributable to this run.
	Fabric platform.FabricStats
	// Mem is the memory-subsystem service delta attributable to this
	// run. Zero when the platform has no memory model attached.
	Mem platform.MemStats
}

// BusyTotal sums compute time over all PEs.
func (s ExecStats) BusyTotal() sim.Time {
	var total sim.Time
	for _, b := range s.PEBusy {
		total += b
	}
	return total
}

// Utilization returns per-PE busy fraction of the makespan.
func (s ExecStats) Utilization() []float64 {
	out := make([]float64, len(s.PEBusy))
	if s.Makespan <= 0 {
		return out
	}
	for i, b := range s.PEBusy {
		out[i] = float64(b) / float64(s.Makespan)
	}
	return out
}

// transferContended moves one cross-PE payload: the fabric delivers
// it, then — when the platform has a memory contention model — the
// payload queues for memory service before done fires. With no model
// (nil Mem) the call is exactly Fabric.Transfer: same arguments, same
// event stream, byte-identical timing to the pre-model simulator.
func transferContended(plat *platform.Platform, src, dst, bytes int, done func()) {
	m := plat.Mem
	if m == nil {
		plat.Fabric.Transfer(src, dst, bytes, done)
		return
	}
	k := plat.Kernel
	plat.Fabric.Transfer(src, dst, bytes, func() {
		if d := m.Service(k.Now(), src, dst, bytes); d > 0 {
			k.Schedule(d, done)
		} else {
			done()
		}
	})
}

// Task-level execution runs every task as a small state machine whose
// continuation is a kernel callback (Schedule), not a sim.Proc: no
// goroutine is started and no park/resume handoff is paid. The two
// primitives below stand in for sim.Resource and sim.Queue and keep
// their wake-up discipline exactly. A release, Get or Put wakes every
// parked task with one zero-delay event each, in parking order, and
// the losers re-check and park again. The kernel therefore sees the
// same event stream, event for event, as the process-based model it
// replaces (TestExecuteMatchesProcOracle holds that equivalence).

// wakeAll schedules every parked continuation on list at the current
// instant, in parking order, and empties the list in place.
func wakeAll(k *sim.Kernel, list *[]func()) {
	for _, step := range *list {
		k.Schedule(0, step)
	}
	*list = (*list)[:0]
}

// peLocks are the per-PE exclusive-use locks of a task-level run: a
// held flag per PE and the continuations parked on it.
type peLocks struct {
	held   []bool
	parked [][]func()
}

func newPELocks(n int) peLocks {
	return peLocks{held: make([]bool, n), parked: make([][]func(), n)}
}

// acquire takes PE pe, or parks step on it and reports false while
// another task holds it.
func (l *peLocks) acquire(pe int, step func()) bool {
	if l.held[pe] {
		l.parked[pe] = append(l.parked[pe], step)
		return false
	}
	l.held[pe] = true
	return true
}

// release frees PE pe and wakes every task parked on it.
func (l *peLocks) release(k *sim.Kernel, pe int) {
	l.held[pe] = false
	wakeAll(k, &l.parked[pe])
}

// Execute runs the assignment on the event-driven platform model with
// genuine fabric contention (transfers share links) — the high-level
// "virtual platform" simulation of section IV. Every task is a kernel
// callback state machine: it waits for its inputs, takes its PE,
// computes, then releases the PE and sends its outputs. It uses the
// platform's kernel, which must be otherwise idle, and returns the
// measured makespan plus per-PE busy time and the fabric traffic of
// the run. It shares its implementation with ExecuteMulti
// (executeSpans), so the two can never diverge.
func Execute(a *Assignment) (ExecStats, error) {
	stats, _, err := executeSpans(a, nil)
	return stats, err
}

// fifoDepth is the token capacity of every pipeline channel.
const fifoDepth = 2

// Phases of a pipelined task's state machine, in iteration order.
const (
	pipeGet     = iota // taking one token from each input channel
	pipeAcquire        // waiting for the PE
	pipeCompute        // computing; the next call is the finish
	pipePut            // sending, then putting, one token per output
	pipeSend           // a cross-PE send is in flight
)

// pipeTask is one pipelined task's state: its phase, its iteration,
// and the input or output it is working on.
type pipeTask struct {
	phase, it, j int
	// sent is set once output j's cross-PE transfer has completed.
	sent bool
	dur  sim.Time
}

// ExecutePipelined runs the mapped graph as a pipeline over
// `iterations` successive data sets (frames, blocks): every task
// fires once per iteration, consuming its predecessors' tokens for
// the same iteration through depth-bounded FIFO channels. This is how
// MAPS-mapped multimedia codecs actually earn their speedup — stage
// parallelism across consecutive frames — and the measurement behind
// the section IV "promising speedup results". Each task is a kernel
// callback state machine over its iterations; a channel is a fill
// count with the getters and putters parked on it, and a cross-PE
// send resumes its task from the transfer's completion callback.
func ExecutePipelined(a *Assignment, iterations int) (ExecStats, error) {
	if iterations <= 0 {
		return ExecStats{}, fmt.Errorf("mapping: iterations must be positive")
	}
	k := a.Platform.Kernel
	if k == nil {
		return ExecStats{}, fmt.Errorf("mapping: platform has no kernel")
	}
	g := a.Graph
	v := g.View()
	n := len(g.Tasks)
	fill := make([]int, len(g.Edges)) // edge index -> buffered tokens
	getters := make([][]func(), len(g.Edges))
	putters := make([][]func(), len(g.Edges))
	pes := newPELocks(len(a.Platform.Cores))
	fabric0 := platform.FabricStatsOf(a.Platform.Fabric)
	mem0 := platform.MemStatsOf(a.Platform.Mem)
	busy := make([]sim.Time, len(a.Platform.Cores))
	var makespan sim.Time
	finished := 0
	tasks := make([]pipeTask, n)
	step := make([]func(), n)
	for id := range step {
		t := &tasks[id]
		inEdges, outEdges := v.InEdges(id), v.OutEdges(id)
		pe := a.TaskPE[id]
		core := a.Platform.Core(pe)
		cycles := g.Tasks[id].CyclesOn(core.Class)
		step[id] = func() {
			for {
				switch t.phase {
				case pipeGet:
					for ; t.j < len(inEdges); t.j++ {
						e := inEdges[t.j].Edge
						if fill[e] == 0 {
							getters[e] = append(getters[e], step[id])
							return
						}
						fill[e]--
						wakeAll(k, &putters[e])
					}
					t.phase = pipeAcquire
				case pipeAcquire:
					if !pes.acquire(pe, step[id]) {
						return
					}
					t.dur = core.Cycles(cycles)
					t.phase = pipeCompute
					k.Schedule(t.dur, step[id])
					return
				case pipeCompute:
					pes.release(k, pe)
					busy[pe] += t.dur
					t.phase, t.j, t.sent = pipePut, 0, false
				case pipeSend:
					// The transfer completed: resume with one
					// zero-delay wake-up.
					t.phase, t.sent = pipePut, true
					k.Schedule(0, step[id])
					return
				case pipePut:
					for ; t.j < len(outEdges); t.j, t.sent = t.j+1, false {
						oe := outEdges[t.j]
						if to := a.TaskPE[oe.Task]; to != pe && !t.sent {
							t.phase = pipeSend
							transferContended(a.Platform, pe, to, oe.Bytes, step[id])
							return
						}
						if fill[oe.Edge] >= fifoDepth {
							putters[oe.Edge] = append(putters[oe.Edge], step[id])
							return
						}
						fill[oe.Edge]++
						wakeAll(k, &getters[oe.Edge])
					}
					if k.Now() > makespan {
						makespan = k.Now()
					}
					if t.it++; t.it == iterations {
						finished++
						return
					}
					t.phase, t.j = pipeGet, 0
				}
			}
		}
		k.Schedule(0, step[id])
	}
	k.Run()
	if finished != n {
		return ExecStats{}, fmt.Errorf("mapping: pipeline stalled (%d/%d tasks finished)", finished, n)
	}
	return ExecStats{
		Makespan: makespan,
		PEBusy:   busy,
		Fabric:   platform.FabricStatsOf(a.Platform.Fabric).Sub(fabric0),
		Mem:      platform.MemStatsOf(a.Platform.Mem).Sub(mem0),
	}, nil
}
