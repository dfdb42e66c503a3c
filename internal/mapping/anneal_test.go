package mapping

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"mpsockit/internal/mem"
	"mpsockit/internal/noc"
	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
	"mpsockit/internal/taskgraph"
	"mpsockit/internal/xrand"
)

// annealMapFull is annealMap scoring every makespan move with a full
// static schedule, no-op moves included. It is the oracle for the
// suffix re-schedule and undo log that annealMap uses instead.
func (e *Evaluator) annealMapFull(opt Options) ([]int, error) {
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
	iters := opt.Iterations
	if iters <= 0 {
		iters = 2000
	}
	rng := xrand.New(opt.Seed + 1)
	curCost := e.objectiveCost(opt.Objective, cur)
	best := append([]int{}, cur...)
	bestCost := curCost
	temp := float64(curCost)
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
		if opt.Objective == Throughput {
			load[oldPE] -= dur(tIdx, oldPE)
			load[newPE] += dur(tIdx, newPE)
			for _, l := range load {
				if l > nc {
					nc = l
				}
			}
		} else {
			mk, _, err := e.schedule(cur, false)
			if err != nil {
				mk = sim.Forever
			}
			nc = mk
		}
		dE := float64(nc - curCost)
		if dE <= 0 || rng.Float64() < math.Exp(-dE/math.Max(temp, 1)) {
			curCost = nc
			if curCost < bestCost {
				copy(best, cur)
				bestCost = curCost
			}
		} else {
			cur[tIdx] = oldPE
			if opt.Objective == Throughput {
				load[newPE] -= dur(tIdx, newPE)
				load[oldPE] += dur(tIdx, oldPE)
			}
		}
		temp *= 0.995
	}
	return best, nil
}

// suffixDAG builds a random DAG of 1 to 9 tasks from fuzz bytes. Task
// cycles may be zero; RISC and CTRL cores run every task, and DSP and
// VLIW cores only some. Edges point from lower to higher IDs, may be
// parallel, and every third one carries zero bytes.
func suffixDAG(tasks []uint8, edges []uint16) *taskgraph.Graph {
	n := len(tasks)%9 + 1
	g := taskgraph.NewGraph("suffix")
	for i := 0; i < n; i++ {
		b := tasks[i%len(tasks)]
		cyc := int64(b) * 997
		wcet := map[platform.PEClass]int64{platform.RISC: cyc, platform.CTRL: cyc + 300}
		if b&1 == 0 {
			wcet[platform.DSP] = cyc/2 + 1
		}
		if b&2 == 0 {
			wcet[platform.VLIW] = cyc + 500
		}
		g.AddTask(&taskgraph.Task{Name: "t", WCET: wcet})
	}
	for i, e := range edges {
		from := int(e>>8) % n
		to := int(e&0xff) % n
		if from >= to {
			continue
		}
		bytes := int(e%4096) + 1
		if i%3 == 0 {
			bytes = 0
		}
		g.Connect(g.Tasks[from], g.Tasks[to], bytes, "")
	}
	return g
}

// suffixPlatform builds one of homog4, wireless and celllike4 on a
// mesh or bus fabric, every core at DVFS level dvfs (clamped), with
// memory model tok attached.
func suffixPlatform(kind int, bus bool, tok string, dvfs int) *platform.Platform {
	k := sim.NewKernel()
	var fabric platform.Fabric
	var plat *platform.Platform
	cores := []int{4, 6, 5}[kind]
	if bus {
		fabric = noc.DefaultBus(k)
	} else {
		fabric = noc.MeshFor(k, cores)
	}
	switch kind {
	case 0:
		plat = platform.NewHomogeneous(k, 4, 1_000_000_000, fabric)
	case 1:
		plat = platform.NewWirelessTerminal(k, fabric)
	default:
		plat = platform.NewCellLike(k, 4, fabric)
	}
	for _, c := range plat.Cores {
		if err := c.SetLevel(min(dvfs, len(c.Levels)-1)); err != nil {
			panic(err)
		}
	}
	spec, err := mem.ParseSpec(tok)
	if err != nil {
		panic(err)
	}
	access, bpns := plat.MemTiming()
	plat.Mem = spec.Build(access, bpns)
	return plat
}

// TestAnnealSuffixMatchesFullSchedule checks the suffix re-schedule
// against the full static schedule on random DAGs (single tasks,
// zero-cycle tasks and zero-byte edges included) across platform kind
// × fabric × memory model × DVFS level:
//   - a random walk of moves, each accepted or rejected at random:
//     every move's suffix cost equals schedule of the moved
//     assignment, and after an accept or a restore e.finish equals
//     the full schedule's finishes;
//   - annealMap returns the full-schedule oracle's assignment, for
//     both objectives.
func TestAnnealSuffixMatchesFullSchedule(t *testing.T) {
	mems := []string{"ideal", "bank:4x2", "bw:8"}
	f := func(tasks []uint8, edges []uint16, seed uint64) bool {
		if len(tasks) == 0 {
			return true
		}
		if len(edges) > 24 {
			edges = edges[:24]
		}
		g := suffixDAG(tasks, edges)
		s := seed
		kind := int(s % 3)
		s /= 3
		bus := s%2 == 1
		s /= 2
		tok := mems[s%3]
		s /= 3
		dvfs := int(s % 3)
		plat := suffixPlatform(kind, bus, tok, dvfs)
		ev := NewEvaluator(g, plat)
		oracle := NewEvaluator(g, plat)
		n := len(g.Tasks)
		order, err := g.View().TopoOrder()
		if err != nil {
			t.Fatal(err)
		}

		rng := xrand.New(seed)
		cur := make([]int, n)
		for id := range cur {
			cands := ev.Capable(id)
			cur[id] = cands[rng.Intn(len(cands))]
		}
		curCost, _, err := ev.schedule(cur, false)
		if err != nil {
			t.Fatal(err)
		}
		for move := 0; move < 60; move++ {
			tIdx := rng.Intn(n)
			cands := ev.Capable(tIdx)
			oldPE := cur[tIdx]
			newPE := cands[rng.Intn(len(cands))]
			if newPE == oldPE {
				continue // annealMap skips these: the cost stays curCost
			}
			cur[tIdx] = newPE
			got, p, err := ev.rescheduleMoved(cur, order, tIdx)
			want, _, werr := oracle.schedule(cur, false)
			if err != nil || werr != nil {
				t.Fatalf("schedule errors: %v, %v", err, werr)
			}
			if got != want || !slices.Equal(ev.finish, oracle.finish) {
				t.Logf("plat %d bus %v mem %s dvfs %d, move %d (task %d at %d, core %d→%d): suffix cost %v, full %v\nfinish %v\nwant   %v",
					kind, bus, tok, dvfs, move, tIdx, p, oldPE, newPE, got, want, ev.finish, oracle.finish)
				return false
			}
			if rng.Intn(2) == 0 {
				curCost = got
				continue
			}
			cur[tIdx] = oldPE
			ev.restoreFrom(order, p)
			want, _, _ = oracle.schedule(cur, false)
			if want != curCost || !slices.Equal(ev.finish, oracle.finish) {
				t.Logf("plat %d bus %v mem %s dvfs %d, move %d: after restore finish %v, want %v (cost %v vs %v)",
					kind, bus, tok, dvfs, move, ev.finish, oracle.finish, want, curCost)
				return false
			}
		}

		for _, obj := range []Objective{Makespan, Throughput} {
			opt := Options{Heuristic: Anneal, Objective: obj, Seed: seed, Iterations: 300}
			got, err := ev.annealMap(opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewEvaluator(g, plat).annealMapFull(opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Logf("plat %d bus %v mem %s dvfs %d obj %d: anneal diverged\ngot  %v\nwant %v",
					kind, bus, tok, dvfs, obj, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
