package main

import (
	"fmt"
	"time"

	"mpsockit/internal/dse"
	"mpsockit/internal/mapping"
	"mpsockit/internal/mem"
	"mpsockit/internal/noc"
	"mpsockit/internal/obs"
	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
	"mpsockit/internal/taskgraph"
	"mpsockit/internal/workload"
)

// replayStats is what replaying the mapping and execute layers of
// every task-level point measured.
type replayStats struct {
	points    int
	mapNS     map[string][]int64 // by heuristic
	execNS    map[string][]int64 // by execute path: mvp, pipe, multi
	execTotal int64              // ns in execute calls
	events    uint64             // kernel events those calls dispatched
	schedules int64              // list-schedule evaluations in Map
	moves     int64              // proposed annealing moves
	accepts   int64              // accepted annealing moves
	// memChecked counts contended points whose mapping was re-executed
	// on ideal memory; anomalies lists those that ran faster contended.
	memChecked int
	anomalies  []int
}

type graphKey struct {
	kind string
	n    int
	seed uint64
}

// replayer rebuilds points through the layers' public constructors.
type replayer struct {
	graphs map[graphKey]*taskgraph.Graph
	search mapping.SearchObs
}

func newReplayer() *replayer {
	reg := obs.NewRegistry()
	return &replayer{
		graphs: map[graphKey]*taskgraph.Graph{},
		search: mapping.SearchObs{
			Schedules:     reg.Counter("schedules", ""),
			CostEvals:     reg.Counter("cost_evals", ""),
			AnnealMoves:   reg.Counter("moves", ""),
			AnnealAccepts: reg.Counter("accepts", ""),
			AnnealRejects: reg.Counter("rejects", ""),
		},
	}
}

// replayAll maps and executes every successful task-level (mvp or
// pipe) point again, timing Map and Execute* from outside and adding
// what it measured to st. Each replay must reproduce the result's
// makespan and event count, which proves the replay is the
// computation Evaluate ran. A contended point's mapping is also
// executed on the same platform without its memory model; a contended
// makespan below that is a timing anomaly, counted (see replay).
func replayAll(results []dse.Result, tr *tracer, parent int64, st *replayStats) error {
	rp := newReplayer()
	for _, r := range results {
		p := r.Point
		if r.Err != "" || (p.Fidelity != "mvp" && p.Fidelity != "pipe") {
			continue
		}
		if err := rp.replay(r, st, tr, parent); err != nil {
			return err
		}
	}
	st.schedules += rp.search.Schedules.Value()
	st.moves += rp.search.AnnealMoves.Value()
	st.accepts += rp.search.AnnealAccepts.Value()
	return nil
}

func newReplayStats() *replayStats {
	return &replayStats{mapNS: map[string][]int64{}, execNS: map[string][]int64{}}
}

func (rp *replayer) replay(r dse.Result, st *replayStats, tr *tracer, parent int64) error {
	p := r.Point
	if len(p.Apps) == 1 {
		a := p.Apps[0]
		p.Workload, p.N, p.WorkloadSeed, p.Apps = a.Kind, a.N, a.Seed, nil
	}
	g, spans, err := rp.graph(p)
	if err != nil {
		return err
	}
	k := sim.NewKernel()
	plat, err := buildPlatform(k, p.Plat)
	if err != nil {
		return err
	}
	heur, err := mapping.ParseHeuristic(p.Heuristic)
	if err != nil {
		return err
	}
	opt := mapping.Options{Heuristic: heur, Seed: p.Seed}
	units, path := 1, "mvp"
	if p.Fidelity == "pipe" {
		opt.Objective = mapping.Throughput
		units, path = p.Iterations, "pipe"
		if units <= 0 {
			units = 8
		}
	} else if spans != nil {
		path = "multi"
	}

	t0 := time.Now()
	ev := mapping.NewEvaluator(g, plat)
	ev.Obs = rp.search
	a, err := ev.Map(opt)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("replay point %d: map: %w", p.ID, err)
	}
	stats, err := execute(a, path, units, spans)
	t2 := time.Now()
	if err != nil {
		return fmt.Errorf("replay point %d: execute: %w", p.ID, err)
	}
	if stats.Makespan != r.Metrics.Makespan || k.Executed != r.Metrics.SimEvents {
		return fmt.Errorf("replay point %d: makespan %d ps / %d events, result says %d ps / %d events",
			p.ID, stats.Makespan, k.Executed, r.Metrics.Makespan, r.Metrics.SimEvents)
	}
	tr.record("mapping.map", parent, 0, p.ID, -1, t0, t1)
	tr.record("mapping.execute."+path, parent, 0, p.ID, -1, t1, t2)
	st.points++
	st.mapNS[p.Heuristic] = append(st.mapNS[p.Heuristic], int64(t1.Sub(t0)))
	st.execNS[path] = append(st.execNS[path], int64(t2.Sub(t1)))
	st.execTotal += int64(t2.Sub(t1))
	st.events += k.Executed

	if p.Plat.Mem == "" {
		return nil
	}
	// Contention monotonicity: the same mapping on the same platform
	// with ideal memory. (A twin point with mem=ideal is no baseline:
	// its mapper saw other transfer costs and may map worse.) Both
	// execute paths grant cores first come, first served and the
	// fabric arbitrates in arrival order, so a payload delayed by
	// memory service can reorder work into a shorter schedule: a timing
	// anomaly the model allows. It is counted, not gated.
	ideal := p.Plat
	ideal.Mem = ""
	ik := sim.NewKernel()
	iplat, err := buildPlatform(ik, ideal)
	if err != nil {
		return err
	}
	ia := *a
	ia.Platform = iplat
	istats, err := execute(&ia, path, units, spans)
	if err != nil {
		return fmt.Errorf("replay point %d on ideal memory: %w", p.ID, err)
	}
	if r.Metrics.Makespan < istats.Makespan {
		st.anomalies = append(st.anomalies, p.ID)
	}
	st.memChecked++
	return nil
}

func execute(a *mapping.Assignment, path string, units int, spans []taskgraph.Span) (mapping.ExecStats, error) {
	switch path {
	case "pipe":
		return mapping.ExecutePipelined(a, units)
	case "multi":
		stats, _, err := mapping.ExecuteMulti(a, spans)
		return stats, err
	}
	return mapping.Execute(a)
}

// graph returns the point's task graph (the union graph and its spans
// for a multi-app scenario), cached per workload instance like the
// evaluator's own prototype cache, with its adjacency view built.
func (rp *replayer) graph(p dse.Point) (*taskgraph.Graph, []taskgraph.Span, error) {
	if len(p.Apps) == 0 {
		g, err := rp.app(p.Workload, p.N, p.WorkloadSeed)
		return g, nil, err
	}
	gs := make([]*taskgraph.Graph, len(p.Apps))
	for i, a := range p.Apps {
		g, err := rp.app(a.Kind, a.N, a.Seed)
		if err != nil {
			return nil, nil, err
		}
		gs[i] = g
	}
	u, spans := taskgraph.Union(p.Workload, gs...)
	u.View()
	return u, spans, nil
}

func (rp *replayer) app(kind string, n int, seed uint64) (*taskgraph.Graph, error) {
	key := graphKey{kind, n, seed}
	if g, ok := rp.graphs[key]; ok {
		return g, nil
	}
	g, err := workload.AppTaskGraph(kind, n, seed)
	if err != nil {
		return nil, err
	}
	g.View()
	rp.graphs[key] = g
	return g, nil
}

// buildPlatform builds the point's platform on k from the platform,
// noc and mem constructors, at the swept DVFS level, as the sweep
// documents it: levels clamp per core, the level becomes the nominal
// one, and a mem= token attaches its contention model.
func buildPlatform(k *sim.Kernel, spec dse.PlatSpec) (*platform.Platform, error) {
	n := spec.CoreCount()
	var fabric platform.Fabric
	switch spec.Fabric {
	case "mesh":
		fabric = noc.MeshFor(k, n)
	case "bus":
		fabric = noc.DefaultBus(k)
	default:
		return nil, fmt.Errorf("replay: unknown fabric %q", spec.Fabric)
	}
	var plat *platform.Platform
	switch spec.Kind {
	case "homog":
		plat = platform.NewHomogeneous(k, n, 1_000_000_000, fabric)
	case "mpcore":
		plat = platform.NewMPCoreLike(k, n, fabric)
	case "celllike":
		plat = platform.NewCellLike(k, spec.Cores, fabric)
	case "wireless":
		plat = platform.NewWirelessTerminal(k, fabric)
	case "custom":
		plat = platform.NewMix(k, spec.Mix, fabric)
	default:
		return nil, fmt.Errorf("replay: unknown platform kind %q", spec.Kind)
	}
	for _, c := range plat.Cores {
		lvl := min(max(spec.DVFS, 0), len(c.Levels)-1)
		if err := c.SetLevel(lvl); err != nil {
			return nil, err
		}
		c.SetNominal()
		c.FreqSwitches = 0
	}
	if spec.Mem != "" {
		ms, err := mem.ParseSpec(spec.Mem)
		if err != nil {
			return nil, err
		}
		plat.Mem = ms.Build(plat.MemTiming())
	}
	return plat, nil
}
