package mapping

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"mpsockit/internal/mem"
	"mpsockit/internal/noc"
	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
	"mpsockit/internal/taskgraph"
	"mpsockit/internal/workload"
	"mpsockit/internal/xrand"
)

// Test oracles for task-level execution: the process-based models
// that executeSpans and ExecutePipelined replaced. Every task is a
// sim.Proc in lock-step handoff with the kernel, the per-PE lock a
// sim.Resource, the pipeline FIFOs sim.Queues and a cross-PE send a
// sim.Signal. The callback state machines must reproduce these event
// streams exactly: same stats, same makespans, same kernel event
// counts (TestExecuteMatchesProcOracle).

// executeSpansProcs is the process-based executeSpans.
func executeSpansProcs(a *Assignment, spans []taskgraph.Span) (ExecStats, []sim.Time, error) {
	k := a.Platform.Kernel
	if k == nil {
		return ExecStats{}, nil, fmt.Errorf("mapping: platform has no kernel")
	}
	g := a.Graph
	n := len(g.Tasks)
	appOf := make([]int, n)
	for i := range appOf {
		appOf[i] = -1
	}
	for ai, s := range spans {
		for id := s.Lo; id < s.Hi; id++ {
			appOf[id] = ai
		}
	}
	v := g.View()
	pending := make([]int, n) // unarrived inputs
	for id := range pending {
		pending[id] = len(v.InEdges(id))
	}
	peRes := make([]*sim.Resource, len(a.Platform.Cores))
	for i := range peRes {
		peRes[i] = k.NewResource("pe"+strconv.Itoa(i), 1)
	}
	fabric0 := platform.FabricStatsOf(a.Platform.Fabric)
	mem0 := platform.MemStatsOf(a.Platform.Mem)
	busy := make([]sim.Time, len(a.Platform.Cores))
	appMakespan := make([]sim.Time, len(spans))
	var makespan sim.Time
	done := 0
	var runTask func(id int)
	deliver := func(id int) {
		pending[id]--
		if pending[id] == 0 {
			runTask(id)
		}
	}
	runTask = func(id int) {
		k.Spawn(g.Tasks[id].Name, func(p *sim.Proc) {
			pe := a.TaskPE[id]
			core := a.Platform.Core(pe)
			peRes[pe].Acquire(p)
			dur := core.Cycles(g.Tasks[id].CyclesOn(core.Class))
			p.Delay(dur)
			peRes[pe].Release()
			busy[pe] += dur
			if p.Now() > makespan {
				makespan = p.Now()
			}
			if ai := appOf[id]; ai >= 0 && p.Now() > appMakespan[ai] {
				appMakespan[ai] = p.Now()
			}
			done++
			for _, oe := range v.OutEdges(id) {
				to := oe.Task
				if a.TaskPE[to] == pe {
					k.Schedule(0, func() { deliver(to) })
				} else {
					transferContended(a.Platform, pe, a.TaskPE[to], oe.Bytes, func() {
						if k.Now() > makespan {
							makespan = k.Now()
						}
						deliver(to)
					})
				}
			}
		})
	}
	for id := 0; id < n; id++ {
		if pending[id] == 0 {
			runTask(id)
		}
	}
	k.Run()
	if done != n {
		return ExecStats{}, nil, fmt.Errorf("mapping: executed %d/%d tasks (deadlock?)", done, n)
	}
	return ExecStats{
		Makespan: makespan,
		PEBusy:   busy,
		Fabric:   platform.FabricStatsOf(a.Platform.Fabric).Sub(fabric0),
		Mem:      platform.MemStatsOf(a.Platform.Mem).Sub(mem0),
	}, appMakespan, nil
}

// executePipelinedProcs is the process-based ExecutePipelined.
func executePipelinedProcs(a *Assignment, iterations int) (ExecStats, error) {
	if iterations <= 0 {
		return ExecStats{}, fmt.Errorf("mapping: iterations must be positive")
	}
	k := a.Platform.Kernel
	if k == nil {
		return ExecStats{}, fmt.Errorf("mapping: platform has no kernel")
	}
	g := a.Graph
	v := g.View()
	queues := make([]*sim.Queue, len(g.Edges)) // edge index -> token queue
	for i := range g.Edges {
		queues[i] = k.NewQueue("e"+strconv.Itoa(i), 2)
	}
	peRes := make([]*sim.Resource, len(a.Platform.Cores))
	for i := range peRes {
		peRes[i] = k.NewResource("pe"+strconv.Itoa(i), 1)
	}
	fabric0 := platform.FabricStatsOf(a.Platform.Fabric)
	mem0 := platform.MemStatsOf(a.Platform.Mem)
	busy := make([]sim.Time, len(a.Platform.Cores))
	var makespan sim.Time
	finished := 0
	for id := range g.Tasks {
		id := id
		inEdges, outEdges := v.InEdges(id), v.OutEdges(id)
		pe := a.TaskPE[id]
		core := a.Platform.Core(pe)
		cycles := g.Tasks[id].CyclesOn(core.Class)
		k.Spawn(g.Tasks[id].Name, func(p *sim.Proc) {
			for it := 0; it < iterations; it++ {
				for _, ie := range inEdges {
					queues[ie.Edge].Get(p)
				}
				peRes[pe].Acquire(p)
				dur := core.Cycles(cycles)
				p.Delay(dur)
				peRes[pe].Release()
				busy[pe] += dur
				for _, oe := range outEdges {
					if a.TaskPE[oe.Task] != pe {
						done := k.NewSignal()
						transferContended(a.Platform, pe, a.TaskPE[oe.Task], oe.Bytes, func() { done.Broadcast() })
						done.Wait(p)
					}
					queues[oe.Edge].Put(p, it)
				}
				if p.Now() > makespan {
					makespan = p.Now()
				}
			}
			finished++
		})
	}
	k.Run()
	if finished != len(g.Tasks) {
		return ExecStats{}, fmt.Errorf("mapping: pipeline stalled (%d/%d tasks finished)", finished, len(g.Tasks))
	}
	return ExecStats{
		Makespan: makespan,
		PEBusy:   busy,
		Fabric:   platform.FabricStatsOf(a.Platform.Fabric).Sub(fabric0),
		Mem:      platform.MemStatsOf(a.Platform.Mem).Sub(mem0),
	}, nil
}

// transfer is one Fabric.Transfer call: when, from and to which PE,
// and how many bytes.
type transfer struct {
	at              sim.Time
	src, dst, bytes int
}

// transferLog wraps a platform fabric and records every transfer, plus
// the kernel's live process count at the moment it was issued.
type transferLog struct {
	platform.Fabric
	k     *sim.Kernel
	sends []transfer
	live  []int
}

func (l *transferLog) Transfer(src, dst, bytes int, done func()) {
	l.sends = append(l.sends, transfer{l.k.Now(), src, dst, bytes})
	l.live = append(l.live, l.k.LiveProcs())
	l.Fabric.Transfer(src, dst, bytes, done)
}

// execScenario is one task-level execution setup. Every run builds a
// fresh platform from it, so each run starts from the same kernel,
// fabric and memory state.
type execScenario struct {
	g      *taskgraph.Graph
	spans  []taskgraph.Span
	taskPE []int
	plat   string // wireless, homog4 or celllike4
	fabric string // mesh or bus
	mem    string // a mem= token
	level  int    // DVFS level every core is pinned to, clamped per core
	iters  int    // pipelined iterations
}

func (s execScenario) String() string {
	return fmt.Sprintf("%s/%d tasks on %s fab=%s mem=%s dvfs=%d iters=%d spans=%v",
		s.g.Name, len(s.g.Tasks), s.plat, s.fabric, s.mem, s.level, s.iters, s.spans)
}

// build returns a fresh platform for s, its fabric wrapped in a
// transferLog.
func (s execScenario) build() (*platform.Platform, *transferLog) {
	k := sim.NewKernel()
	cores := map[string]int{"wireless": 6, "homog4": 4, "celllike4": 5}[s.plat]
	var fab platform.Fabric = noc.DefaultBus(k)
	if s.fabric == "mesh" {
		fab = noc.MeshFor(k, cores)
	}
	log := &transferLog{Fabric: fab, k: k}
	var plat *platform.Platform
	switch s.plat {
	case "wireless":
		plat = platform.NewWirelessTerminal(k, log)
	case "homog4":
		plat = platform.NewHomogeneous(k, 4, 1_000_000_000, log)
	case "celllike4":
		plat = platform.NewCellLike(k, 4, log)
	default:
		panic("unknown platform " + s.plat)
	}
	for _, c := range plat.Cores {
		if err := c.SetLevel(min(s.level, len(c.Levels)-1)); err != nil {
			panic(err)
		}
	}
	ms, err := mem.ParseSpec(s.mem)
	if err != nil {
		panic(err)
	}
	access, bpns := plat.MemTiming()
	plat.Mem = ms.Build(access, bpns)
	return plat, log
}

// assignRandomly gives every task a random capable PE; it reports
// false when some task has none on s's platform.
func (s *execScenario) assignRandomly(r *xrand.Rand) bool {
	plat, _ := s.build()
	s.taskPE = make([]int, len(s.g.Tasks))
	for id, task := range s.g.Tasks {
		var capable []int
		for _, c := range plat.Cores {
			if task.CanRunOn(c.Class) {
				capable = append(capable, c.ID)
			}
		}
		if len(capable) == 0 {
			return false
		}
		s.taskPE[id] = capable[r.Intn(len(capable))]
	}
	return true
}

// execTrace is everything one run exposes: its results, the kernel's
// event counts and the transfers it issued, in order.
type execTrace struct {
	Stats     ExecStats
	Apps      []sim.Time
	Err       string
	Executed  uint64
	Scheduled uint64
	Sends     []transfer
}

type execFunc func(a *Assignment) (ExecStats, []sim.Time, error)

func (s execScenario) run(exec execFunc) execTrace {
	plat, log := s.build()
	stats, apps, err := exec(&Assignment{Graph: s.g, Platform: plat, TaskPE: s.taskPE})
	tr := execTrace{
		Stats: stats, Apps: apps,
		Executed: plat.Kernel.Executed, Scheduled: plat.Kernel.Stats().Scheduled,
		Sends: log.sends,
	}
	if err != nil {
		tr.Err = err.Error()
	}
	return tr
}

// entryPoints pairs each task-level entry point with its oracle.
func (s execScenario) entryPoints() []struct {
	name      string
	got, want execFunc
} {
	statsOnly := func(f func(*Assignment) (ExecStats, error)) execFunc {
		return func(a *Assignment) (ExecStats, []sim.Time, error) {
			st, err := f(a)
			return st, nil, err
		}
	}
	return []struct {
		name      string
		got, want execFunc
	}{
		{"Execute", statsOnly(Execute), statsOnly(func(a *Assignment) (ExecStats, error) {
			st, _, err := executeSpansProcs(a, nil)
			return st, err
		})},
		{"ExecuteMulti",
			func(a *Assignment) (ExecStats, []sim.Time, error) { return ExecuteMulti(a, s.spans) },
			func(a *Assignment) (ExecStats, []sim.Time, error) { return executeSpansProcs(a, s.spans) }},
		{"ExecutePipelined",
			statsOnly(func(a *Assignment) (ExecStats, error) { return ExecutePipelined(a, s.iters) }),
			statsOnly(func(a *Assignment) (ExecStats, error) { return executePipelinedProcs(a, s.iters) })},
	}
}

// checkOracle runs s through every entry point and its oracle and
// reports the first divergence.
func (s execScenario) checkOracle() error {
	for _, ep := range s.entryPoints() {
		got, want := s.run(ep.got), s.run(ep.want)
		if want.Err != "" {
			return fmt.Errorf("%s oracle failed on %v: %s", ep.name, s, want.Err)
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s diverged from its oracle on %v:\n got %+v\nwant %+v", ep.name, s, got, want)
		}
	}
	return nil
}

// randomScenario draws a scenario: a synthetic DAG, a small DAG with
// zero-byte edges, or a union of applications with spans, on a random
// platform, fabric, memory model, DVFS level and iteration count, with
// a random capable assignment. It reports false when the graph cannot
// run on the drawn platform.
func randomScenario(seed uint64) (execScenario, bool) {
	r := xrand.New(seed)
	s := execScenario{
		plat:   []string{"wireless", "homog4", "celllike4"}[r.Intn(3)],
		fabric: []string{"mesh", "bus"}[r.Intn(2)],
		mem:    []string{"ideal", "bank:4x2", "bw:8"}[r.Intn(3)],
		level:  r.Intn(3),
		iters:  1 + r.Intn(8),
	}
	switch r.Intn(3) {
	case 0:
		s.g = workload.SyntheticTaskGraph(2+r.Intn(23), r.Uint64())
	case 1:
		tasks := make([]uint8, 1+r.Intn(8))
		for i := range tasks {
			tasks[i] = uint8(r.Intn(256))
		}
		edges := make([]uint16, r.Intn(13))
		for i := range edges {
			edges[i] = uint16(r.Intn(1 << 16))
		}
		s.g = randomDAGBytes(tasks, edges, 0)
	default:
		apps := []*taskgraph.Graph{workload.JPEGTaskGraph(), workload.CarRadioTaskGraph()}
		for i := r.Intn(3); i > 0; i-- {
			apps = append(apps, workload.SyntheticTaskGraph(2+r.Intn(10), r.Uint64()))
		}
		s.g, s.spans = taskgraph.Union("union", apps...)
	}
	return s, s.assignRandomly(r)
}

// TestExecuteMatchesProcOracle: the callback state machines behind
// Execute, ExecuteMulti and ExecutePipelined reproduce their
// process-based oracles exactly — equal ExecStats, per-application
// makespans, kernel event counts and transfer streams — on random
// graphs, assignments, platforms, fabrics, memory models, DVFS levels
// and iteration counts.
func TestExecuteMatchesProcOracle(t *testing.T) {
	count := 300
	if testing.Short() {
		count = 40
	}
	ran := 0
	f := func(seed uint64) bool {
		s, ok := randomScenario(seed)
		if !ok {
			return true
		}
		ran++
		if err := s.checkOracle(); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err)
	}
	if ran < count/2 {
		t.Fatalf("only %d of %d random scenarios were runnable", ran, count)
	}
}

// TestExecuteMatchesProcOracleEdgeCases pins the oracle equivalence on
// the shapes random draws rarely hit, on every fabric and memory
// model.
func TestExecuteMatchesProcOracleEdgeCases(t *testing.T) {
	const fast, slow = 1_000, 1_000_000
	// A fast producer feeding a slow consumer on another PE: the
	// depth-2 FIFO fills and the producer blocks on Put.
	prodCons := taskgraph.NewGraph("prodcons")
	prod := prodCons.AddTask(&taskgraph.Task{Name: "prod", WCET: map[platform.PEClass]int64{platform.RISC: fast}})
	cons := prodCons.AddTask(&taskgraph.Task{Name: "cons", WCET: map[platform.PEClass]int64{platform.RISC: slow}})
	prodCons.Connect(prod, cons, 64, "")
	// Zero-byte edges, local and cross-PE.
	zero := chainGraph(4, 200_000, 0)
	synth := workload.SyntheticTaskGraph(16, 5)
	union, spans := taskgraph.Union("union", workload.JPEGTaskGraph(), workload.CarRadioTaskGraph())
	cases := []struct {
		name   string
		g      *taskgraph.Graph
		spans  []taskgraph.Span
		taskPE []int
	}{
		{"single task", chainGraph(1, 300_000, 0), nil, []int{0}},
		{"all on one PE", synth, nil, make([]int, len(synth.Tasks))},
		{"union all on one PE", union, spans, make([]int, len(union.Tasks))},
		{"fast producer, slow consumer", prodCons, nil, []int{0, 1}},
		{"zero-byte edges", zero, nil, []int{0, 1, 1, 2}},
	}
	for _, c := range cases {
		for _, fab := range []string{"mesh", "bus"} {
			for _, m := range []string{"ideal", "bank:4x2", "bw:8"} {
				s := execScenario{g: c.g, spans: c.spans, taskPE: c.taskPE,
					plat: "homog4", fabric: fab, mem: m, level: 1, iters: 8}
				if err := s.checkOracle(); err != nil {
					t.Errorf("%s: %v", c.name, err)
				}
			}
		}
	}
	// The back-pressure case must actually bind: unthrottled, the
	// producer would issue all 8 sends within 8 fast periods; with a
	// depth-2 FIFO its last send waits for the consumer's fourth
	// iteration.
	s := execScenario{g: prodCons, taskPE: []int{0, 1}, plat: "homog4", fabric: "mesh", mem: "ideal", level: 1, iters: 8}
	tr := s.run(s.entryPoints()[2].got)
	if last := tr.Sends[len(tr.Sends)-1].at; last < 3*slow*sim.Nanosecond {
		t.Fatalf("last producer send at %v: the FIFO back-pressure did not bind", last)
	}
}

// TestExecuteRunsNoProcess: task-level execution runs as kernel
// callbacks, so no sim.Proc is live when a task issues a transfer —
// with process-based execution the sending task's own process is.
func TestExecuteRunsNoProcess(t *testing.T) {
	g, spans := taskgraph.Union("union", workload.JPEGTaskGraph(), workload.CarRadioTaskGraph())
	s := execScenario{g: g, spans: spans, plat: "wireless", fabric: "mesh", mem: "bank:4x2", level: 1, iters: 4}
	plat, _ := s.build()
	a, err := Map(g, plat, Options{Heuristic: List})
	if err != nil {
		t.Fatal(err)
	}
	s.taskPE = a.TaskPE
	for _, ep := range s.entryPoints() {
		plat, log := s.build()
		if _, _, err := ep.got(&Assignment{Graph: g, Platform: plat, TaskPE: s.taskPE}); err != nil {
			t.Fatalf("%s: %v", ep.name, err)
		}
		if len(log.live) == 0 {
			t.Fatalf("%s issued no transfer; the check is vacuous", ep.name)
		}
		for i, n := range log.live {
			if n != 0 {
				t.Fatalf("%s: %d live processes at transfer %d", ep.name, n, i)
			}
		}
	}
}
