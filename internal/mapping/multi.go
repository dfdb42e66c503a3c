package mapping

import (
	"fmt"

	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
	"mpsockit/internal/taskgraph"
)

// Multi-application execution: a union graph (taskgraph.Union)
// composes several applications' DAGs into one mappable graph, the
// Evaluator machinery maps it like any other graph — candidate
// scoring stays on the zero-allocation hot path, the union is just a
// bigger DAG — and ExecuteMulti runs the mapped scenario with every
// application active at once, reporting per-application makespans on
// top of the aggregate ExecStats.

// ExecuteMulti runs the assignment exactly like Execute — the same
// event-driven platform model of kernel-callback task state machines,
// fabric contention and aggregate stats (both share one
// implementation, executeSpans) — and additionally measures each
// application's own makespan, where spans are the union graph's
// per-application task-ID ranges (taskgraph.Union's second result).
// An application's makespan is the completion time of its last task
// while competing with every other application for cores and fabric,
// which is the per-app number a real-time requirement is checked
// against.
func ExecuteMulti(a *Assignment, spans []taskgraph.Span) (ExecStats, []sim.Time, error) {
	n := len(a.Graph.Tasks)
	claimed := make([]int, n)
	for i := range claimed {
		claimed[i] = -1
	}
	for ai, s := range spans {
		if s.Lo < 0 || s.Hi > n || s.Lo > s.Hi {
			return ExecStats{}, nil, fmt.Errorf("mapping: span %d (%d..%d) outside graph of %d tasks", ai, s.Lo, s.Hi, n)
		}
		for id := s.Lo; id < s.Hi; id++ {
			if claimed[id] >= 0 {
				return ExecStats{}, nil, fmt.Errorf("mapping: task %d claimed by spans %d and %d", id, claimed[id], ai)
			}
			claimed[id] = ai
		}
	}
	return executeSpans(a, spans)
}

// Phases of a one-shot task's state machine.
const (
	taskInputs  = iota // counting input arrivals
	taskAcquire        // activated; waiting for the PE
	taskCompute        // computing; the next call is the finish
)

// executeSpans is the shared execution core behind Execute and
// ExecuteMulti: event-driven one-shot execution with genuine fabric
// contention, plus per-span makespan tracking when spans are given.
// Span tracking adds no kernel events, so both entry points produce
// identical event streams and stats for the same assignment.
//
// Each task is one kernel callback, step[id], stepping through its
// phases: every input arrival (a same-PE hand-over event or a
// cross-PE transfer's completion) calls it once, the last arrival
// schedules its activation, and the activation either takes the PE
// and schedules the finish or parks until the PE is released. A
// finishing task schedules nothing for itself.
func executeSpans(a *Assignment, spans []taskgraph.Span) (ExecStats, []sim.Time, error) {
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
	pes := newPELocks(len(a.Platform.Cores))
	fabric0 := platform.FabricStatsOf(a.Platform.Fabric)
	mem0 := platform.MemStatsOf(a.Platform.Mem)
	busy := make([]sim.Time, len(a.Platform.Cores))
	appMakespan := make([]sim.Time, len(spans))
	var makespan sim.Time
	done := 0
	phase := make([]int, n)
	pending := make([]int, n) // unarrived inputs
	dur := make([]sim.Time, n)
	step := make([]func(), n)
	for id := range step {
		pe := a.TaskPE[id]
		step[id] = func() {
			switch phase[id] {
			case taskInputs:
				// An arrival; only a cross-PE one can end past the
				// makespan.
				if k.Now() > makespan {
					makespan = k.Now()
				}
				if pending[id]--; pending[id] == 0 {
					phase[id] = taskAcquire
					k.Schedule(0, step[id])
				}
			case taskAcquire:
				if !pes.acquire(pe, step[id]) {
					return
				}
				core := a.Platform.Core(pe)
				dur[id] = core.Cycles(g.Tasks[id].CyclesOn(core.Class))
				phase[id] = taskCompute
				k.Schedule(dur[id], step[id])
			case taskCompute:
				pes.release(k, pe)
				busy[pe] += dur[id]
				now := k.Now()
				if now > makespan {
					makespan = now
				}
				if ai := appOf[id]; ai >= 0 && now > appMakespan[ai] {
					appMakespan[ai] = now
				}
				done++
				for _, oe := range v.OutEdges(id) {
					if to := a.TaskPE[oe.Task]; to == pe {
						k.Schedule(0, step[oe.Task])
					} else {
						transferContended(a.Platform, pe, to, oe.Bytes, step[oe.Task])
					}
				}
			}
		}
		if pending[id] = len(v.InEdges(id)); pending[id] == 0 {
			phase[id] = taskAcquire
		}
	}
	for id := range step {
		if pending[id] == 0 {
			k.Schedule(0, step[id])
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
