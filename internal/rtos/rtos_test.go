package rtos

import (
	"testing"

	"mpsockit/internal/noc"
	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
)

// mixedPlatform: nTS time-shared + nSS space-shared 1 GHz cores.
func mixedPlatform(k *sim.Kernel, nTS, nSS int) *platform.Platform {
	p := platform.NewHomogeneous(k, nTS+nSS, 1_000_000_000, noc.MeshFor(k, nTS+nSS))
	for i := 0; i < nTS; i++ {
		p.Cores[i].SpaceShared = false
	}
	return p
}

func TestSequentialJobCompletes(t *testing.T) {
	k := sim.NewKernel()
	s := NewHybrid(k, mixedPlatform(k, 1, 1), DefaultConfig())
	j := &Job{Name: "seq", Kind: Sequential, WorkCycles: 1_000_000} // 1ms at 1GHz
	s.Submit(j)
	k.RunUntil(100 * sim.Millisecond)
	if j.Finished == 0 {
		t.Fatal("job did not finish")
	}
	// 1ms of work plus a couple of context switches.
	if j.Finished < sim.Millisecond || j.Finished > 2*sim.Millisecond {
		t.Fatalf("finish at %v, want ~1ms", j.Finished)
	}
}

func TestQuantumSharing(t *testing.T) {
	// Two equal sequential jobs on one TS core should finish close
	// together (round-robin), not strictly one after the other.
	k := sim.NewKernel()
	s := NewHybrid(k, mixedPlatform(k, 1, 1), DefaultConfig())
	a := &Job{Name: "a", Kind: Sequential, WorkCycles: 2_000_000}
	b := &Job{Name: "b", Kind: Sequential, WorkCycles: 2_000_000}
	s.Submit(a)
	s.Submit(b)
	k.RunUntil(100 * sim.Millisecond)
	if a.Finished == 0 || b.Finished == 0 {
		t.Fatal("jobs did not finish")
	}
	gap := b.Finished - a.Finished
	if gap < 0 {
		gap = -gap
	}
	// With 0.5ms quanta over 2ms jobs, the finish gap is at most about
	// one quantum plus switch overhead.
	if gap > sim.Millisecond {
		t.Fatalf("finish gap %v too large for round-robin", gap)
	}
}

func TestEDFOrdering(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.Quantum = 10 * sim.Millisecond // effectively run-to-completion
	s := NewHybrid(k, mixedPlatform(k, 1, 1), cfg)
	late := &Job{Name: "late", Kind: Sequential, WorkCycles: 1_000_000, Deadline: 50 * sim.Millisecond}
	urgent := &Job{Name: "urgent", Kind: Sequential, WorkCycles: 1_000_000, Deadline: 3 * sim.Millisecond}
	s.Submit(late)
	s.Submit(urgent)
	k.RunUntil(100 * sim.Millisecond)
	if urgent.Finished > late.Finished {
		t.Fatal("EDF should run the urgent job first")
	}
	if urgent.Missed {
		t.Fatalf("urgent job missed: finished %v", urgent.Finished)
	}
}

func TestParallelGangAllocation(t *testing.T) {
	k := sim.NewKernel()
	s := NewHybrid(k, mixedPlatform(k, 1, 8), DefaultConfig())
	j := &Job{Name: "par", Kind: Parallel, WorkCycles: 8_000_000, MaxWidth: 8,
		Deadline: 2 * sim.Millisecond}
	s.Submit(j)
	k.RunUntil(50 * sim.Millisecond)
	if j.Finished == 0 {
		t.Fatal("parallel job did not finish")
	}
	if j.Width < 4 {
		t.Fatalf("tight deadline should get wide grant, got %d", j.Width)
	}
	if j.Missed {
		t.Fatalf("missed deadline with %d cores", j.Width)
	}
}

func TestMoldableMinimalGrant(t *testing.T) {
	// A loose deadline should be satisfied with few cores, leaving the
	// pool free for others (reactive mitigation of competing requests).
	k := sim.NewKernel()
	s := NewHybrid(k, mixedPlatform(k, 1, 8), DefaultConfig())
	j := &Job{Name: "lazy", Kind: Parallel, WorkCycles: 1_000_000, MaxWidth: 8,
		Deadline: 100 * sim.Millisecond}
	s.Submit(j)
	k.RunUntil(200 * sim.Millisecond)
	if j.Width != 1 {
		t.Fatalf("loose deadline granted width %d, want 1", j.Width)
	}
	if j.Missed {
		t.Fatal("missed loose deadline")
	}
}

func TestReactiveBoost(t *testing.T) {
	// A deadline impossible at nominal frequency but feasible at boost
	// must trigger the DVFS response of section II-B.
	k := sim.NewKernel()
	s := NewHybrid(k, mixedPlatform(k, 1, 2), DefaultConfig())
	// 2 cores * 1GHz nominal: 4M cycles across 2 cores = 2ms at
	// nominal, 1ms at 2x boost. Deadline 1.3ms needs the boost.
	j := &Job{Name: "hot", Kind: Parallel, WorkCycles: 4_000_000, MaxWidth: 2,
		Deadline: 1300 * sim.Microsecond}
	s.Submit(j)
	k.RunUntil(50 * sim.Millisecond)
	if !j.Boosted {
		t.Fatal("scheduler did not boost for tight deadline")
	}
	if j.Missed {
		t.Fatalf("missed even with boost: finished %v", j.Finished)
	}
	if s.Stats().Boosts != 1 {
		t.Fatalf("boost count %d", s.Stats().Boosts)
	}
	// Cores must be back at nominal afterwards.
	for _, c := range s.P.Cores {
		if c.SpaceShared && c.Hz() != 1_000_000_000 {
			t.Fatalf("core %s left at %d Hz", c.Name, c.Hz())
		}
	}
}

func TestCompetingParallelJobs(t *testing.T) {
	k := sim.NewKernel()
	s := NewHybrid(k, mixedPlatform(k, 1, 4), DefaultConfig())
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j := &Job{Name: "p", Kind: Parallel, WorkCycles: 2_000_000, MaxWidth: 4,
			Deadline: k.Now() + 20*sim.Millisecond}
		jobs = append(jobs, j)
		s.Submit(j)
	}
	k.RunUntil(100 * sim.Millisecond)
	st := s.Stats()
	if st.Completed != 4 {
		t.Fatalf("completed %d/4", st.Completed)
	}
	if st.Missed != 0 {
		t.Fatalf("%d misses with generous deadlines", st.Missed)
	}
}

func TestBestEffortRunsEventually(t *testing.T) {
	k := sim.NewKernel()
	s := NewHybrid(k, mixedPlatform(k, 1, 2), DefaultConfig())
	be := &Job{Name: "be", Kind: Parallel, WorkCycles: 500_000, MaxWidth: 2}
	s.Submit(be)
	k.RunUntil(50 * sim.Millisecond)
	if be.Finished == 0 {
		t.Fatal("best-effort job starved with free pool")
	}
	if be.Width != 1 {
		t.Fatalf("best-effort width %d, want minimal grant 1", be.Width)
	}
}

func TestOverloadReportsMisses(t *testing.T) {
	k := sim.NewKernel()
	s := NewHybrid(k, mixedPlatform(k, 1, 2), DefaultConfig())
	// 6 jobs each needing 2 cores for 1ms, all due at 2ms: impossible.
	for i := 0; i < 6; i++ {
		s.Submit(&Job{Name: "x", Kind: Parallel, WorkCycles: 2_000_000, MaxWidth: 2,
			Deadline: 2 * sim.Millisecond})
	}
	k.RunUntil(100 * sim.Millisecond)
	st := s.Stats()
	if st.Completed != 6 {
		t.Fatalf("completed %d/6", st.Completed)
	}
	if st.Missed == 0 {
		t.Fatal("overload produced no misses — model broken")
	}
	if st.MaxLateness <= 0 {
		t.Fatal("max lateness not tracked")
	}
}

func TestUtilizationBounded(t *testing.T) {
	k := sim.NewKernel()
	s := NewHybrid(k, mixedPlatform(k, 1, 3), DefaultConfig())
	for i := 0; i < 10; i++ {
		s.Submit(&Job{Kind: Parallel, WorkCycles: 1_000_000, MaxWidth: 2,
			Deadline: 30 * sim.Millisecond})
	}
	k.RunUntil(50 * sim.Millisecond)
	u := s.Utilization()
	if u <= 0 || u > 1 {
		t.Fatalf("utilization %g out of (0,1]", u)
	}
}

func TestStatsTurnaround(t *testing.T) {
	k := sim.NewKernel()
	s := NewHybrid(k, mixedPlatform(k, 1, 1), DefaultConfig())
	s.Submit(&Job{Kind: Sequential, WorkCycles: 1_000_000})
	k.RunUntil(10 * sim.Millisecond)
	if s.Stats().AvgTurnMs <= 0 {
		t.Fatal("turnaround not computed")
	}
}

// TestCloseUnwindsDispatchers: after the bag drains, the time-shared
// dispatchers still wait for work; Close unwinds them, both when they
// are idle and when one is mid-slice, so the kernel can be Reset.
func TestCloseUnwindsDispatchers(t *testing.T) {
	for _, until := range []sim.Time{100 * sim.Millisecond, 300 * sim.Microsecond} {
		k := sim.NewKernel()
		s := NewHybrid(k, mixedPlatform(k, 2, 2), DefaultConfig())
		s.Submit(&Job{Name: "seq", Kind: Sequential, WorkCycles: 1_000_000})
		s.Submit(&Job{Name: "par", Kind: Parallel, MaxWidth: 2, WorkCycles: 1_000_000})
		k.RunUntil(until)
		if k.LiveProcs() != 2 {
			t.Fatalf("run until %v: %d live processes before Close, want the 2 dispatchers", until, k.LiveProcs())
		}
		s.Close()
		if n := k.LiveProcs(); n != 0 {
			t.Fatalf("run until %v: %d live processes after Close", until, n)
		}
		k.Reset() // panics on live processes
	}
}
