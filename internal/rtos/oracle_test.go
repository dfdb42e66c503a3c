package rtos

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"mpsockit/internal/platform"
	"mpsockit/internal/sim"
)

// procScheduler is the reference model for the time-shared side: the
// dispatcher written as one blocking-style sim.Proc per time-shared
// core, woken by a Signal on every sequential Submit, as the scheduler
// was before its dispatchers became kernel callbacks. Everything else
// (queues, the space-shared side, statistics) is HybridScheduler's own.
type procScheduler struct {
	*HybridScheduler
	wake    *sim.Signal
	closing bool
}

func newProcScheduler(k *sim.Kernel, p *platform.Platform, cfg Config) *procScheduler {
	s := &HybridScheduler{K: k, P: p, Cfg: cfg}
	for _, c := range p.Cores {
		if c.SpaceShared {
			s.ssFree = append(s.ssFree, c)
		} else {
			s.tsCores = append(s.tsCores, c)
		}
	}
	if len(s.tsCores) == 0 && len(s.ssFree) > 0 {
		s.tsCores = append(s.tsCores, s.ssFree[0])
		s.ssFree = s.ssFree[1:]
	}
	o := &procScheduler{HybridScheduler: s, wake: k.NewSignal()}
	for _, c := range s.tsCores {
		o.spawnTimeShared(c)
	}
	return o
}

// Submit is HybridScheduler.Submit, which finds no idle callback
// dispatcher to wake here, plus the process wake-up.
func (o *procScheduler) Submit(j *Job) {
	o.HybridScheduler.Submit(j)
	if j.Kind == Sequential {
		o.wake.Broadcast()
	}
}

func (o *procScheduler) spawnTimeShared(c *platform.Core) {
	s := o.HybridScheduler
	s.K.Spawn("ts-"+c.Name, func(p *sim.Proc) {
		for {
			for len(s.tsReady) == 0 {
				if o.closing {
					return
				}
				o.wake.Wait(p)
			}
			j := s.tsReady[0]
			s.tsReady = s.tsReady[1:]
			if j.Started == 0 {
				j.Started = p.Now()
			}
			p.Delay(s.Cfg.CtxSwitch)
			slice := c.TimeToCycles(s.Cfg.Quantum)
			run := j.WorkCycles
			if run > slice {
				run = slice
			}
			dur := c.Cycles(run)
			p.Delay(dur)
			s.stats.BusyTime += dur
			j.WorkCycles -= run
			if j.WorkCycles <= 0 {
				s.complete(j)
			} else {
				s.enqueueTS(j)
			}
		}
	})
}

// close lets the idle dispatcher processes return.
func (o *procScheduler) close() {
	o.closing = true
	o.wake.Broadcast()
	o.K.Run()
}

// bag is a random scheduling scenario: core pools with per-core DVFS
// levels, a scheduler configuration, and jobs each submitted either
// directly before the run or from a kernel event at a given time.
type bag struct {
	nTS, nSS int
	levels   []int
	cfg      Config
	jobs     []Job
	at       []sim.Time // submit time; -1 submits before the run starts
}

func randomBag(r *rand.Rand) bag {
	b := bag{nTS: 1 + r.Intn(3), nSS: r.Intn(5), cfg: DefaultConfig()}
	for i := 0; i < b.nTS+b.nSS; i++ {
		b.levels = append(b.levels, r.Intn(3))
	}
	b.cfg.BoostWhenTight = r.Intn(2) == 0
	b.cfg.Quantum = sim.Time(50+r.Intn(1000)) * sim.Microsecond
	b.cfg.CtxSwitch = sim.Time(r.Intn(4)) * sim.Microsecond
	seqShare := r.Float64()
	for i, n := 0, 1+r.Intn(24); i < n; i++ {
		j := Job{Kind: Parallel, WorkCycles: 100_000 + r.Int63n(4_000_000), MaxWidth: r.Intn(5)}
		if r.Float64() < seqShare {
			j.Kind = Sequential
		}
		at := sim.Time(-1)
		if r.Intn(2) == 0 {
			at = sim.Time(r.Int63n(int64(10 * sim.Millisecond)))
		}
		if r.Intn(2) == 0 {
			j.Deadline = max(at, 0) + sim.Time(r.Int63n(int64(20*sim.Millisecond)))
		}
		b.jobs = append(b.jobs, j)
		b.at = append(b.at, at)
	}
	return b
}

// play runs the bag on a fresh kernel, through the callback scheduler
// or through the process oracle. It returns the kernel, the scheduler,
// the submitted jobs, and a func that lets the oracle's idle processes
// exit once the results have been read.
func (b bag) play(oracle bool) (*sim.Kernel, *HybridScheduler, []*Job, func()) {
	k := sim.NewKernel()
	p := mixedPlatform(k, b.nTS, b.nSS)
	for i, c := range p.Cores {
		if err := c.SetLevel(b.levels[i]); err != nil {
			panic(err)
		}
		c.SetNominal()
	}
	var (
		s      *HybridScheduler
		submit func(*Job)
		done   = func() {}
	)
	if oracle {
		o := newProcScheduler(k, p, b.cfg)
		s, submit, done = o.HybridScheduler, o.Submit, o.close
	} else {
		s = NewHybrid(k, p, b.cfg)
		submit = s.Submit
	}
	jobs := make([]*Job, len(b.jobs))
	for i := range b.jobs {
		j := b.jobs[i]
		jobs[i] = &j
		if b.at[i] < 0 {
			submit(&j)
		} else {
			k.Schedule(b.at[i], func() { submit(&j) })
		}
	}
	k.Run()
	return k, s, jobs, done
}

// TestCallbackDispatchersMatchProcessOracle: on random bags the
// callback dispatchers reproduce the process-based dispatchers exactly
// — every job's schedule, the statistics, the utilization, the number
// of kernel events and the final clock.
func TestCallbackDispatchersMatchProcessOracle(t *testing.T) {
	check := func(seed int64) bool {
		b := randomBag(rand.New(rand.NewSource(seed)))
		k, s, jobs, _ := b.play(false)
		ko, so, jo, done := b.play(true)
		defer done()
		if k.LiveProcs() != 0 {
			t.Logf("seed %d: %d live processes", seed, k.LiveProcs())
			return false
		}
		for i, j := range jobs {
			o := jo[i]
			if j.ID != o.ID || j.Arrival != o.Arrival || j.Started != o.Started || j.Finished != o.Finished ||
				j.Width != o.Width || j.Boosted != o.Boosted || j.Missed != o.Missed {
				t.Logf("seed %d: job %d = %+v, oracle %+v", seed, i, *j, *o)
				return false
			}
		}
		if s.Stats() != so.Stats() || s.Utilization() != so.Utilization() {
			t.Logf("seed %d: stats %+v util %g, oracle %+v util %g",
				seed, s.Stats(), s.Utilization(), so.Stats(), so.Utilization())
			return false
		}
		if k.Executed != ko.Executed || k.Now() != ko.Now() {
			t.Logf("seed %d: %d events to %v, oracle %d events to %v",
				seed, k.Executed, k.Now(), ko.Executed, ko.Now())
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestInsertEDFMatchesStableSort: inserting by binary search keeps a
// queue in exactly the order the append-and-stable-sort it replaced
// produced, across random mixes of enqueues and pops.
func TestInsertEDFMatchesStableSort(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := &HybridScheduler{}
		var got, want []*Job
		for op := 0; op < 64; op++ {
			if len(got) > 0 && r.Intn(3) == 0 {
				got, want = got[1:], want[1:]
				continue
			}
			j := &Job{}
			if r.Intn(3) > 0 {
				j.Deadline = sim.Time(1 + r.Intn(5)) // few distinct deadlines: many ties
			}
			got = s.insertEDF(got, j)
			want = append(want, j)
			sort.SliceStable(want, func(a, b int) bool {
				da, db := want[a].Deadline, want[b].Deadline
				if da == 0 {
					da = sim.Forever
				}
				if db == 0 {
					db = sim.Forever
				}
				if da != db {
					return da < db
				}
				return want[a].qseq < want[b].qseq
			})
			if !slices.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
