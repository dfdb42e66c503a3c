package sim

import "fmt"

// Proc is a simulation process: a goroutine that runs in strict
// lock-step handoff with the kernel, so that at any instant at most
// one process body (or event handler) executes. This gives
// sequential, deterministic semantics to model code written in a
// blocking style (Delay, Wait, channel Get/Put) — the programming
// model section II-C of the paper argues for: internally sequential
// components communicating asynchronously.
//
// The handoff uses one single-token buffered channel per direction:
// each side deposits a token (a buffered send that never blocks,
// because strict alternation guarantees the buffer is empty) and then
// blocks receiving the other side's token. That is two channel
// operations per transfer of control instead of the four a pair of
// unbuffered rendezvous would cost. A handoff still costs far more
// than a callback event: on the task-level sweep (2-vCPU Xeon,
// go1.24) task-level execution cost 964 ns per kernel event while it
// ran its tasks as processes, and 176 ns once they ran as Schedule
// callbacks. Proc is for blocking-style models that need a
// call stack across suspensions (the virtual platform's cores, TTDD,
// CIC, OSIP, DMA); task-level execution (mapping.Execute and friends)
// and the RTOS dispatchers use callbacks.
type Proc struct {
	Name   string
	k      *Kernel
	resume chan struct{}
	yield  chan struct{}
	dead   bool
}

// Spawn starts body as a new process at the current virtual time.
// The body begins executing when the kernel dispatches its activation
// event, not immediately.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	return k.SpawnAfter(name, 0, body)
}

// SpawnAfter starts body as a new process after the given delay.
func (k *Kernel) SpawnAfter(name string, delay Time, body func(p *Proc)) *Proc {
	p := &Proc{
		Name:   name,
		k:      k,
		resume: make(chan struct{}, 1),
		yield:  make(chan struct{}, 1),
	}
	k.procs++
	go func() {
		<-p.resume
		defer func() {
			p.dead = true
			p.k.procs--
			// A panic in the body is a model bug: crash loudly, naming
			// the process, rather than hang the kernel.
			if r := recover(); r != nil {
				panic(fmt.Sprintf("sim: process %q panicked: %v", p.Name, r))
			}
			p.yield <- struct{}{}
		}()
		body(p)
	}()
	k.ScheduleProc(delay, 0, p)
	return p
}

// run transfers control to the process and blocks until it parks
// again (in Delay/Wait/…) or terminates.
func (p *Proc) run() {
	if p.dead {
		return
	}
	p.resume <- struct{}{}
	<-p.yield
}

// park gives control back to the kernel and blocks until resumed.
func (p *Proc) park() {
	p.yield <- struct{}{}
	<-p.resume
}

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.Now() }

// Delay suspends the process for d units of virtual time.
func (p *Proc) Delay(d Time) {
	if d < 0 {
		panic("sim: negative delay")
	}
	p.k.ScheduleProc(d, 0, p)
	p.park()
}

// DelayP suspends like Delay but wakes with the given event priority,
// controlling ordering against same-time events.
func (p *Proc) DelayP(d Time, prio int) {
	if d < 0 {
		panic("sim: negative delay")
	}
	p.k.ScheduleProc(d, prio, p)
	p.park()
}

// LiveProcs returns the number of processes that have been spawned and
// have not yet terminated. Useful for leak checks in tests.
func (k *Kernel) LiveProcs() int { return k.procs }

// wakeAll schedules a zero-delay closure-free wake-up for every
// process on list, then truncates the list in place so its backing
// array is reused by the next round of waiters (no steady-state
// allocation). Shared by Signal.Broadcast, Queue and Resource.
func (k *Kernel) wakeAll(list *[]*Proc) {
	for _, p := range *list {
		k.ScheduleProc(0, 0, p)
	}
	*list = (*list)[:0]
}

// Signal is a broadcast wake-up point for processes (a condition
// variable in virtual time).
type Signal struct {
	k       *Kernel
	waiters []*Proc
	// Fires counts how many times the signal has been raised.
	Fires uint64
}

// NewSignal returns a signal bound to kernel k.
func (k *Kernel) NewSignal() *Signal { return &Signal{k: k} }

// Wait parks the process until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.park()
}

// Broadcast wakes all waiting processes at the current time, in the
// order they started waiting. The wake-ups go through the kernel's
// closure-free ScheduleProc path and the waiter slice's backing array
// is retained, so a steady broadcast/re-wait cycle does not allocate.
func (s *Signal) Broadcast() {
	s.Fires++
	s.k.wakeAll(&s.waiters)
}

// Waiters returns the number of processes currently waiting.
func (s *Signal) Waiters() int { return len(s.waiters) }
