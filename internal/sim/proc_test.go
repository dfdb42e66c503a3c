package sim

import "testing"

func TestProcDelay(t *testing.T) {
	k := NewKernel()
	var times []Time
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Delay(10 * Nanosecond)
			times = append(times, p.Now())
		}
	})
	k.Run()
	want := []Time{10 * Nanosecond, 20 * Nanosecond, 30 * Nanosecond}
	if len(times) != 3 {
		t.Fatalf("got %d wakeups, want 3", len(times))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("wakeup %d at %v, want %v", i, times[i], want[i])
		}
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("%d processes leaked", k.LiveProcs())
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var log []string
		k.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Delay(10 * Nanosecond)
				log = append(log, "a")
			}
		})
		k.Spawn("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Delay(10 * Nanosecond)
				log = append(log, "b")
			}
		})
		k.Run()
		return log
	}
	first := run()
	for trial := 0; trial < 10; trial++ {
		got := run()
		if len(got) != len(first) {
			t.Fatalf("nondeterministic length: %v vs %v", got, first)
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("nondeterministic interleaving at %d: %v vs %v", i, got, first)
			}
		}
	}
	// Spawn order a-then-b must be preserved at equal timestamps.
	if first[0] != "a" || first[1] != "b" {
		t.Fatalf("spawn order not respected: %v", first)
	}
}

func TestSpawnAfter(t *testing.T) {
	k := NewKernel()
	var at Time = -1
	k.SpawnAfter("late", 5*Microsecond, func(p *Proc) { at = p.Now() })
	k.Run()
	if at != 5*Microsecond {
		t.Fatalf("late proc started at %v, want 5us", at)
	}
}

func TestSignalBroadcast(t *testing.T) {
	k := NewKernel()
	s := k.NewSignal()
	var woke []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			s.Wait(p)
			woke = append(woke, name)
		})
	}
	k.Schedule(100*Nanosecond, func() { s.Broadcast() })
	k.Run()
	if len(woke) != 3 {
		t.Fatalf("woke %d, want 3", len(woke))
	}
	for i, want := range []string{"w1", "w2", "w3"} {
		if woke[i] != want {
			t.Fatalf("wake order %v, want FIFO", woke)
		}
	}
	if s.Fires != 1 {
		t.Fatalf("signal fires = %d, want 1", s.Fires)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	// A panicking process must crash loudly, not hang. We can't easily
	// recover a goroutine crash in-test, so this is compile-time
	// documented behavior; here we just check a normal body does not
	// trip the recovery path.
	k := NewKernel()
	done := false
	k.Spawn("ok", func(p *Proc) { done = true })
	k.Run()
	if !done {
		t.Fatal("process did not run")
	}
}
