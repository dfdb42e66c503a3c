package coord

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mpsockit/internal/coord/chaos"
)

// TestChaosSweepByteIdentity is the farm's headline guarantee: the
// default sweep, coordinated across 8 workers under randomized chaos
// — dropped acks, black-holed requests, duplicated requests, injected
// latency, stalled heartbeats, workers killed mid-lease and respawned
// — produces a final file byte-identical to a fault-free
// single-worker run. In -short mode the smoke sweep stands in for the
// default one.
func TestChaosSweepByteIdentity(t *testing.T) {
	spec := "default"
	if testing.Short() {
		spec = "smoke"
	}
	for _, chaosSeed := range []uint64{7, 2026} {
		chaosSeed := chaosSeed
		t.Run(fmt.Sprintf("seed%d", chaosSeed), func(t *testing.T) {
			runChaosSweep(t, spec, 1, chaosSeed, 8)
		})
	}
}

// runChaosSweep coordinates one sweep under fault injection and
// asserts byte identity against the fault-free reference.
func runChaosSweep(t *testing.T, spec string, seed, chaosSeed uint64, workers int) {
	t.Helper()
	ref := referenceBytes(t, spec, seed)
	dir := t.TempDir()
	// A black-holed request costs its worker one attempt timeout, the
	// lease timeout, so it is kept short.
	const leaseTimeout = 200 * time.Millisecond
	srv, err := New(Config{
		Spec:           spec,
		Seed:           seed,
		LeaseTimeout:   leaseTimeout,
		Chunks:         4 * workers,
		CheckpointPath: filepath.Join(dir, "coord.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	transports := make([]*chaos.Transport, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		// Per-worker fault mix, all derived from the chaos seed: every
		// worker drops, black-holes and duplicates, a third also stalls
		// heartbeats (so live workers lose leases and late-ack), and
		// early incarnations get killed mid-lease.
		tr := chaos.NewTransport(chaos.Policy{
			Seed:            chaosSeed<<8 | uint64(i),
			Drop:            0.15,
			BlackHole:       0.05,
			Dup:             0.15,
			Delay:           0.25,
			MaxDelay:        2 * time.Millisecond,
			StallHeartbeats: i%3 == 0,
		}, nil)
		transports[i] = tr
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("w%d", i)
			for incarnation := 0; ; incarnation++ {
				select {
				case <-srv.Done():
					return
				default:
				}
				if incarnation > 100 {
					t.Errorf("%s: still respawning after %d incarnations", id, incarnation)
					return
				}
				ctx, cancel := context.WithCancel(context.Background())
				cfg := WorkerConfig{
					URL:         hs.URL,
					ID:          id,
					FlushPoints: 3,
					Workers:     1,
					// The client timeout bounds a black-holed /hello:
					// until /hello answers, a worker bounds an
					// attempt only by the 30 s default lease timeout.
					Client:        &http.Client{Transport: tr, Timeout: 2 * leaseTimeout},
					CheckpointDir: dir,
					MaxAttempts:   5,
					BackoffBase:   time.Millisecond,
					BackoffMax:    30 * time.Millisecond,
				}
				if incarnation < 2 {
					// Die mid-lease with unsubmitted results; the
					// respawn manager (this loop) brings the worker
					// back, as a farm supervisor would.
					killAfter := 4 + int((chaosSeed+uint64(i))%5)
					cfg.OnResult = chaos.KillSwitch(killAfter, cancel)
				}
				err := NewWorker(cfg).Run(ctx)
				cancel()
				if err == nil {
					return
				}
			}
		}(i)
	}
	wg.Wait()

	select {
	case <-srv.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("sweep did not complete: %+v", srv.Status())
	}
	faults, blackHoles := 0, 0
	for _, tr := range transports {
		faults += tr.Faults()
		blackHoles += tr.BlackHoles
	}
	if faults == 0 {
		t.Fatal("chaos policy injected no faults; the run proved nothing")
	}
	if blackHoles == 0 {
		t.Fatal("chaos policy black-holed no request; the silent-peer path went untested")
	}
	st := srv.Status()
	t.Logf("chaos seed %d: %d points, %d duplicate lines absorbed, %d faults injected (%d black holes)",
		chaosSeed, st.Done, st.Duplicates, faults, blackHoles)

	var got bytes.Buffer
	if err := srv.WriteFinal(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), ref) {
		t.Fatalf("chaos run output differs from the fault-free single-worker run (%d vs %d bytes)", got.Len(), len(ref))
	}
}

// TestChaosTransportDeterminism pins the chaos replay contract: the
// same policy seed over the same request sequence injects the same
// faults.
func TestChaosTransportDeterminism(t *testing.T) {
	sequence := func(seed uint64) (string, int) {
		ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("{}"))
		})
		hs := httptest.NewServer(ok)
		defer hs.Close()
		tr := chaos.NewTransport(chaos.Policy{
			Seed: seed, Drop: 0.3, Dup: 0.3, StallHeartbeats: true,
		}, nil)
		client := &http.Client{Transport: tr}
		var pattern bytes.Buffer
		for i := 0; i < 40; i++ {
			path := "/results"
			if i%5 == 0 {
				path = "/heartbeat"
			}
			_, err := client.Post(hs.URL+path, "application/json", bytes.NewReader([]byte("{}")))
			if err != nil {
				pattern.WriteByte('x')
			} else {
				pattern.WriteByte('.')
			}
		}
		return pattern.String(), tr.Faults()
	}
	p1, f1 := sequence(11)
	p2, f2 := sequence(11)
	if p1 != p2 || f1 != f2 {
		t.Fatalf("same seed diverged:\n%s (%d faults)\n%s (%d faults)", p1, f1, p2, f2)
	}
	if f1 == 0 {
		t.Fatal("no faults fired at p=0.3 over 40 requests")
	}
	p3, _ := sequence(12)
	if p1 == p3 {
		t.Fatal("different seeds produced an identical fault pattern")
	}
}

// TestChaosBlackHole: a black-holed request reaches the server and is
// processed, then the call blocks until the request context ends, and
// the fault is counted.
func TestChaosBlackHole(t *testing.T) {
	var served int
	var mu sync.Mutex
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		served++
		mu.Unlock()
		w.Write([]byte("{}"))
	}))
	defer hs.Close()
	tr := chaos.NewTransport(chaos.Policy{Seed: 1, BlackHole: 1}, nil)
	const timeout = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/results", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := (&http.Client{Transport: tr}).Do(req); err == nil {
		t.Fatal("black-holed request returned a response")
	}
	if waited := time.Since(start); waited < timeout {
		t.Fatalf("black hole returned after %v, before the %v request context ended", waited, timeout)
	}
	mu.Lock()
	defer mu.Unlock()
	if served != 1 {
		t.Fatalf("server processed %d requests, want 1", served)
	}
	if tr.BlackHoles != 1 || tr.Faults() != 1 {
		t.Fatalf("BlackHoles = %d, Faults() = %d; want 1 and 1", tr.BlackHoles, tr.Faults())
	}
}
