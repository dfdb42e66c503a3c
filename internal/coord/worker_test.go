package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// quickWorker returns a WorkerConfig tuned for tests: tiny backoff,
// small flush batches.
func quickWorker(url, id string) WorkerConfig {
	return WorkerConfig{
		URL:         url,
		ID:          id,
		FlushPoints: 3,
		Workers:     2,
		MaxAttempts: 4,
		BackoffBase: time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	}
}

// TestWorkerEndToEnd runs one worker against a live coordinator with
// no faults: the sweep completes and the output is byte-identical to
// a standalone run.
func TestWorkerEndToEnd(t *testing.T) {
	const spec, seed = "smoke", uint64(1)
	srv, err := New(Config{Spec: spec, Seed: seed, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	w := NewWorker(quickWorker(hs.URL, "w0"))
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if w.Submitted != srv.Header().Points {
		t.Fatalf("worker submitted %d, want %d", w.Submitted, srv.Header().Points)
	}
	var got bytes.Buffer
	if err := srv.WriteFinal(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), referenceBytes(t, spec, seed)) {
		t.Fatal("coordinated output differs from the standalone run")
	}
}

// failPath injects a transport error for one URL path, toggleable at
// runtime — the shape of "the coordinator process vanished" as seen
// from a worker mid-submit.
type failPath struct {
	base http.RoundTripper
	path string

	mu   sync.Mutex
	fail bool
}

func (f *failPath) set(fail bool) {
	f.mu.Lock()
	f.fail = fail
	f.mu.Unlock()
}

func (f *failPath) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	fail := f.fail
	f.mu.Unlock()
	if fail && strings.HasPrefix(req.URL.Path, f.path) {
		return nil, errors.New("injected: coordinator unreachable")
	}
	return f.base.RoundTrip(req)
}

// TestWorkerVanishCheckpointAndRejoin exercises graceful degradation:
// the coordinator becomes unreachable mid-lease, the worker finishes
// evaluating, checkpoints the undelivered lines locally and exits
// with an error; a rejoining worker (same identity, same directory)
// resubmits the checkpoint without re-evaluating and completes the
// sweep.
func TestWorkerVanishCheckpointAndRejoin(t *testing.T) {
	const spec, seed = "smoke", uint64(1)
	srv, err := New(Config{Spec: spec, Seed: seed, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	dir := t.TempDir()

	// Results delivery fails from the start: hello and lease succeed,
	// so the worker accepts work it can never deliver.
	tr := &failPath{base: http.DefaultTransport, path: "/results"}
	tr.set(true)
	cfg := quickWorker(hs.URL, "w0")
	cfg.Client = &http.Client{Transport: tr}
	cfg.CheckpointDir = dir
	cfg.MaxAttempts = 2
	w := NewWorker(cfg)
	if err := w.Run(context.Background()); err == nil {
		t.Fatal("worker reported success with an unreachable coordinator")
	}
	ckpts, err := filepath.Glob(filepath.Join(dir, "w0-sw-*-lease*.jsonl"))
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no local checkpoint written (%v, %v)", ckpts, err)
	}
	if st := srv.Status(); st.Done != 0 {
		t.Fatalf("server accepted %d points through a dead transport", st.Done)
	}

	// The coordinator comes back; the worker rejoins.
	tr.set(false)
	w2 := NewWorker(func() WorkerConfig {
		c := quickWorker(hs.URL, "w0")
		c.CheckpointDir = dir
		return c
	}())
	if err := w2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "w0-sw-*-lease*.jsonl")); len(left) != 0 {
		t.Fatalf("resubmitted checkpoints not removed: %v", left)
	}
	st := srv.Status()
	if !st.Complete {
		t.Fatalf("sweep incomplete after rejoin: %+v", st)
	}
	if st.Duplicates != 0 {
		t.Fatalf("resubmitted checkpoint counted as duplicates (%d): it was never delivered", st.Duplicates)
	}
	var got bytes.Buffer
	if err := srv.WriteFinal(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), referenceBytes(t, spec, seed)) {
		t.Fatal("output differs after vanish + rejoin")
	}
}

// TestWorkerRefusesSpecHashMismatch checks the first-lease drift
// guard: a worker whose local expansion hashes differently refuses the
// sweep instead of submitting conflicting bytes later.
func TestWorkerRefusesSpecHashMismatch(t *testing.T) {
	srv, err := New(Config{Spec: "smoke", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /hello", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(HelloResponse{HeartbeatMS: 1000})
	})
	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		h := srv.Header()
		h.SpecHash = "0000000000000000"
		json.NewEncoder(w).Encode(LeaseResponse{
			Lease:  &Lease{Sweep: SweepID(h), ID: 1, Lo: 0, Hi: 4, DeadlineMS: 30000},
			Header: &h,
		})
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()
	cfg := quickWorker(hs.URL, "w0")
	cfg.MaxAttempts = 1
	err = NewWorker(cfg).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "spec hash mismatch") {
		t.Fatalf("drifted worker joined anyway: %v", err)
	}
}

// TestWorkerConflictNotRetried checks a 409 is terminal for the
// worker — retrying poison bytes would never succeed — and that the
// rejected batch is submitted exactly once.
func TestWorkerConflictNotRetried(t *testing.T) {
	srv, err := New(Config{Spec: "smoke", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var submits int
	var mu sync.Mutex
	mux := http.NewServeMux()
	mux.HandleFunc("POST /hello", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(HelloResponse{HeartbeatMS: 1000})
	})
	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		h := srv.Header()
		json.NewEncoder(w).Encode(LeaseResponse{
			Lease:  &Lease{Sweep: SweepID(h), ID: 1, Lo: 0, Hi: 4, DeadlineMS: 30000},
			Header: &h,
		})
	})
	mux.HandleFunc("POST /results", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		submits++
		mu.Unlock()
		http.Error(w, "dse: point 0 has conflicting results", http.StatusConflict)
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()

	cfg := quickWorker(hs.URL, "w0")
	cfg.FlushPoints = 100 // one flush for the whole lease
	err = NewWorker(cfg).Run(context.Background())
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting submit: %v, want ErrConflict", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if submits != 1 {
		t.Fatalf("rejected batch submitted %d times, want 1 (no retry)", submits)
	}
}
