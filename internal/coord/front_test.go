package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"mpsockit/internal/dse"
)

// frontRecorder is a coordinator Log sink that checks every live
// progress line against the batch front functions (GroupedFront and
// Hypervolumes, which dse pins to the naive O(n²) oracles) run on
// Completed(). A progress line is written from logProgressLocked,
// under the coordinator's lock, so reading the boot sweep's
// accumulator here sees exactly the state the line reports. It also
// records the /front body that state must serve, keyed by its point
// count: the accumulator only grows, and every submit that accepts a
// point logs a line at ProgressEvery 1, so each state a /front request
// can observe is recorded here first.
type frontRecorder struct {
	srv *Server

	mu     sync.Mutex
	lines  int
	bad    []string
	bodies map[int][]byte
}

func (f *frontRecorder) Write(p []byte) (int, error) {
	if !bytes.Contains(p, []byte(" live ")) {
		return len(p), nil
	}
	sw := f.srv.boot
	done := sw.acc.Completed()
	front := dse.GroupedFront(done)
	hvs := dse.Hypervolumes(done)
	var hv bytes.Buffer
	for i, h := range hvs {
		if i > 0 {
			hv.WriteString(" ")
		}
		fmt.Fprintf(&hv, "%s=%.3f", h.Workload, h.Norm)
	}
	want := fmt.Sprintf("sweep %s live %d/%d points, front %d, hv-norm %s\n",
		sw.id, len(done), sw.acc.Total(), len(front), hv.String())
	snap := FrontSnapshot{
		Sweep:        sw.id,
		Done:         len(done),
		Total:        sw.acc.Total(),
		Complete:     len(done) == sw.acc.Total(),
		Hypervolumes: hvs,
	}
	for _, i := range front {
		snap.Front = append(snap.Front, done[i])
	}
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(snap); err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lines++
	if string(p) != want {
		f.bad = append(f.bad, fmt.Sprintf("progress line %q, batch functions give %q", p, want))
	}
	f.bodies[len(done)] = body.Bytes()
	return len(p), nil
}

// TestLiveFrontMatchesBatch runs a loopback sweep with a progress
// line per accepted submit and polls GET /sweeps/{id}/front
// throughout: every line and every body must equal what the batch
// front functions give on Completed() at that moment.
func TestLiveFrontMatchesBatch(t *testing.T) {
	const spec, seed = "plat=homog4,celllike4,wireless;fab=mesh,bus;dvfs=0,2;wl=jpeg,synth8,carradio;heur=list,anneal", uint64(3)
	rec := &frontRecorder{bodies: map[int][]byte{}}
	srv, err := New(Config{Spec: spec, Seed: seed, Chunks: 8, ProgressEvery: 1, Log: log.New(rec, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	rec.srv = srv
	id, total := SweepID(srv.Header()), srv.Header().Points
	empty, err := json.Marshal(FrontSnapshot{Sweep: id, Total: total})
	if err != nil {
		t.Fatal(err)
	}
	rec.bodies[0] = append(empty, '\n')
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	frontURL := hs.URL + "/sweeps/" + id + "/front"

	var polled [][]byte
	pollDone := make(chan struct{})
	get := func() []byte {
		resp, err := http.Get(frontURL)
		if err != nil {
			t.Error(err)
			return nil
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("GET front: HTTP %d, %v", resp.StatusCode, err)
			return nil
		}
		return body
	}
	go func() {
		defer close(pollDone)
		for {
			select {
			case <-srv.Done():
				return
			default:
			}
			if body := get(); body != nil {
				polled = append(polled, body)
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		cfg := quickWorker(hs.URL, fmt.Sprintf("w%d", i))
		cfg.FlushPoints, cfg.Workers = 1, 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := NewWorker(cfg).Run(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	<-pollDone
	polled = append(polled, get())

	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, msg := range rec.bad {
		t.Error(msg)
	}
	if rec.lines == 0 || len(rec.bodies) == 0 || rec.bodies[total] == nil {
		t.Fatalf("%d progress lines over %d states, final state recorded: %v", rec.lines, len(rec.bodies), rec.bodies[total] != nil)
	}
	for _, body := range polled {
		var snap FrontSnapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatal(err)
		}
		if want := rec.bodies[snap.Done]; !bytes.Equal(body, want) {
			t.Fatalf("GET front at %d/%d points:\n%s\nbatch functions give:\n%s", snap.Done, total, body, want)
		}
	}
	if final := polled[len(polled)-1]; !bytes.Equal(final, rec.bodies[total]) {
		t.Fatalf("final GET front differs from the complete batch snapshot")
	}
	t.Logf("%d progress lines and %d front bodies matched over %d points", rec.lines, len(polled), total)
}
