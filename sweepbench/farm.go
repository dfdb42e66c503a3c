package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpsockit/internal/coord"
	"mpsockit/internal/dse"
)

// farmWorkers is the loopback farm's worker count; each evaluates on
// one goroutine, so the farm uses the same two CPUs a standalone
// 2-worker pool does.
const farmWorkers = 2

// farmTimeout bounds one farm sweep; a farm that never completes is a
// failed run, not a slow one.
const farmTimeout = 120 * time.Second

// farmConfig is the coordinator configuration dsed ships with.
func farmConfig(spec string, seed uint64) coord.Config {
	return coord.Config{Spec: spec, Seed: seed, LeaseTimeout: 30 * time.Second, Chunks: 32, ProgressEvery: 50}
}

// farmIter is one farm sweep. The set-up runs from building the
// coordinator to the first lease response; the run from there until
// Server.Done with the final bytes written. Linger is the time from
// then until the last worker returned (traced runs only: untraced
// runs cancel the workers once the output is written).
type farmIter struct {
	iter
	linger                time.Duration
	submitted, duplicates int
	probe                 *farmProbe
}

// farmOnce serves the sweep from an in-process coordinator through an
// httptest loopback listener to farmWorkers coord.Workers, each with
// its own HTTP client whose transport is the benchmark's probe.
func farmOnce(spec string, seed uint64, tr *tracer, o dse.EvalObs) (farmIter, error) {
	t0 := time.Now()
	srv, err := coord.New(farmConfig(spec, seed))
	if err != nil {
		return farmIter{}, err
	}
	ts := httptest.NewServer(srv.Handler())
	probe := &farmProbe{t0: t0, tr: tr, holds: map[int64]*hold{}}
	if tr != nil {
		probe.root = tr.newID()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workers := make([]*coord.Worker, farmWorkers)
	transports := make([]*http.Transport, farmWorkers)
	errs := make([]error, farmWorkers)
	exits := make([]time.Time, farmWorkers)
	var wg sync.WaitGroup
	for i := range workers {
		transports[i] = &http.Transport{}
		workers[i] = coord.NewWorker(coord.WorkerConfig{
			URL:     ts.URL,
			ID:      "bench-w" + strconv.Itoa(i),
			Workers: 1,
			Client:  &http.Client{Transport: &probeTransport{base: transports[i], p: probe, lane: i}},
			Obs:     o,
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = workers[i].Run(ctx)
			exits[i] = time.Now()
		}(i)
	}
	exited := make(chan struct{})
	go func() { wg.Wait(); close(exited) }()
	shutdown := func() {
		cancel()
		<-exited
		ts.Close()
		for _, t := range transports {
			t.CloseIdleConnections()
		}
	}

	timeout := time.NewTimer(farmTimeout)
	defer timeout.Stop()
	var buf bytes.Buffer
	select {
	case <-srv.Done():
	case <-exited:
		shutdown()
		return farmIter{}, fmt.Errorf("farm: workers exited before the sweep completed: %v", errors.Join(errs...))
	case <-timeout.C:
		shutdown()
		return farmIter{}, fmt.Errorf("farm: sweep incomplete after %v", farmTimeout)
	}
	if err := srv.WriteFinal(&buf); err != nil {
		shutdown()
		return farmIter{}, err
	}
	tDone := time.Now()
	if tr == nil {
		cancel()
	}
	select {
	case <-exited:
	case <-timeout.C: // shutdown cancels the stragglers
	}
	shutdown()
	for i, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return farmIter{}, fmt.Errorf("farm: worker %d: %w", i, err)
		}
	}
	first := probe.firstLease.Load()
	if first == 0 {
		return farmIter{}, fmt.Errorf("farm: no lease was granted")
	}
	setupEnd := t0.Add(time.Duration(first))
	it := farmIter{
		iter:  iter{setup: setupEnd.Sub(t0), run: tDone.Sub(setupEnd), points: srv.Header().Points, out: buf.Bytes()},
		probe: probe,
	}
	for i, w := range workers {
		it.submitted += w.Submitted
		it.duplicates += w.Duplicate
		it.linger = max(it.linger, exits[i].Sub(tDone))
	}
	if tr != nil {
		probe.finish(setupEnd, tDone)
	}
	return it, nil
}

// hold is one lease as a worker held it: from the lease response to
// its last result submission.
type hold struct {
	id         int64 // span ID, reserved at grant so submits can name it
	lane       int
	start, end time.Time
}

// farmProbe observes the worker protocol from the workers' transports.
// Untraced it only notes the first lease response; traced it records a
// span per request, lease holds and retry sleeps, and keeps the result
// batches the coordinator acknowledged.
type farmProbe struct {
	t0         time.Time
	firstLease atomic.Int64 // ns after t0; 0 until the first /lease response
	tr         *tracer
	root       int64

	mu        sync.Mutex
	requests  int
	leaseRTT  []int64
	submitRTT []int64
	retryMS   int64
	holds     map[int64]*hold
	sleepFrom [farmWorkers]time.Time
	accepted  [][]byte // acknowledged result batches, in arrival order
}

type probeTransport struct {
	base http.RoundTripper
	p    *farmProbe
	lane int
}

func (t *probeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	var sent []byte
	if t.p.tr != nil && req.URL.Path == "/results" && req.GetBody != nil {
		if rc, err := req.GetBody(); err == nil {
			sent, _ = io.ReadAll(rc) // a bytes.Reader copy; it cannot fail
			rc.Close()
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if req.URL.Path == "/lease" {
		t.p.firstLease.CompareAndSwap(0, int64(time.Since(t.p.t0)))
	}
	if t.p.tr == nil {
		return resp, nil
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	t.p.observe(t.lane, req, resp.StatusCode, raw, sent, start, time.Now())
	return resp, nil
}

func (p *farmProbe) observe(lane int, req *http.Request, status int, raw, sent []byte, start, end time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.requests++
	if from := p.sleepFrom[lane]; !from.IsZero() {
		p.tr.record("coord.retry_sleep", p.root, lane, -1, -1, from, start)
		p.sleepFrom[lane] = time.Time{}
	}
	switch req.URL.Path {
	case "/lease":
		var lr coord.LeaseResponse
		_ = json.Unmarshal(raw, &lr) // a malformed body shows as a lease-less span
		lease := int64(-1)
		switch {
		case lr.Lease != nil:
			lease = lr.Lease.ID
			p.holds[lease] = &hold{id: p.tr.newID(), lane: lane, start: end, end: end}
		case !lr.Done:
			delay := lr.RetryMS
			if delay <= 0 {
				delay = 200 // coord.Worker's default retry delay
			}
			p.retryMS += delay
			p.sleepFrom[lane] = end
		}
		p.leaseRTT = append(p.leaseRTT, int64(end.Sub(start)))
		p.tr.record("coord.lease", p.root, lane, -1, lease, start, end)
	case "/results":
		lease, _ := strconv.ParseInt(req.URL.Query().Get("lease"), 10, 64)
		parent := p.root
		if h := p.holds[lease]; h != nil {
			parent, h.end = h.id, end
		}
		p.submitRTT = append(p.submitRTT, int64(end.Sub(start)))
		p.tr.record("coord.submit", parent, lane, -1, lease, start, end)
		if status == http.StatusOK {
			p.accepted = append(p.accepted, sent)
		}
	default:
		p.tr.record("coord."+strings.TrimPrefix(req.URL.Path, "/"), p.root, lane, -1, -1, start, end)
	}
}

// finish records the sweep's set-up, run and lease-hold spans. A
// hold's self time (minus its submits) is the worker's evaluation
// time seen from outside.
func (p *farmProbe) finish(setupEnd, tDone time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	tr := p.tr
	tr.record("coord.setup", p.root, 0, -1, -1, p.t0, setupEnd)
	tr.record("coord.farm", p.root, 0, -1, -1, setupEnd, tDone)
	tr.add(span{Name: "sweep", ID: p.root, Point: -1, Lease: -1, Start: tr.at(p.t0), End: tr.at(tDone)})
	for id, h := range p.holds {
		tr.add(span{Name: "coord.lease_hold", ID: h.id, Parent: p.root, Lane: h.lane, Point: -1, Lease: id,
			Start: tr.at(h.start), End: tr.at(h.end)})
	}
}

// lines splits the acknowledged batches into result lines.
func (p *farmProbe) lines() [][]byte {
	var out [][]byte
	for _, b := range p.accepted {
		for _, l := range bytes.SplitAfter(b, []byte("\n")) {
			if len(l) > 0 {
				out = append(out, l)
			}
		}
	}
	return out
}
