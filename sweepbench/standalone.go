package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"mpsockit/internal/dse"
)

// iter is one measured sweep: its set-up and run times and, when
// traced standalone, the per-point evaluation times.
type iter struct {
	setup, run time.Duration
	points     int
	sweep      int // index of the run's subject it swept
	out        []byte
	evalNS     []int64 // traced standalone only, indexed by point ID
}

// expand is the sweep's set-up: parse, expand, hash and write the
// header.
func expand(spec string, seed uint64, buf *bytes.Buffer) ([]dse.Point, error) {
	sw, err := dse.ParseSweep(spec, seed)
	if err != nil {
		return nil, err
	}
	points, err := sw.Points()
	if err != nil {
		return nil, err
	}
	return points, dse.WriteHeader(buf, dse.NewHeader(spec, seed, points, nil))
}

// standaloneOnce runs the sweep on a dse.Engine pool, writing every
// result in point order. Set-up ends, and the run begins, at the
// first dispatch; the run ends with the last result written.
func standaloneOnce(spec string, seed uint64, workers int, sizeHint int) (iter, error) {
	var buf bytes.Buffer
	buf.Grow(sizeHint)
	t0 := time.Now()
	points, err := expand(spec, seed, &buf)
	if err != nil {
		return iter{}, err
	}
	t1 := time.Now()
	var werr error
	eng := dse.Engine{Workers: workers, OnResult: func(r dse.Result) {
		if err := dse.WriteResult(&buf, r); err != nil && werr == nil {
			werr = err
		}
	}}
	eng.Run(points)
	t2 := time.Now()
	if werr != nil {
		return iter{}, werr
	}
	return iter{setup: t1.Sub(t0), run: t2.Sub(t1), points: len(points), out: buf.Bytes()}, nil
}

// tracedOnce runs the sweep on the benchmark's own pool of workers
// goroutines — each owning a dse.EvalContext, results written in point
// order like dse.Engine — so every Evaluate and WriteResult call is
// timed from outside and recorded as a span.
func tracedOnce(spec string, seed uint64, workers int, sizeHint int, tr *tracer, o dse.EvalObs) (iter, error) {
	var buf bytes.Buffer
	buf.Grow(sizeHint)
	root, run := tr.newID(), tr.newID()
	t0 := time.Now()
	points, err := expand(spec, seed, &buf)
	if err != nil {
		return iter{}, err
	}
	t1 := time.Now()
	tr.record("dse.expand", root, 0, -1, -1, t0, t1)

	results := make([]dse.Result, len(points))
	evalNS := make([]int64, len(points))
	jobs := make(chan int)
	done := make(chan int, len(points)) // one send per point: never blocks
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ec := dse.NewEvalContext()
			ec.SetObs(o)
			for i := range jobs {
				s := time.Now()
				results[i] = ec.Evaluate(points[i])
				e := time.Now()
				evalNS[i] = int64(e.Sub(s))
				tr.record("dse.eval", run, w, points[i].ID, -1, s, e)
				done <- i
			}
		}(w)
	}
	var werr error
	written := make(chan struct{})
	go func() {
		defer close(written)
		ready := make([]bool, len(points))
		next := 0
		for i := range done {
			ready[i] = true
			for ; next < len(points) && ready[next]; next++ {
				r := results[next]
				s := time.Now()
				if err := dse.WriteResult(&buf, r); err != nil && werr == nil {
					werr = err
				}
				tr.record("dse.encode", run, workers, r.Point.ID, -1, s, time.Now())
			}
		}
	}()
	for i := range points {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	close(done)
	<-written
	t2 := time.Now()
	if werr != nil {
		return iter{}, werr
	}
	tr.add(span{Name: "dse.run", ID: run, Parent: root, Point: -1, Lease: -1, Start: tr.at(t1), End: tr.at(t2)})
	tr.add(span{Name: "sweep", ID: root, Point: -1, Lease: -1, Start: tr.at(t0), End: tr.at(t2)})
	return iter{setup: t1.Sub(t0), run: t2.Sub(t1), points: len(points), out: buf.Bytes(), evalNS: evalNS}, nil
}

// reference evaluates the sweep once on a single worker: the bytes
// every measured run must reproduce.
func reference(spec string, seed uint64) ([]byte, error) {
	it, err := standaloneOnce(spec, seed, 1, 0)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return it.out, nil
}
