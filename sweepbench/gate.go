package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"mpsockit/internal/dse"
)

// checked is a sweep file that passed the correctness gate.
type checked struct {
	header  dse.Header
	points  []dse.Point
	results []dse.Result
	failed  int // results whose Err is non-empty
}

// checkSweepFile is the correctness gate for one sweep output: the
// header's spec hash must match a fresh re-expansion of its spec and
// seed, there must be exactly one result line per point in point
// order carrying the expanded point, and every successful result must
// satisfy the model invariants (see checkInvariants).
func checkSweepFile(data []byte) (*checked, error) {
	first, rest, ok := bytes.Cut(data, []byte("\n"))
	if !ok {
		return nil, fmt.Errorf("gate: sweep file has no header line")
	}
	var hl struct {
		Header *dse.Header `json:"header"`
	}
	if err := json.Unmarshal(first, &hl); err != nil || hl.Header == nil {
		return nil, fmt.Errorf("gate: first line is not a sweep header")
	}
	h := *hl.Header
	sw, err := dse.ParseSweep(h.Spec, h.Seed)
	if err != nil {
		return nil, fmt.Errorf("gate: header spec: %w", err)
	}
	points, err := sw.Points()
	if err != nil {
		return nil, fmt.Errorf("gate: header spec: %w", err)
	}
	if got := dse.HashPoints(points); got != h.SpecHash || h.Points != len(points) {
		return nil, fmt.Errorf("gate: header spec_hash %s over %d points, re-expansion gives %s over %d",
			h.SpecHash, h.Points, got, len(points))
	}
	c := &checked{header: h, points: points, results: make([]dse.Result, 0, len(points))}
	for len(rest) > 0 {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte("\n"))
		var r dse.Result
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("gate: result line %d: %w", len(c.results), err)
		}
		i := len(c.results)
		if i >= len(points) || !reflect.DeepEqual(r.Point, points[i]) {
			return nil, fmt.Errorf("gate: result line %d does not carry expanded point %d", i, i)
		}
		if r.Err != "" {
			c.failed++
		}
		c.results = append(c.results, r)
	}
	if len(c.results) != len(points) {
		return nil, fmt.Errorf("gate: %d result lines for %d points", len(c.results), len(points))
	}
	if err := checkInvariants(c.results); err != nil {
		return nil, err
	}
	return c, nil
}

// checkInvariants holds every successful result to the model's
// physical invariants: total busy time fits in cores × makespan,
// utilizations are fractions, and energy and area are finite and
// positive. The memory-contention invariant needs the point's mapping
// and is checked by the replay (replayAll).
func checkInvariants(results []dse.Result) error {
	for _, r := range results {
		if r.Err != "" {
			continue
		}
		p, m := r.Point, r.Metrics
		cores := int64(p.Plat.CoreCount())
		switch {
		case m.Makespan <= 0:
			return fmt.Errorf("gate: point %d: makespan %d ps", p.ID, m.Makespan)
		case m.BusyPS > cores*int64(m.Makespan):
			return fmt.Errorf("gate: point %d: busy %d ps exceeds %d cores x makespan %d ps", p.ID, m.BusyPS, cores, m.Makespan)
		case !fraction(m.UtilMean) || !fraction(m.UtilMax):
			return fmt.Errorf("gate: point %d: utilization mean %v max %v outside [0,1]", p.ID, m.UtilMean, m.UtilMax)
		case !finitePositive(m.Energy) || !finitePositive(m.Area):
			return fmt.Errorf("gate: point %d: energy %v area %v not finite and positive", p.ID, m.Energy, m.Area)
		}
	}
	return nil
}

func fraction(v float64) bool { return v >= 0 && v <= 1 }

func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }

// sameBytes fails unless got equals the reference output, naming the
// first differing line.
func sameBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Errorf("gate: %s output differs from the reference at line %d", what, i+1)
		}
	}
	return fmt.Errorf("gate: %s output has %d lines, the reference %d", what, len(gl), len(wl))
}
