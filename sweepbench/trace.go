package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded on the benchmark's
// side of the boundary. Times are nanoseconds since the tracer's
// epoch. Point and Lease carry the identifier of the design point or
// coordinator lease the call served (-1 when it served neither).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Lane   int    `json:"lane"`
	Point  int    `json:"point"`
	Lease  int64  `json:"lease"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use; a nil tracer records nothing.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span identifier, so a parent can be named before
// its own span is complete.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(ts time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(ts.Sub(t.epoch))
}

// add records a finished span, assigning a fresh ID to a zero one.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record adds a span for the call that ran from start to end.
func (t *tracer) record(name string, parent int64, lane, point int, lease int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{Name: name, Parent: parent, Lane: lane, Point: point, Lease: lease,
		Start: t.at(start), End: t.at(end)})
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTimes sums, per span name, the total duration and the self
// time: each span's duration minus the part of its interval that its
// child spans cover (children running in parallel are counted once).
func layerTimes(spans []span) (total, self map[string]int64) {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total, self = map[string]int64{}, map[string]int64{}
	for _, s := range spans {
		total[s.Name] += s.dur()
		self[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return total, self
}

// covered returns how much of s's interval the union of kids covers.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v[0], v[1], true
		case v[0] > curHi:
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if open {
		sum += curHi - curLo
	}
	return sum
}

// writeSpans writes the spans, one JSON object per line after a host
// line, to path (creating its directory).
func writeSpans(path string, host hostInfo, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]hostInfo{"host": host}); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// budgetRow is one line of the per-workload time budget.
type budgetRow struct {
	layer string
	ns    int64
	note  string
	depth int // > 0: a share of the row above at depth-1, not additive
}

// printBudget renders the budget table: every layer's self time as a
// share of the lane capacity (lanes × wall time), then the remainder
// no span explains.
func printBudget(w io.Writer, workload string, lanes int, wallNS int64, rows []budgetRow, overhead float64) float64 {
	capNS := int64(lanes) * wallNS
	fmt.Fprintf(w, "budget %s: %d lanes x %.3f s wall = %.3f lane-s\n", workload, lanes, float64(wallNS)/1e9, float64(capNS)/1e9)
	fmt.Fprintf(w, "  %-28s %12s %8s\n", "layer", "ms", "share")
	var explained int64
	for _, r := range rows {
		name := r.layer
		if r.depth > 0 {
			name = strings.Repeat("  ", r.depth) + "of which " + name
		} else {
			explained += r.ns
		}
		fmt.Fprintf(w, "  %-28s %12.3f %7.2f%%  %s\n", name, float64(r.ns)/1e6, 100*float64(r.ns)/float64(capNS), r.note)
	}
	rest := capNS - explained
	frac := float64(rest) / float64(capNS)
	fmt.Fprintf(w, "  %-28s %12.3f %7.2f%%  %s\n", "unexplained", float64(rest)/1e6, 100*frac, "lane time inside no measured span")
	fmt.Fprintf(w, "  tracing overhead: %.2f%% of untraced points/s\n", 100*overhead)
	return frac
}
