package dse

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"mpsockit/internal/sim"
	"mpsockit/internal/xrand"
)

// The naive front and hypervolume functions below are the O(n²)
// batch definitions the per-group archive replaced. They stay as the
// archive's test oracles.

// naiveFront returns the indices of the non-dominated results,
// ascending, by comparing every pair.
func naiveFront(results []Result) []int {
	var front []int
	for i, r := range results {
		if r.Err != "" {
			continue
		}
		dominated := false
		for j, other := range results {
			if i != j && Dominates(other, r) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	sort.Ints(front)
	return front
}

// naiveGroupKey is the string group identity the oracles group and
// order by.
func naiveGroupKey(p Point) string {
	return fmt.Sprintf("%s/%d/%d", p.Workload, p.N, p.WorkloadSeed)
}

// naiveGroupedFront is GroupedFront by per-group naiveFront scans.
func naiveGroupedFront(results []Result) []int {
	groups := map[string][]int{}
	for i, r := range results {
		key := naiveGroupKey(r.Point)
		groups[key] = append(groups[key], i)
	}
	var front []int
	for _, idx := range groups {
		sub := make([]Result, len(idx))
		for j, i := range idx {
			sub[j] = results[i]
		}
		for _, j := range naiveFront(sub) {
			front = append(front, idx[j])
		}
	}
	sort.Ints(front)
	return front
}

// naiveRefPoint is RefPoint by one scan over the results.
func naiveRefPoint(results []Result) [3]float64 {
	var ref [3]float64
	evaluable := false
	for _, r := range results {
		if r.Err != "" {
			continue
		}
		evaluable = true
		lat, energy, area := Objectives(r)
		obj := [3]float64{lat, energy, area}
		for d := 0; d < 3; d++ {
			if obj[d] > ref[d] {
				ref[d] = obj[d]
			}
		}
	}
	if !evaluable {
		return ref
	}
	for d := 0; d < 3; d++ {
		if ref[d] == 0 {
			ref[d] = 1
		} else {
			ref[d] *= 1.01
		}
	}
	return ref
}

// naiveHypervolumesShared is HypervolumesShared by per-group
// naiveFront scans and full rescans for the reference box.
func naiveHypervolumesShared(results, baseline []Result) []FrontHV {
	groups := map[string][]Result{}
	refGroups := map[string][]Result{}
	for _, r := range results {
		key := naiveGroupKey(r.Point)
		groups[key] = append(groups[key], r)
		refGroups[key] = append(refGroups[key], r)
	}
	for _, r := range baseline {
		key := naiveGroupKey(r.Point)
		if _, ours := groups[key]; ours {
			refGroups[key] = append(refGroups[key], r)
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []FrontHV
	for _, k := range keys {
		sub := groups[k]
		refSet := refGroups[k]
		ref := naiveRefPoint(refSet)
		front := naiveFront(sub)
		ideal := ref
		for _, r := range refSet {
			if r.Err != "" {
				continue
			}
			lat, energy, area := Objectives(r)
			obj := [3]float64{lat, energy, area}
			for d := 0; d < 3; d++ {
				if obj[d] < ideal[d] {
					ideal[d] = obj[d]
				}
			}
		}
		evaluable := 0
		for _, r := range sub {
			if r.Err == "" {
				evaluable++
			}
		}
		var pts [][3]float64
		for _, i := range front {
			lat, energy, area := Objectives(sub[i])
			pts = append(pts, [3]float64{lat, energy, area})
		}
		hv := FrontHV{
			Workload: WorkloadSpec{Kind: sub[0].Point.Workload, N: sub[0].Point.N}.String(),
			Points:   evaluable,
			Front:    len(front),
			Ref:      ref,
			Volume:   Hypervolume(pts, ref),
		}
		denom := (ref[0] - ideal[0]) * (ref[1] - ideal[1]) * (ref[2] - ideal[2])
		if denom > 0 {
			hv.Norm = hv.Volume / denom
		}
		out = append(out, hv)
	}
	return out
}

// oracleCase is one random archive scenario: a point list spread over
// a few workload groups, their results, an insertion order with
// duplicate resubmissions, and a baseline.
type oracleCase struct {
	points   []Point
	results  []Result
	order    []int // result indices; repeats are duplicate lines
	baseline []Result
}

// genOracleCase draws a scenario whose objectives come from a coarse
// grid, so exact ties and duplicate triples are common. Each group
// picks its own failure rate (1 makes an all-failed group) and may pin
// one axis at 0 for every member (a zero-extent axis).
func genOracleCase(seed uint64) oracleCase {
	r := xrand.New(seed)
	type grp struct {
		wl       string
		n        int
		wlSeed   uint64
		failRate float64
		zeroAxis int // -1: none
	}
	var groups []grp
	for g := r.Intn(4) + 1; g > 0; g-- {
		gr := grp{
			wl:       []string{"jpeg", "synth", "multi:jpeg+synth8"}[r.Intn(3)],
			n:        r.Intn(2) * 8,
			wlSeed:   uint64(r.Intn(12)),
			failRate: []float64{0, 0, 0.2, 1}[r.Intn(4)],
			zeroAxis: r.Intn(5) - 2,
		}
		if gr.zeroAxis < 0 {
			gr.zeroAxis = -1
		}
		groups = append(groups, gr)
	}
	res := func(p Point, g grp) Result {
		obj := [3]float64{float64(r.Intn(4)), float64(r.Intn(4)), float64(r.Intn(4))}
		if g.zeroAxis >= 0 {
			obj[g.zeroAxis] = 0
		}
		out := Result{Point: p, Metrics: Metrics{
			Makespan: sim.Time(obj[0] * float64(sim.Millisecond)),
			Energy:   obj[1] * 0.25,
			Area:     obj[2] * 1.5,
		}}
		if r.Bool(g.failRate) {
			out.Err = "synthetic failure"
		}
		return out
	}
	var c oracleCase
	n := r.Intn(40)
	for id := 0; id < n; id++ {
		g := groups[r.Intn(len(groups))]
		p := Point{ID: id, Workload: g.wl, N: g.n, WorkloadSeed: g.wlSeed}
		c.points = append(c.points, p)
		c.results = append(c.results, res(p, g))
	}
	c.order = r.Perm(n)
	for k := r.Intn(n/4 + 1); k > 0; k-- {
		at := r.Intn(len(c.order) + 1)
		dup := c.order[r.Intn(n)]
		c.order = append(c.order[:at], append([]int{dup}, c.order[at:]...)...)
	}
	// The baseline reuses the groups (wider or narrower objectives)
	// plus one group no result evaluates.
	foreign := grp{wl: "carradio", zeroAxis: -1, failRate: 0.1}
	for k := r.Intn(12); k > 0; k-- {
		g := foreign
		if r.Bool(0.8) {
			g = groups[r.Intn(len(groups))]
		}
		b := res(Point{ID: 1000 + k, Workload: g.wl, N: g.n, WorkloadSeed: g.wlSeed}, g)
		b.Metrics.Energy *= 2
		c.baseline = append(c.baseline, b)
	}
	return c
}

// TestArchiveMatchesOracles feeds random insertion orders into an
// Accumulator and checks, after every line, that its live front and
// hypervolumes equal the naive oracles over Completed(), and that the
// batch GroupedFront, Hypervolumes and HypervolumesShared (with a
// baseline) equal theirs.
func TestArchiveMatchesOracles(t *testing.T) {
	check := func(seed uint64) bool {
		c := genOracleCase(seed)
		acc := NewAccumulator(c.points)
		for step, i := range c.order {
			line := []byte(fmt.Sprintf(`{"id":%d}`, i))
			if _, err := acc.AddResult(c.results[i], line); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
			ids, hvs := acc.Front()
			done := acc.Completed()
			var want []int
			for _, k := range naiveGroupedFront(done) {
				want = append(want, done[k].Point.ID)
			}
			if !reflect.DeepEqual(ids, want) {
				t.Logf("seed %d step %d: live front %v, oracle %v", seed, step, ids, want)
				return false
			}
			if wantHV := naiveHypervolumesShared(done, nil); !reflect.DeepEqual(hvs, wantHV) {
				t.Logf("seed %d step %d: live hypervolumes\n%+v\noracle\n%+v", seed, step, hvs, wantHV)
				return false
			}
		}
		done := acc.Completed()
		if got, want := GroupedFront(done), naiveGroupedFront(done); !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: GroupedFront %v, oracle %v", seed, got, want)
			return false
		}
		if got, want := Hypervolumes(done), naiveHypervolumesShared(done, nil); !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: Hypervolumes\n%+v\noracle\n%+v", seed, got, want)
			return false
		}
		if got, want := HypervolumesShared(done, c.baseline), naiveHypervolumesShared(done, c.baseline); !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: HypervolumesShared\n%+v\noracle\n%+v", seed, got, want)
			return false
		}
		if got, want := RefPoint(c.baseline), naiveRefPoint(c.baseline); got != want {
			t.Logf("seed %d: RefPoint %v, oracle %v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
