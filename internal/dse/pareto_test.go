package dse

import (
	"strings"
	"testing"

	"mpsockit/internal/sim"
	"mpsockit/internal/xrand"
)

// randomResults generates a deterministic cloud of evaluated points
// for dominance properties.
func randomResults(n int, seed uint64) []Result {
	r := xrand.New(seed)
	out := make([]Result, n)
	for i := range out {
		out[i] = Result{
			Point: Point{ID: i},
			Metrics: Metrics{
				Makespan: sim.Time(r.Range(1_000_000, 1_000_000_000)),
				Energy:   r.Float64()*10 + 0.001,
				Area:     r.Float64()*30 + 1,
			},
		}
		if r.Bool(0.1) {
			out[i].Err = "synthetic failure"
		}
	}
	return out
}

// TestFrontDominanceProperty: no front member may be dominated by ANY
// evaluated point, and every dominated point must be dominated by a
// front member (transitivity makes the front a complete cover).
func TestFrontDominanceProperty(t *testing.T) {
	check := func(t *testing.T, results []Result) {
		t.Helper()
		front := naiveFront(results)
		isFront := map[int]bool{}
		for _, i := range front {
			isFront[i] = true
			for j := range results {
				if Dominates(results[j], results[i]) {
					t.Fatalf("front member %d dominated by %d", i, j)
				}
			}
			if results[i].Err != "" {
				t.Fatalf("failed point %d on front", i)
			}
		}
		for i, r := range results {
			if isFront[i] || r.Err != "" {
				continue
			}
			covered := false
			for _, f := range front {
				if Dominates(results[f], r) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("non-front point %d not dominated by any front member", i)
			}
		}
	}
	for _, seed := range []uint64{1, 2, 77, 1234} {
		check(t, randomResults(200, seed))
	}
	// And on a real (small) sweep, per the acceptance property.
	sw, err := ParseSweep("smoke", 9)
	if err != nil {
		t.Fatal(err)
	}
	points, _ := sw.Points()
	check(t, (&Engine{Workers: 4}).Run(points))
}

// TestGroupedFront: per-workload fronts must each satisfy the
// dominance property within their group, and every group must be
// represented.
func TestGroupedFront(t *testing.T) {
	sw, err := ParseSweep("smoke", 21)
	if err != nil {
		t.Fatal(err)
	}
	points, _ := sw.Points()
	results := (&Engine{Workers: 4}).Run(points)
	front := GroupedFront(results)
	sameGroup := func(a, b Result) bool {
		return a.Point.Workload == b.Point.Workload && a.Point.N == b.Point.N
	}
	groups := map[string]bool{}
	for _, i := range front {
		groups[results[i].Point.Workload] = true
		for j := range results {
			if sameGroup(results[j], results[i]) && Dominates(results[j], results[i]) {
				t.Fatalf("grouped-front member %d dominated by same-workload point %d", i, j)
			}
		}
	}
	for _, r := range results {
		if r.Err == "" && !groups[r.Point.Workload] {
			t.Fatalf("workload %s has no front representative", r.Point.Workload)
		}
	}
}

func TestFrontTableAndScatter(t *testing.T) {
	results := randomResults(120, 5)
	front := naiveFront(results)
	if len(front) == 0 {
		t.Fatal("empty front")
	}
	table := FrontTable(results, front)
	if !strings.Contains(table, "pareto front") || len(strings.Split(table, "\n")) < len(front) {
		t.Fatalf("front table malformed:\n%s", table)
	}
	plot := Scatter(results, front, 64, 20)
	if !strings.Contains(plot, "#") || !strings.Contains(plot, ".") {
		t.Fatalf("scatter missing marks:\n%s", plot)
	}
	if len(strings.Split(plot, "\n")) < 20 {
		t.Fatalf("scatter too short:\n%s", plot)
	}
	// Narrow widths (16..21) must render, not panic on the axis label.
	for _, w := range []int{16, 20, 21, 22} {
		if got := Scatter(results, front, w, 8); !strings.Contains(got, "#") {
			t.Fatalf("narrow scatter (w=%d) missing front marks", w)
		}
	}
}
