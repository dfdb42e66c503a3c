package dse

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Objectives returns the point's minimization vector: latency
// (seconds), energy proxy, area proxy.
func Objectives(r Result) (lat, energy, area float64) {
	return r.Metrics.Makespan.Seconds(), r.Metrics.Energy, r.Metrics.Area
}

// Dominates reports whether a Pareto-dominates b: no worse on every
// objective and strictly better on at least one. Failed points never
// dominate and are never on the front.
func Dominates(a, b Result) bool {
	if a.Err != "" || b.Err != "" {
		return false
	}
	return dominates(objVec(a), objVec(b))
}

// GroupedFront returns the union of per-workload Pareto fronts as
// ascending indices into results: design points only compete with
// points evaluating the same workload instance, so the answer reads
// as "the non-dominated platform × mapping × fidelity choices for
// each application" rather than "the cheapest application wins". It
// feeds results through the same per-group archive an Accumulator
// keeps live, in O(n·|front|).
func GroupedFront(results []Result) []int {
	var a archive
	for i, r := range results {
		a.add(i, r)
	}
	return a.front()
}

// FrontTable renders the front as text, one design per line, best
// latency first.
func FrontTable(results []Result, front []int) string {
	rows := append([]int{}, front...)
	sort.Slice(rows, func(a, b int) bool {
		la, _, _ := Objectives(results[rows[a]])
		lb, _, _ := Objectives(results[rows[b]])
		if la != lb {
			return la < lb
		}
		return rows[a] < rows[b]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "pareto front: %d of %d points (objectives: latency, energy, area)\n", len(front), len(results))
	fmt.Fprintf(&b, "%6s  %-22s %-10s %-7s %-7s %12s %10s %8s\n",
		"id", "platform", "workload", "heur", "fid", "makespan", "energy", "area")
	for _, i := range rows {
		r := results[i]
		wl := WorkloadSpec{Kind: r.Point.Workload, N: r.Point.N}
		fid := FidelitySpec{Kind: r.Point.Fidelity, Iterations: r.Point.Iterations, Quantum: r.Point.Quantum}
		fmt.Fprintf(&b, "%6d  %-22s %-10s %-7s %-7s %12v %10.4g %8.2f\n",
			r.Point.ID, r.Point.Plat, wl, r.Point.Heuristic, fid,
			r.Metrics.Makespan, r.Metrics.Energy, r.Metrics.Area)
	}
	return b.String()
}

// Scatter renders an ASCII latency-versus-energy scatter of the sweep
// (both axes log-scaled): '·' evaluated points, '#' Pareto-front
// members. The third objective (area) is not drawn, so a '#' can
// appear above-right of a '·' it does not dominate.
func Scatter(results []Result, front []int, width, height int) string {
	if width < 16 {
		width = 64
	}
	if height < 8 {
		height = 20
	}
	type pt struct {
		x, y  float64
		front bool
	}
	isFront := map[int]bool{}
	for _, i := range front {
		isFront[i] = true
	}
	var pts []pt
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for i, r := range results {
		lat, energy, _ := Objectives(r)
		if r.Err != "" || lat <= 0 || energy <= 0 {
			continue
		}
		x, y := math.Log10(energy), math.Log10(lat)
		pts = append(pts, pt{x, y, isFront[i]})
		minX, maxX = math.Min(minX, x), math.Max(maxX, x)
		minY, maxY = math.Min(minY, y), math.Max(maxY, y)
	}
	if len(pts) == 0 {
		return "scatter: no evaluable points\n"
	}
	if maxX-minX < 1e-9 {
		maxX = minX + 1
	}
	if maxY-minY < 1e-9 {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, p := range pts {
		col := int((p.x - minX) / (maxX - minX) * float64(width-1))
		row := int((p.y - minY) / (maxY - minY) * float64(height-1))
		// Latency grows upward.
		row = height - 1 - row
		cur := grid[row][col]
		if p.front {
			grid[row][col] = '#'
		} else if cur != '#' {
			grid[row][col] = '.'
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "latency (log s, %.2e..%.2e) vs energy proxy (log, %.2e..%.2e); '#'=front\n",
		math.Pow(10, minY), math.Pow(10, maxY), math.Pow(10, minX), math.Pow(10, maxX))
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("|\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "+\n")
	if pad := width - 22; pad >= 0 {
		b.WriteString(" low energy" + strings.Repeat(" ", pad) + "high energy\n")
	}
	return b.String()
}
