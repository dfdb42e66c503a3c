package dse

import (
	"fmt"
	"slices"
	"sort"
)

// groupID identifies a point's workload instance: points only compete
// (for Pareto membership and hypervolume) against points evaluating
// the same workload with the same size and generator seed.
type groupID struct {
	workload string
	n        int
	seed     uint64
}

func groupOf(p Point) groupID { return groupID{p.Workload, p.N, p.WorkloadSeed} }

// member is one non-dominated result: its index (a point ID in an
// Accumulator, a slice position in the batch functions) and its
// objective vector.
type member struct {
	id  int
	obj [3]float64
}

// group is one workload instance's running Pareto archive plus the
// running extremes its hypervolume reference box derives from.
type group struct {
	// key orders groups in reports, compared as a string
	// ("jpeg/0/123…"); label is the workload as FrontHV names it.
	key, label string
	// front is the group's non-dominated set, in no particular order.
	front []member
	// points counts the group's evaluable results.
	points int
	// boxed reports whether worst and best have seen any evaluable
	// objective vector (results or baseline).
	boxed       bool
	worst, best [3]float64
}

// objVec returns a result's objective vector (Objectives as an array).
func objVec(r Result) [3]float64 {
	lat, energy, area := Objectives(r)
	return [3]float64{lat, energy, area}
}

// dominates is Dominates on objective vectors.
func dominates(a, b [3]float64) bool {
	if a[0] > b[0] || a[1] > b[1] || a[2] > b[2] {
		return false
	}
	return a[0] < b[0] || a[1] < b[1] || a[2] < b[2]
}

// widen folds an evaluable objective vector into the reference box:
// worst starts at 0 (RefPoint's convention), best at the first vector.
func (g *group) widen(obj [3]float64) {
	if !g.boxed {
		g.boxed, g.best = true, obj
	}
	for d := 0; d < 3; d++ {
		if obj[d] > g.worst[d] {
			g.worst[d] = obj[d]
		}
		if obj[d] < g.best[d] {
			g.best[d] = obj[d]
		}
	}
}

// insert adds an evaluable objective vector to the front in
// O(|front|): it is rejected when a member strictly dominates it,
// otherwise it evicts every member it strictly dominates. Exact ties
// dominate nothing, so duplicates all stay. The front is therefore
// always the non-dominated subset of everything inserted, whatever
// the insertion order: strict dominance over finite objectives (JSON
// cannot carry NaN or Inf) is a strict partial order.
func (g *group) insert(id int, obj [3]float64) {
	for _, m := range g.front {
		if dominates(m.obj, obj) {
			return
		}
	}
	keep := g.front[:0]
	for _, m := range g.front {
		if !dominates(obj, m.obj) {
			keep = append(keep, m)
		}
	}
	g.front = append(keep, member{id, obj})
}

// ref is the group's hypervolume reference point, with RefPoint's
// rules: the componentwise worst inflated by 1%, a unit reference on
// an axis whose worst is exactly 0, and the zero point when nothing
// evaluable was seen.
func (g *group) ref() [3]float64 {
	ref := g.worst
	if !g.boxed {
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

// hypervolume measures the group's front, over the front's members
// alone, in the box from min(ref, best) to ref.
func (g *group) hypervolume() FrontHV {
	ref := g.ref()
	ideal := ref
	if g.boxed {
		for d := 0; d < 3; d++ {
			if g.best[d] < ideal[d] {
				ideal[d] = g.best[d]
			}
		}
	}
	pts := make([][3]float64, len(g.front))
	for i, m := range g.front {
		pts[i] = m.obj
	}
	hv := FrontHV{
		Workload: g.label,
		Points:   g.points,
		Front:    len(g.front),
		Ref:      ref,
		Volume:   Hypervolume(pts, ref),
	}
	if denom := (ref[0] - ideal[0]) * (ref[1] - ideal[1]) * (ref[2] - ideal[2]); denom > 0 {
		hv.Norm = hv.Volume / denom
	}
	return hv
}

// archive is a per-workload-group set of Pareto archives — the one
// structure behind GroupedFront, Hypervolumes, HypervolumesShared and
// an Accumulator's live front. Its zero value is empty and ready;
// groups are created on first sight, failed results included (a
// group of failures still reports a zero hypervolume row).
type archive struct {
	index map[groupID]*group
	// groups is sorted by key, the order reports list them in.
	groups []*group
}

// group returns p's group, creating it on first sight.
func (a *archive) group(p Point) *group {
	id := groupOf(p)
	if g := a.index[id]; g != nil {
		return g
	}
	if a.index == nil {
		a.index = make(map[groupID]*group)
	}
	g := &group{
		key:   fmt.Sprintf("%s/%d/%d", p.Workload, p.N, p.WorkloadSeed),
		label: WorkloadSpec{Kind: p.Workload, N: p.N}.String(),
	}
	a.index[id] = g
	at := sort.Search(len(a.groups), func(i int) bool { return a.groups[i].key > g.key })
	a.groups = slices.Insert(a.groups, at, g)
	return g
}

// add inserts result r under index id.
func (a *archive) add(id int, r Result) {
	g := a.group(r.Point)
	if r.Err != "" {
		return
	}
	obj := objVec(r)
	g.points++
	g.widen(obj)
	g.insert(id, obj)
}

// widen folds an evaluable baseline result into the reference box of
// its group, if the archive has that group; fronts are untouched.
func (a *archive) widen(r Result) {
	if g := a.index[groupOf(r.Point)]; g != nil && r.Err == "" {
		g.widen(objVec(r))
	}
}

// front returns the union of the group fronts' indices, ascending
// (nil when empty).
func (a *archive) front() []int {
	n := 0
	for _, g := range a.groups {
		n += len(g.front)
	}
	if n == 0 {
		return nil
	}
	ids := make([]int, 0, n)
	for _, g := range a.groups {
		for _, m := range g.front {
			ids = append(ids, m.id)
		}
	}
	sort.Ints(ids)
	return ids
}

// hypervolumes returns every group's FrontHV in key order (nil when
// the archive is empty).
func (a *archive) hypervolumes() []FrontHV {
	if len(a.groups) == 0 {
		return nil
	}
	out := make([]FrontHV, len(a.groups))
	for i, g := range a.groups {
		out[i] = g.hypervolume()
	}
	return out
}
