package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"mpsockit/internal/dse"
)

// fidelities are the fidelity kinds the workloads' sweeps contain.
var fidelities = []string{"mvp", "pipe", "vp", "rtos"}

// snapshotEvery is the coordinator's front-snapshot cadence (dsed's
// ProgressEvery).
const snapshotEvery = 50

// layers turns one traced run's phases into the per-layer metrics.
type layers struct {
	cfg        config
	subjects   []*subject
	rs         *replayStats
	plain      *phase // untraced, same workload
	traced     *phase
	standalone *phase // farm only: the same sweeps standalone, untraced
	tr         *tracer
}

func (l *layers) compute(m map[string]metric) error {
	w := l.cfg.report
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	var results []dse.Result
	failed := 0
	for _, s := range l.subjects {
		results = append(results, s.c.results...)
		failed += s.c.failed
	}
	nSweeps := float64(len(l.subjects))
	traceOverhead := 1 - l.traced.pointsPerSec()/l.plain.pointsPerSec()
	set("obs.trace_overhead_frac", traceOverhead, "frac")

	// dse: expansion, evaluation, encoding, accumulation, fronts.
	expandPhase := l.traced
	if l.cfg.wl.farm {
		expandPhase = l.standalone // the farm expands inside coord.New
	}
	set("dse.expand_ms", 1e3*expandPhase.setupSec(), "ms")
	byFid := map[string][]int64{}
	var evalSum, runSum int64
	for _, it := range l.traced.iters {
		runSum += int64(it.run)
		points := l.subjects[it.sweep].c.points
		for i, ns := range it.evalNS {
			byFid[points[i].Fidelity] = append(byFid[points[i].Fidelity], ns)
			evalSum += ns
		}
	}
	for _, fid := range fidelities {
		p50, tail, pct, n := quantiles(byFid[fid])
		set("dse.eval_ms_p50."+fid, p50/1e6, "ms")
		set("dse.eval_ms_tail."+fid, tail/1e6, "ms")
		if n > 0 {
			fmt.Fprintf(w, "eval %-4s: p50 %.4f ms, p%g %.4f ms over %d samples\n", fid, p50/1e6, pct, tail/1e6, n)
		}
	}
	spans := clipToRoots(l.tr.snapshot())
	total, self := layerTimes(spans)
	snap := l.traced.reg.Snapshot()
	if l.cfg.wl.farm {
		// coord.Worker makes the Evaluate calls, so the sum comes from
		// its in-program latency histograms (which miss rtos points).
		var evalUS int64
		for _, fid := range fidelities {
			evalUS += snap[`dse_eval_latency_us{fid="`+fid+`"}`].Sum
		}
		evalSum = 1e3 * evalUS
		fmt.Fprintf(w, "farm evaluation time from the workers' dse_eval_latency_us sums (rtos points are in no histogram)\n")
	}
	set("dse.eval_busy_frac", ratio(evalSum, standaloneWorkers*runSum), "frac")
	encodeUS, err := encodeReplay(results)
	if err != nil {
		return err
	}
	set("dse.encode_us_per_point", encodeUS, "us")
	var addNS, snapNS int64
	var nLines, snaps int
	for j, s := range l.subjects {
		lines := resultLines(s.ref)
		if l.cfg.wl.farm {
			for _, fi := range l.traced.farm {
				if fi.sweep == j {
					lines = fi.probe.lines() // the last farm sweep of this seed
				}
			}
		}
		a, f, n, err := accumulateReplay(s.c.points, lines)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s.seed, err)
		}
		addNS, snapNS, nLines, snaps = addNS+a, snapNS+f, nLines+len(lines), snaps+n
	}
	accumUS := ratioF(float64(addNS)/1e3, float64(nLines))
	snapMS := ratioF(float64(snapNS)/1e6, float64(snaps))
	set("dse.accum_us_per_line", accumUS, "us")
	set("dse.front_ms_per_snapshot", snapMS, "ms")
	set("dse.leaked_goroutines_per_sweep", l.plain.leaked, "count")
	set("peak_rss_mb", l.plain.peakRSSMB, "MB")
	set("dse.alloc_kb_per_point", float64(l.plain.allocBytes)/1024/float64(l.plain.attempted), "KiB")
	o := l.traced.evalObs
	set("dse.cache_hit_ratio.graph", ratio(o.GraphHits.Value(), o.GraphHits.Value()+o.GraphMisses.Value()), "ratio")
	set("dse.cache_hit_ratio.vp", ratio(o.VPHits.Value(), o.VPHits.Value()+o.VPMisses.Value()), "ratio")
	var hv float64
	var fronts int
	for _, s := range l.subjects {
		for _, h := range dse.Hypervolumes(s.c.results) {
			hv += h.Norm
			fronts++
		}
	}
	set("dse.front_hv", ratioF(hv, float64(fronts)), "norm")
	set("failed_frac", float64(failed)/float64(len(results)), "frac")

	// mapping, sim, noc, mem: the task-level replay and the results.
	rs := l.rs
	set("mapping.map_us_per_point.list", meanUS(rs.mapNS["list"]), "us")
	set("mapping.map_us_per_point.anneal", meanUS(rs.mapNS["anneal"]), "us")
	for _, path := range []string{"mvp", "pipe", "multi"} {
		set("mapping.execute_us_per_point."+path, meanUS(rs.execNS[path]), "us")
	}
	set("mapping.schedules_per_point", ratio(rs.schedules, int64(rs.points)), "count")
	set("mapping.anneal_accept_ratio", ratio(rs.accepts, rs.moves), "ratio")
	set("mem.anomaly_points", float64(len(rs.anomalies))/nSweeps, "count")
	if len(rs.anomalies) > 0 {
		fmt.Fprintf(w, "mem: %d of %d contended points ran faster than their mapping on ideal memory (timing anomalies)\n",
			len(rs.anomalies), rs.memChecked)
	}
	var events, nocT, memT uint64
	var nocW, memW int64
	for _, r := range results {
		events += r.Metrics.SimEvents
		nocT += r.Metrics.NoCTransfers
		nocW += r.Metrics.NoCWaitPS
		memT += r.Metrics.MemTransfers
		memW += r.Metrics.MemWaitPS
	}
	set("sim.events_per_point", float64(events)/float64(len(results)), "count")
	set("sim.ns_per_event", ratio(rs.execTotal, int64(rs.events)), "ns")
	set("noc.wait_ps_per_transfer", ratio(nocW, int64(nocT)), "ps")
	set("mem.wait_ps_per_transfer", ratio(memW, int64(memT)), "ps")

	// vp / iss: refinement is a vp point's evaluation minus its mvp
	// twin's, each the median over the traced sweeps.
	var gap, refineSum float64
	var refines []float64
	var instr uint64
	for j := range l.subjects {
		g, r, in := l.tierGap(j)
		gap, refines, instr = max(gap, g), append(refines, r...), instr+in
	}
	for _, r := range refines {
		refineSum += r
	}
	set("tier_gap_max_pct", gap, "%")
	set("vp.refine_ms_per_point", median(refines)/1e6, "ms")
	set("iss.instr_per_point", ratio(int64(instr), int64(len(refines))), "count")
	set("iss.mips", ratioF(float64(instr), refineSum*1e-3), "MIPS")

	// coord: the probe on the farm workers' transports.
	l.coordMetrics(set, total)

	// obs: points evaluated per fidelity against the in-program
	// latency histograms.
	evaluated := map[string]int64{}
	for _, it := range l.traced.iters {
		for _, p := range l.subjects[it.sweep].c.points {
			evaluated[p.Fidelity]++
		}
	}
	n := int64(len(l.traced.iters))
	for _, fid := range fidelities {
		labelled := snap[`dse_eval_latency_us{fid="`+fid+`"}`].Count
		unl := float64(evaluated[fid]-labelled) / float64(n)
		set("obs.unlabelled_points."+fid, unl, "count")
		if evaluated[fid] > 0 {
			fmt.Fprintf(w, "telemetry %-4s: %d points evaluated in %d sweeps, %d in the dse_eval_latency_us histogram, %.0f unlabelled per sweep\n",
				fid, evaluated[fid], n, labelled, unl)
		}
	}

	// The budget of the traced sweeps. Replayed layer times were
	// measured once per sweep and count once per round.
	var wall int64
	for _, s := range spans {
		if s.Name == "sweep" {
			wall += s.dur()
		}
	}
	rounds := int64(len(l.traced.rounds))
	var rows []budgetRow
	if l.cfg.wl.farm {
		rows = []budgetRow{
			{layer: "coord.setup", ns: farmWorkers * total["coord.setup"], note: "coordinator build to first lease; holds every lane"},
			{layer: "coord.lease_hold", ns: total["coord.lease_hold"], note: "lease held: evaluating, submits overlap"},
			{layer: "coord.submit", ns: total["coord.submit"], note: "result round trips", depth: 1},
			{layer: "dse.accum", ns: addNS * rounds, note: "replayed Accumulator.Add", depth: 2},
			{layer: "dse.front", ns: snapNS * rounds, note: "replayed front snapshots", depth: 2},
			{layer: "coord.lease", ns: total["coord.lease"], note: "lease round trips"},
			{layer: "coord.retry_sleep", ns: total["coord.retry_sleep"], note: "told to retry later"},
		}
	} else {
		var mapNS, execNS int64
		for _, ns := range rs.mapNS {
			mapNS += sum(ns)
		}
		for _, ns := range rs.execNS {
			execNS += sum(ns)
		}
		rows = []budgetRow{
			{layer: "dse.expand", ns: standaloneWorkers * self["dse.expand"], note: "serial set-up; holds every lane"},
			{layer: "dse.eval", ns: self["dse.eval"], note: "Evaluate calls"},
			{layer: "mapping.map", ns: mapNS * rounds, note: "replayed Map", depth: 1},
			{layer: "mapping.execute", ns: execNS * rounds, note: "replayed Execute*", depth: 1},
			{layer: "vp.refine", ns: int64(refineSum) * rounds, note: "vp minus mvp twin", depth: 1},
			{layer: "dse.encode", ns: self["dse.encode"], note: "WriteResult on the writer goroutine"},
		}
	}
	unexplained := printBudget(w, l.cfg.wl.name, farmWorkers, wall, rows, traceOverhead)
	set("dse.unexplained_frac", unexplained, "frac")
	return nil
}

// coordMetrics fills the coord.* metrics; they are zero outside the
// farm, which is the only workload with a coordinator.
func (l *layers) coordMetrics(set func(string, float64, string), total map[string]int64) {
	var lease, submit []int64
	var requests, points, submitted, dups int
	var retryMS, farmRun int64
	var linger []float64
	for _, fi := range l.traced.farm {
		p := fi.probe
		lease = append(lease, p.leaseRTT...)
		submit = append(submit, p.submitRTT...)
		requests += p.requests
		retryMS += p.retryMS
		points += fi.points
		submitted += fi.submitted
		dups += fi.duplicates
		farmRun += int64(fi.run)
		linger = append(linger, fi.linger.Seconds())
	}
	for name, rtts := range map[string][]int64{"lease": lease, "submit": submit} {
		p50, tail, pct, n := quantiles(rtts)
		set("coord."+name+"_rtt_ms_p50", p50/1e6, "ms")
		set("coord."+name+"_rtt_ms_tail", tail/1e6, "ms")
		if n > 0 {
			fmt.Fprintf(l.cfg.report, "coord %-6s: p50 %.4f ms, p%g %.4f ms over %d round trips\n", name, p50/1e6, pct, tail/1e6, n)
		}
	}
	set("coord.requests_per_kpoint", ratioF(1e3*float64(requests), float64(points)), "count")
	set("coord.retry_sleep_s", ratioF(float64(retryMS)/1e3, float64(len(l.traced.farm))), "s")
	set("coord.worker_busy_frac", ratio(total["coord.lease_hold"], farmWorkers*farmRun), "frac")
	set("coord.duplicate_ratio", ratio(int64(dups), int64(submitted+dups)), "ratio")
	set("coord.linger_s", median(linger), "s")
	eff := 0.0
	if l.standalone != nil {
		eff = l.plain.pointsPerSec() / l.standalone.pointsPerSec()
	}
	set("coord.farm_efficiency", eff, "ratio")
}

// tierGap pairs every vp point of subject j with its mvp twin (the
// same point but for the fidelity). It returns the largest makespan
// gap |vp-mvp|/mvp in percent, each pair's refinement time in ns
// (medians over the traced sweeps; none when evaluation was not
// timed) and the instructions the paired vp points retired.
func (l *layers) tierGap(j int) (gapPct float64, refines []float64, instr uint64) {
	results := l.subjects[j].c.results
	mvp := map[string]int{}
	for i, r := range results {
		if r.Point.Fidelity == "mvp" {
			mvp[twinKey(r.Point)] = i
		}
	}
	med := func(i int) float64 {
		var xs []float64
		for _, it := range l.traced.iters {
			if it.sweep == j && it.evalNS != nil {
				xs = append(xs, float64(it.evalNS[i]))
			}
		}
		return median(xs)
	}
	for i, r := range results {
		if r.Point.Fidelity != "vp" || r.Err != "" {
			continue
		}
		k, ok := mvp[twinKey(r.Point)]
		if !ok || results[k].Err != "" {
			continue
		}
		a, b := float64(r.Metrics.Makespan), float64(results[k].Metrics.Makespan)
		gapPct = max(gapPct, 100*math.Abs(a-b)/b)
		instr += r.Metrics.VPInstr
		if !l.cfg.wl.farm {
			refines = append(refines, med(i)-med(k))
		}
	}
	return gapPct, refines, instr
}

// twinKey identifies a point up to its ID, seeds and fidelity.
func twinKey(p dse.Point) string {
	p.ID, p.Seed, p.Fidelity, p.Quantum, p.Iterations = 0, 0, "", 0, 0
	b, _ := json.Marshal(p) // a Point always encodes
	return string(b)
}

// encodeReplay times dse.WriteResult over every result, three passes,
// and returns the median pass's mean in microseconds per point.
func encodeReplay(results []dse.Result) (float64, error) {
	var buf bytes.Buffer
	passes := make([]float64, 3)
	for i := range passes {
		buf.Reset()
		t0 := time.Now()
		for _, r := range results {
			if err := dse.WriteResult(&buf, r); err != nil {
				return 0, err
			}
		}
		passes[i] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(results))
	}
	return median(passes), nil
}

// accumulateReplay feeds result lines, in the order they arrived, to
// a fresh dse.Accumulator, timing Add; every snapshotEvery accepted
// points it takes the coordinator's live front snapshot (Completed,
// GroupedFront, Hypervolumes) and times that. Every line must be
// accepted and the accumulator must end complete.
func accumulateReplay(points []dse.Point, lines [][]byte) (addNS, snapNS int64, snaps int, err error) {
	acc := dse.NewAccumulator(points)
	next := snapshotEvery
	for _, line := range lines {
		t0 := time.Now()
		_, err := acc.Add(line)
		addNS += int64(time.Since(t0))
		if err != nil {
			return 0, 0, 0, fmt.Errorf("gate: accumulating a result line: %w", err)
		}
		if acc.Done() >= next {
			next = acc.Done() + snapshotEvery
			t0 := time.Now()
			done := acc.Completed()
			dse.GroupedFront(done)
			dse.Hypervolumes(done)
			snapNS += int64(time.Since(t0))
			snaps++
		}
	}
	if !acc.Complete() {
		n, first := acc.Missing()
		return 0, 0, 0, fmt.Errorf("gate: accepted lines miss %d points (first ID %d)", n, first)
	}
	return addNS, snapNS, snaps, nil
}

// resultLines returns a sweep file's result lines (the header dropped).
func resultLines(data []byte) [][]byte {
	lines := bytes.SplitAfter(data, []byte("\n"))
	out := lines[1:]
	if n := len(out); n > 0 && len(out[n-1]) == 0 {
		out = out[:n-1]
	}
	return out
}

// clipToRoots clips every span to the window of its root span, so
// waits that outlast a sweep count only inside it.
func clipToRoots(spans []span) []span {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	out := make([]span, len(spans))
	for i, s := range spans {
		root := s
		for root.Parent != 0 {
			p, ok := byID[root.Parent]
			if !ok {
				break
			}
			root = p
		}
		s.Start = min(max(s.Start, root.Start), root.End)
		s.End = max(min(s.End, root.End), s.Start)
		out[i] = s
	}
	return out
}

// quantiles returns the median and the tail of xs: the highest of
// p99.9, p99 and p90 with at least ten samples beyond it (the maximum
// when there are too few samples for any), its percentile and the
// sample count.
func quantiles(xs []int64) (p50, tail, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0, 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	f := make([]float64, n)
	for i, v := range s {
		f[i] = float64(v)
	}
	p50 = median(f)
	for _, q := range []float64{99.9, 99, 90} {
		rank := int(math.Ceil(q / 100 * float64(n)))
		if n-rank >= 10 {
			return p50, f[rank-1], q, n
		}
	}
	return p50, f[n-1], 100, n
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

func meanUS(ns []int64) float64 { return ratioF(float64(sum(ns))/1e3, float64(len(ns))) }

func ratio(a, b int64) float64 { return ratioF(float64(a), float64(b)) }

// ratioF is a/b, or 0 when b is 0 (the layer did no such work).
func ratioF(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printMetrics prints every metric, sorted by name, with its unit.
func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-36s %s %s\n", n, strings.TrimSpace(fmt.Sprintf("%.6g", m[n].Value)), m[n].Unit)
	}
}
