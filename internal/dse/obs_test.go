package dse

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"mpsockit/internal/obs"
)

// sweepResultBytes runs the spec through an Engine and returns the
// result stream as JSONL bytes.
func sweepResultBytes(t *testing.T, spec string, workers int, o EvalObs, tr *obs.Tracer) []byte {
	t.Helper()
	sw, err := ParseSweep(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	eng := Engine{Workers: workers, Obs: o, Tracer: tr, OnResult: func(r Result) {
		if err := enc.Encode(r); err != nil {
			t.Error(err)
		}
	}}
	pts, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	eng.RunContext(context.Background(), pts)
	return buf.Bytes()
}

// TestInstrumentedSweepByteIdentical is the telemetry-is-a-side-channel
// regression: a sweep with live metrics and tracing attached must emit
// byte-identical result JSONL to an unobserved run, and the metrics
// must actually have moved.
func TestInstrumentedSweepByteIdentical(t *testing.T) {
	const spec = "smoke"
	plain := sweepResultBytes(t, spec, 3, EvalObs{}, nil)

	r := obs.NewRegistry()
	o := NewEvalObs(r)
	var traceBuf bytes.Buffer
	tr := obs.NewTracer(&traceBuf)
	observed := sweepResultBytes(t, spec, 3, o, tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(plain, observed) {
		t.Fatalf("instrumentation changed result bytes:\n--- plain ---\n%s\n--- observed ---\n%s", plain, observed)
	}
	sw, _ := ParseSweep(spec, 42)
	pts, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(pts))
	if got := o.Points.Value(); got != n {
		t.Fatalf("dse_points_total = %d, want %d", got, n)
	}
	if o.SimExecuted.Value() == 0 || o.SimScheduled.Value() == 0 {
		t.Fatal("kernel event counters did not move")
	}
	if o.Search.Schedules.Value() == 0 {
		t.Fatal("mapping schedule counter did not move")
	}
	if tr.Spans() < n {
		t.Fatalf("tracer recorded %d spans for %d points", tr.Spans(), n)
	}
	var events []map[string]any
	if err := json.Unmarshal(traceBuf.Bytes(), &events); err != nil {
		t.Fatalf("trace unparseable: %v", err)
	}
	if int64(len(events)) != tr.Spans() {
		t.Fatalf("decoded %d events, Spans() says %d", len(events), tr.Spans())
	}
}

// TestEvalObsCachesAndLatency: a reused context hits its caches on the
// second sight of a point, and every evaluation lands in the
// fidelity's latency histogram.
func TestEvalObsCachesAndLatency(t *testing.T) {
	r := obs.NewRegistry()
	o := NewEvalObs(r)
	c := NewEvalContext()
	c.SetObs(o)
	p := Point{
		Seed: 1, Plat: PlatSpec{Kind: "homog", Cores: 4, Fabric: "bus"},
		Workload: "synth", N: 8, WorkloadSeed: 5, Heuristic: "list", Fidelity: "mvp",
	}
	for i := 0; i < 3; i++ {
		if res := c.Evaluate(p); res.Err != "" {
			t.Fatal(res.Err)
		}
	}
	if o.GraphMisses.Value() != 1 || o.GraphHits.Value() != 2 {
		t.Fatalf("graph cache hits/misses = %d/%d, want 2/1",
			o.GraphHits.Value(), o.GraphMisses.Value())
	}
	if o.LatMVP.Count() != 3 {
		t.Fatalf("mvp latency count = %d, want 3", o.LatMVP.Count())
	}
	if o.Points.Value() != 3 || o.Errors.Value() != 0 {
		t.Fatalf("points/errors = %d/%d", o.Points.Value(), o.Errors.Value())
	}

	// A failing point lands in Errors but still counts as a point.
	if res := c.Evaluate(Point{Plat: p.Plat, Workload: "synth", N: 8, WorkloadSeed: 5,
		Heuristic: "list", Fidelity: "bogus"}); res.Err == "" {
		t.Fatal("bogus fidelity did not error")
	}
	if o.Errors.Value() != 1 || o.Points.Value() != 4 {
		t.Fatalf("after failure points/errors = %d/%d, want 4/1", o.Points.Value(), o.Errors.Value())
	}
}

// TestInstrumentationAllocFree proves the instrumented steady-state
// evaluation path allocates exactly as much as the unobserved one —
// the SweepPoint analogue of the 0-allocs/op bench guard, measured as
// an equality so it stays meaningful even though a full evaluation
// itself allocates (platform build, result slices).
func TestInstrumentationAllocFree(t *testing.T) {
	p := Point{
		Seed: 12345, Plat: PlatSpec{Kind: "wireless", Fabric: "mesh", DVFS: 1},
		Workload: "synth", N: 16, WorkloadSeed: 99, Heuristic: "anneal", Fidelity: "mvp",
	}
	plain := NewEvalContext()
	observed := NewEvalContext()
	observed.SetObs(NewEvalObs(obs.NewRegistry()))
	run := func(c *EvalContext) float64 {
		return testing.AllocsPerRun(20, func() {
			if r := c.Evaluate(p); r.Err != "" {
				t.Fatal(r.Err)
			}
		})
	}
	a, b := run(plain), run(observed)
	if a != b {
		t.Fatalf("instrumentation changed allocations: plain %.0f, observed %.0f allocs/op", a, b)
	}
}

// TestLatencyHistogramPerFidelity: every fidelity kind the expander
// emits lands in its own latency histogram, so no kind of point can
// drop out of the per-fidelity latency telemetry unnoticed.
func TestLatencyHistogramPerFidelity(t *testing.T) {
	cases := []struct{ fidTok, wl, fid string }{
		{"mvp", "synth8", "mvp"},
		{"pipe4", "synth8", "pipe"},
		{"vp64", "synth8", "vp"},
		{"mvp", "jobs8", "rtos"},
	}
	o := NewEvalObs(obs.NewRegistry())
	c := NewEvalContext()
	c.SetObs(o)
	for _, tc := range cases {
		sw, err := ParseSweep("plat=homog2;heur=list;wl="+tc.wl+";fid="+tc.fidTok, 1)
		if err != nil {
			t.Fatal(err)
		}
		pts, err := sw.Points()
		if err != nil {
			t.Fatal(err)
		}
		p := pts[0]
		if p.Fidelity != tc.fid {
			t.Fatalf("wl=%s fid=%s expands to fidelity %q, want %q", tc.wl, tc.fidTok, p.Fidelity, tc.fid)
		}
		h := o.latency(p.Fidelity)
		if h == nil {
			t.Fatalf("fidelity %q has no latency histogram", p.Fidelity)
		}
		n := h.Count()
		if r := c.Evaluate(p); r.Err != "" {
			t.Fatalf("fidelity %q: %s", p.Fidelity, r.Err)
		}
		if h.Count() != n+1 {
			t.Fatalf("fidelity %q: evaluation did not land in its latency histogram", p.Fidelity)
		}
	}
}
