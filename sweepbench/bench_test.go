package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"mpsockit/internal/dse"
)

// Tiny stand-ins for the workloads: the same fidelities, layers and
// code paths at a few dozen points.
var tinyWorkloads = []sweepWorkload{
	{name: "default", spec: "plat=homog2,wireless;wl=jpeg,synth8,jobs8;heur=list,anneal;fid=mvp,vp64", seeds: 2},
	{name: "tasklevel", spec: tinyTasklevel, seeds: 2},
	{name: "farm", spec: tinyTasklevel, farm: true, seeds: 2},
}

const tinyTasklevel = "plat=homog4,2xrisc+2xdsp;fab=bus;mem=ideal,bank:4x2;wl=jpeg,multi:jpeg+synth8,jobs8;heur=list,anneal;fid=mvp,pipe4"

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Work     []struct{ Name string }       `json:"workloads"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestEveryMetricPrinted runs every workload at tiny size, untraced
// and traced, and checks the result carries exactly the declared
// metrics, each with its declared unit.
func TestEveryMetricPrinted(t *testing.T) {
	d := readDeclared(t)
	if len(d.Work) != len(tinyWorkloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Work), len(tinyWorkloads))
	}
	for i, wl := range tinyWorkloads {
		if d.Work[i].Name != wl.name || workloads[i].name != wl.name {
			t.Fatalf("workload %d: declared %q, benchmark %q, tiny %q", i, d.Work[i].Name, workloads[i].name, wl.name)
		}
		for trace, want := range [][]struct{ Name, Unit string }{d.EndToEnd, d.PerLayer} {
			var report bytes.Buffer
			res, err := run(config{wl: wl, seed: 1, seconds: 0.01, trace: trace == 1, report: &report})
			if err != nil {
				t.Fatalf("%s trace %d: %v", wl.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace %d: correct %v attempted %d failed %d", wl.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics printed, %d declared", wl.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Unit == "" {
					t.Errorf("%s trace %d: metric %s printed as %+v (present %v), declared unit %q", wl.name, trace, m.Name, got, ok, m.Unit)
				}
				if !strings.Contains(report.String(), "metric "+m.Name+" ") {
					t.Errorf("%s trace %d: report lacks metric %s", wl.name, trace, m.Name)
				}
			}
			if trace == 1 && !strings.Contains(report.String(), "unexplained") {
				t.Errorf("%s: traced report has no budget table", wl.name)
			}
		}
	}
}

// TestGateRejectsFlippedFarmByte flips one byte of one result line of
// a farm's final output: the byte comparison with the standalone
// reference must refuse it.
func TestGateRejectsFlippedFarmByte(t *testing.T) {
	ref, err := reference(tinyTasklevel, 3)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := farmOnce(tinyTasklevel, 3, nil, dse.EvalObs{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBytes("farm", fi.out, ref); err != nil {
		t.Fatalf("unmodified farm output: %v", err)
	}
	lines := bytes.SplitAfter(fi.out, []byte("\n"))
	line := lines[len(lines)/2]
	i := bytes.Index(line, []byte(`"makespan_ps":`)) + len(`"makespan_ps":`) + 1
	line[i] = '0' + (line[i]-'0'+1)%10 // still valid JSON, different bytes
	if err := sameBytes("farm", fi.out, ref); err == nil {
		t.Fatal("gate accepted a farm output with a flipped byte")
	}
}

// TestGateRejectsWrongSpecHash alters the header's spec hash: the
// re-expansion check must refuse the file.
func TestGateRejectsWrongSpecHash(t *testing.T) {
	ref, err := reference(tinyTasklevel, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkSweepFile(ref); err != nil {
		t.Fatalf("unmodified output: %v", err)
	}
	c, _ := checkSweepFile(ref)
	bad := bytes.Replace(ref, []byte(c.header.SpecHash), []byte(strings.Repeat("0", len(c.header.SpecHash))), 1)
	if _, err := checkSweepFile(bad); err == nil || !strings.Contains(err.Error(), "spec_hash") {
		t.Fatalf("gate accepted a wrong spec hash (err %v)", err)
	}
}
