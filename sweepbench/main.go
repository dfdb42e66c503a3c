// Command sweepbench is the repository's layered sweep benchmark. It
// runs one named workload — a design-space sweep evaluated standalone
// or through an in-process loopback coordinator farm — for a fixed
// measuring time, holds every output to a correctness gate, and
// prints each metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":F,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 they are the per-layer ones: the run
// measures untraced, then records a span around every call it makes
// into a layer, and also prints the time budget of the layers.
//
// Usage, from the repository root:
//
//	bash sweepbench/run.sh -workload default|tasklevel|farm -seed N -seconds S -trace 0|1
//
// The program is driven only through public functions of its
// packages; see BENCHMARK.json at the repository root for the metric
// list and README.md beside this file for what each measures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mpsockit/internal/dse"
	"mpsockit/internal/obs"
)

// tasklevelSpec is a sweep with no instruction-level point: mapping
// search, task-level and pipelined execution, memory contention,
// multi-application scenarios, core mixes and the RTOS.
const tasklevelSpec = "plat=homog4,homog8,homog16,wireless,celllike4,2xrisc+4xdsp+1xvliw;" +
	"fab=mesh,bus;dvfs=0,1,2;mem=ideal,bank:4x2,bw:8;" +
	"wl=jpeg,h264,carradio,synth32,multi:jpeg+carradio+synth8,jobs64;heur=list,anneal;fid=mvp,pipe8"

// standaloneWorkers sizes the standalone evaluation pool.
const standaloneWorkers = 2

// minRounds is the fewest rounds an untraced run measures, however
// short its time.
const minRounds = 2

// sweepWorkload is a workload: a sweep spec, evaluated standalone or
// through the farm, at seeds consecutive sweep seeds per run (--seed n
// runs seeds n*seeds ... n*seeds+seeds-1), so that a run's figures do
// not hinge on one seed's workload instances. The default preset's
// vp cost follows its synthetic graph, which the seed draws, so it
// needs more seeds than the task-level spec.
type sweepWorkload struct {
	name  string
	spec  string
	farm  bool
	seeds int
}

var workloads = []sweepWorkload{
	{name: "default", spec: "default", seeds: 8},
	{name: "tasklevel", spec: tasklevelSpec, seeds: 4},
	{name: "farm", spec: tasklevelSpec, farm: true, seeds: 4},
}

func workloadByName(name string) (sweepWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return sweepWorkload{}, false
}

type config struct {
	wl       sweepWorkload
	seed     uint64
	seconds  float64
	trace    bool
	report   io.Writer // the human-readable report
	traceDir string    // where traced runs write their spans; "" for nowhere
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: default, tasklevel or farm")
	seed := flag.Uint64("seed", 1, "sweep seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measuring time of each phase, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	wl, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: sweepbench -workload default|tasklevel|farm -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	res, err := run(config{wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1,
		report: os.Stdout, traceDir: filepath.Join(".bench_build", "traces")})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// subject is one sweep of a run: its seed, the single-worker
// reference output every measured sweep must reproduce, and what the
// gate read from it.
type subject struct {
	seed uint64
	ref  []byte
	c    *checked
}

// setUp builds and gates the references, two at a time, and replays
// their task-level points. A traced run replays one sweep at a time,
// so that no two replays share the CPUs while they are timed.
func setUp(cfg config, tr *tracer) ([]*subject, *replayStats, error) {
	subjects := make([]*subject, cfg.wl.seeds)
	err := parallel(2, len(subjects), func(j int) error {
		seed := cfg.seed*uint64(cfg.wl.seeds) + uint64(j)
		ref, err := reference(cfg.wl.spec, seed)
		if err != nil {
			return err
		}
		c, err := checkSweepFile(ref)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		subjects[j] = &subject{seed: seed, ref: ref, c: c}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	st := newReplayStats()
	if tr == nil {
		err := parallel(2, len(subjects), func(j int) error {
			return replayAll(subjects[j].c.results, nil, 0, newReplayStats())
		})
		return subjects, st, err
	}
	t0 := time.Now()
	root := tr.newID()
	for _, s := range subjects {
		if err := replayAll(s.c.results, tr, root, st); err != nil {
			return nil, nil, err
		}
	}
	tr.add(span{Name: "replay", ID: root, Point: -1, Lease: -1, Start: tr.at(t0), End: tr.at(time.Now())})
	return subjects, st, nil
}

// parallel calls f(0..n-1) on the given number of goroutines and
// returns the first error.
func parallel(workers, n int, f func(int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// phase is one measuring loop: rounds of one sweep per subject, run
// back to back until its time is up, each sweep checked byte for byte
// against its reference.
type phase struct {
	iters      []iter
	farm       []farmIter
	rounds     []float64 // points per second of each round
	attempted  int
	failed     int
	allocBytes uint64
	// peakRSSMB is the process's peak resident set at the end of the
	// phase; leaked is the goroutines each sweep left running.
	peakRSSMB float64
	leaked    float64
	reg       *obs.Registry // in-program telemetry (traced phases)
	evalObs   dse.EvalObs
}

// pointsPerSec is the median round's points per second of sweep run
// time.
func (p *phase) pointsPerSec() float64 { return median(p.rounds) }

// setupSec is the median sweep's set-up time.
func (p *phase) setupSec() float64 {
	s := make([]float64, len(p.iters))
	for i, it := range p.iters {
		s[i] = it.setup.Seconds()
	}
	return median(s)
}

// measure runs rounds for at least the given time and minRounds
// rounds. A traced phase records spans on tr and attaches the
// in-program evaluation telemetry; an untraced phase attaches nothing.
func measure(subjects []*subject, spec string, farm bool, seconds float64, minRounds int, tr *tracer) (*phase, error) {
	ph := &phase{}
	if tr != nil {
		ph.reg = obs.NewRegistry()
		ph.evalObs = dse.NewEvalObs(ph.reg)
	}
	what := "standalone"
	if farm {
		what = "farm"
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g0 := runtime.NumGoroutine()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; n < minRounds || time.Now().Before(deadline); n++ {
		var points int
		var run time.Duration
		for j, s := range subjects {
			runtime.GC() // every sweep starts from a collected heap
			var it iter
			var fi farmIter
			var err error
			switch {
			case farm:
				fi, err = farmOnce(spec, s.seed, tr, ph.evalObs)
				it = fi.iter
			case tr != nil:
				it, err = tracedOnce(spec, s.seed, standaloneWorkers, len(s.ref), tr, ph.evalObs)
			default:
				it, err = standaloneOnce(spec, s.seed, standaloneWorkers, len(s.ref))
			}
			if err != nil {
				return nil, err
			}
			if err := sameBytes(what, it.out, s.ref); err != nil {
				return nil, fmt.Errorf("seed %d: %w", s.seed, err)
			}
			it.out, it.sweep = nil, j
			if farm {
				fi.iter = it
				ph.farm = append(ph.farm, fi)
			}
			points += it.points
			run += it.run
			ph.attempted += it.points
			ph.failed += s.c.failed
			ph.iters = append(ph.iters, it)
		}
		ph.rounds = append(ph.rounds, float64(points)/run.Seconds())
	}
	runtime.ReadMemStats(&m1)
	ph.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ph.leaked = float64(runtime.NumGoroutine()-g0) / float64(len(ph.iters))
	ph.peakRSSMB = peakRSSMB()
	return ph, nil
}

// run measures one workload: the untimed set-up, then the measuring
// phases. An untraced run is one phase of the workload. A traced run
// is an untraced phase, a traced phase and, for the farm, an untraced
// standalone phase of the same sweeps, each for half the time.
func run(cfg config) (*result, error) {
	host := fingerprint()
	hb, _ := json.Marshal(host) // plain strings and ints always encode
	fmt.Fprintf(cfg.report, "host %s\n", hb)
	fmt.Fprintf(cfg.report, "workload %s seed %d: %s\n", cfg.wl.name, cfg.seed, cfg.wl.spec)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	subjects, rs, err := setUp(cfg, tr)
	if err != nil {
		return nil, err
	}
	for _, s := range subjects {
		fmt.Fprintf(cfg.report, "gate: sweep seed %d: %d points, spec_hash %s re-expanded, invariants hold\n",
			s.seed, len(s.c.points), s.c.header.SpecHash)
	}
	fmt.Fprintf(cfg.report, "gate: task-level replays reproduce every result\n")

	res := &result{Correct: true, Metrics: map[string]metric{}}
	add := func(ph *phase) {
		if ph != nil {
			res.Attempted += ph.attempted
			res.Failed += ph.failed
		}
	}
	spec := cfg.wl.spec
	if !cfg.trace {
		ph, err := measure(subjects, spec, cfg.wl.farm, cfg.seconds, minRounds, nil)
		if err != nil {
			return nil, err
		}
		add(ph)
		fmt.Fprintf(cfg.report, "rounds: %s points/s\n", formatRates(ph.rounds))
		res.Metrics["points_per_s"] = metric{ph.pointsPerSec(), "1/s"}
		res.Metrics["setup_s"] = metric{ph.setupSec(), "s"}
	} else {
		half := cfg.seconds / 2
		plain, err := measure(subjects, spec, cfg.wl.farm, half, 1, nil)
		if err != nil {
			return nil, err
		}
		traced, err := measure(subjects, spec, cfg.wl.farm, half, 1, tr)
		if err != nil {
			return nil, err
		}
		var standalone *phase
		if cfg.wl.farm {
			if standalone, err = measure(subjects, spec, false, half, 1, nil); err != nil {
				return nil, err
			}
		}
		add(plain)
		add(traced)
		add(standalone)
		l := &layers{cfg: cfg, subjects: subjects, rs: rs, plain: plain, traced: traced, standalone: standalone, tr: tr}
		if err := l.compute(res.Metrics); err != nil {
			return nil, err
		}
		if cfg.traceDir != "" {
			path := filepath.Join(cfg.traceDir, cfg.wl.name+"-seed"+strconv.FormatUint(cfg.seed, 10)+".jsonl")
			if err := writeSpans(path, host, tr.snapshot()); err != nil {
				return nil, err
			}
			fmt.Fprintf(cfg.report, "spans written to %s\n", path)
		}
	}
	printMetrics(cfg.report, res.Metrics)
	return res, nil
}

func formatRates(rates []float64) string {
	s := make([]string, len(rates))
	for i, r := range rates {
		s[i] = strconv.FormatFloat(r, 'f', 1, 64)
	}
	return strings.Join(s, " ")
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
