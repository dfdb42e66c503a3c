package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"mpsockit/internal/dse"
	"mpsockit/internal/obs"
)

// ErrConflict is returned when the coordinator rejects submitted
// result bytes as conflicting with an already-accepted line. This is
// never a transient fault — it means this worker's engine produces
// different bytes than the fleet's, and retrying would resubmit the
// same poison — so the worker stops instead of backing off.
var ErrConflict = errors.New("coord: coordinator rejected results as conflicting")

// errSweepCancelled marks a lease abandoned because its sweep was
// cancelled mid-flight; the worker drops the work and asks for the
// next lease.
var errSweepCancelled = errors.New("coord: sweep cancelled")

// WorkerConfig parameterizes a sweep worker.
type WorkerConfig struct {
	// URL is the coordinator's base URL, e.g. http://host:9090.
	URL string
	// ID is the worker's identity; it seeds the backoff jitter and
	// names the local fallback checkpoints. Defaults to host:pid.
	ID string
	// FlushPoints is how many completed points accumulate before a
	// partial submit, bounding work lost to a worker crash. Default 8.
	FlushPoints int
	// Client is the HTTP client; nil means http.DefaultClient. Chaos
	// tests inject a fault-wrapped transport here.
	Client *http.Client
	// Log receives progress lines; nil discards them.
	Log *log.Logger
	// CheckpointDir, when non-empty, is where the worker saves a
	// shard-form checkpoint of a finished lease it could not deliver
	// because the coordinator vanished. Rejoining resubmits and
	// removes it.
	CheckpointDir string
	// MaxAttempts bounds consecutive failed attempts of any one
	// request before the worker gives up on the coordinator (0 means
	// 10). Between attempts the worker sleeps the backoff schedule.
	MaxAttempts int
	// Backoff bounds the retry delays; zero values default to
	// 50ms..2s.
	BackoffBase, BackoffMax time.Duration
	// OnResult, when non-nil, observes every locally evaluated result
	// before submission. Chaos tests use it to kill a worker
	// mid-lease (by cancelling the worker's context).
	OnResult func(dse.Result)
	// Workers sizes the evaluation pool; <= 0 means GOMAXPROCS.
	Workers int
	// Obs, when non-zero, instruments the evaluation pool (attached to
	// every engine the worker runs). Telemetry never changes result
	// bytes.
	Obs dse.EvalObs
	// Tracer, when set, records lease/eval/flush spans.
	Tracer *obs.Tracer
}

// workerSweep is the worker's cached, hash-verified expansion of one
// tenant sweep — the point list it slices leases out of.
type workerSweep struct {
	header dse.Header
	points []dse.Point
}

// Worker evaluates leased point ranges against a coordinator until
// the farm completes (single-shot coordinators only), the context is
// cancelled, or the coordinator stays unreachable past the retry
// budget. A multi-tenant worker serves whatever sweeps it is leased
// work from, verifying and caching each sweep's expansion on first
// contact.
type Worker struct {
	cfg     WorkerConfig
	client  *http.Client
	log     *log.Logger
	backoff *Backoff
	sweeps  map[string]*workerSweep
	hbEvery time.Duration
	// done is set when a result ack reports farm completion, so the
	// worker exits without needing one more /lease round trip (the
	// coordinator may already be shutting down by then).
	done bool

	// Submitted and Duplicate tally the coordinator's acks, exposed
	// for tests and exit logs.
	Submitted, Duplicate int
}

// NewWorker builds a worker for the given coordinator.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.ID == "" {
		host, _ := os.Hostname()
		cfg.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.FlushPoints <= 0 {
		cfg.FlushPoints = 8
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 10
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	h := fnv.New64a()
	h.Write([]byte(cfg.ID))
	return &Worker{
		cfg:     cfg,
		client:  cfg.Client,
		log:     cfg.Log,
		backoff: NewBackoff(cfg.BackoffBase, cfg.BackoffMax, h.Sum64()),
		sweeps:  make(map[string]*workerSweep),
	}
}

// Run joins the coordinator and works leases until the farm is done.
// It returns nil on farm completion, ctx.Err() on cancellation, and
// an error when the coordinator is unreachable past the retry budget
// or rejects this worker's results as conflicting.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.hello(ctx); err != nil {
		return err
	}
	if err := w.resubmitCheckpoints(ctx); err != nil {
		return err
	}
	for {
		if w.done {
			w.log.Printf("%s: farm complete (%d submitted, %d duplicates)", w.cfg.ID, w.Submitted, w.Duplicate)
			return nil
		}
		var lr LeaseResponse
		if err := w.call(ctx, "/lease", LeaseRequest{Worker: w.cfg.ID}, &lr); err != nil {
			return err
		}
		switch {
		case lr.Done:
			w.log.Printf("%s: farm complete (%d submitted, %d duplicates)", w.cfg.ID, w.Submitted, w.Duplicate)
			return nil
		case lr.Lease == nil:
			delay := time.Duration(lr.RetryMS) * time.Millisecond
			if delay <= 0 {
				delay = 200 * time.Millisecond
			}
			if err := sleepCtx(ctx, delay); err != nil {
				return err
			}
		default:
			sw, err := w.resolveSweep(*lr.Lease, lr.Header)
			if err != nil {
				return err
			}
			if err := w.workLease(ctx, sw, *lr.Lease); err != nil {
				if errors.Is(err, errSweepCancelled) {
					continue
				}
				return err
			}
		}
	}
}

// hello announces the worker and picks up the farm's heartbeat cadence.
func (w *Worker) hello(ctx context.Context) error {
	var hr HelloResponse
	if err := w.call(ctx, "/hello", HelloRequest{Worker: w.cfg.ID}, &hr); err != nil {
		return err
	}
	w.hbEvery = time.Duration(hr.HeartbeatMS) * time.Millisecond
	if w.hbEvery <= 0 {
		w.hbEvery = time.Second
	}
	w.log.Printf("%s: joined farm (%d registered sweep(s))", w.cfg.ID, len(hr.Sweeps))
	return nil
}

// resolveSweep returns the worker's verified expansion of the leased
// sweep, building it on first contact: the spec from the lease header
// is re-expanded locally and the point-list hash compared against the
// coordinator's — a drifted engine refuses the sweep here, before it
// can submit a single conflicting line. The cache makes affinity pay
// off: repeat leases of the same sweep skip straight to evaluation.
func (w *Worker) resolveSweep(l Lease, h *dse.Header) (*workerSweep, error) {
	if sw, ok := w.sweeps[l.Sweep]; ok {
		return sw, nil
	}
	if h == nil {
		return nil, fmt.Errorf("coord: lease for unknown sweep %s carried no header", l.Sweep)
	}
	spec, err := dse.ParseSweep(h.Spec, h.Seed)
	if err != nil {
		return nil, fmt.Errorf("coord: sweep %s spec: %w", l.Sweep, err)
	}
	points, err := spec.Points()
	if err != nil {
		return nil, err
	}
	local := dse.NewHeader(h.Spec, h.Seed, points, nil)
	if local.SpecHash != h.SpecHash {
		return nil, fmt.Errorf("coord: sweep %s spec hash mismatch (coordinator %s, local %s): engine drift, refusing sweep",
			l.Sweep, h.SpecHash, local.SpecHash)
	}
	sw := &workerSweep{header: *h, points: points}
	w.sweeps[l.Sweep] = sw
	w.log.Printf("%s: joined sweep %s: %q seed %d (%d points)", w.cfg.ID, l.Sweep, h.Spec, h.Seed, len(points))
	return sw, nil
}

// workLease evaluates the leased range, submitting partial batches
// every FlushPoints completed points and heartbeating in the
// background. A Cancelled ack or heartbeat aborts the evaluation and
// returns errSweepCancelled — the sweep's tenant withdrew it, so the
// remaining work is dropped, not delivered. If the coordinator
// vanishes mid-lease the worker finishes evaluating, checkpoints the
// undelivered lines locally, and returns the transport error so the
// caller can rejoin later.
func (w *Worker) workLease(ctx context.Context, sw *workerSweep, l Lease) error {
	w.log.Printf("%s: lease %s/%d [%d,%d)", w.cfg.ID, l.Sweep, l.ID, l.Lo, l.Hi)
	// The lease span sits on the coordination row (tid -1), above the
	// per-worker eval rows the engine emits.
	if w.cfg.Tracer != nil {
		leaseStart := time.Now()
		defer func() {
			w.cfg.Tracer.Span("lease", "coord", -1, leaseStart, time.Since(leaseStart),
				obs.Arg{Key: "lease", Val: l.ID},
				obs.Arg{Key: "lo", Val: int64(l.Lo)},
				obs.Arg{Key: "hi", Val: int64(l.Hi)})
		}()
	}
	// leaseCtx aborts the evaluation early on cancellation; cancelled
	// distinguishes that from the caller's ctx ending.
	leaseCtx, stopLease := context.WithCancel(ctx)
	defer stopLease()
	var cancelled atomic.Bool
	abandon := func() {
		cancelled.Store(true)
		stopLease()
	}
	go w.heartbeatLoop(leaseCtx, l, abandon)

	var pending bytes.Buffer
	pendingPoints := 0
	flush := func() error {
		if pendingPoints == 0 {
			return nil
		}
		ack, err := w.submit(ctx, l.Sweep, l.ID, pending.Bytes())
		if err != nil {
			return err
		}
		if ack.Cancelled {
			abandon()
			return errSweepCancelled
		}
		pending.Reset()
		pendingPoints = 0
		return nil
	}

	var evalErr error
	eng := dse.Engine{
		Workers: w.cfg.Workers,
		Obs:     w.cfg.Obs,
		Tracer:  w.cfg.Tracer,
		// OnResult runs on the engine's collector goroutine, in point
		// order — so pending accumulates the exact bytes a standalone
		// run would write for this range.
		OnResult: func(r dse.Result) {
			if w.cfg.OnResult != nil {
				w.cfg.OnResult(r)
			}
			if err := dse.WriteResult(&pending, r); err != nil && evalErr == nil {
				evalErr = err
				return
			}
			pendingPoints++
			if pendingPoints >= w.cfg.FlushPoints && evalErr == nil {
				if err := flush(); err != nil {
					// Keep evaluating: the lease is already paid for
					// and the undelivered lines checkpoint locally
					// below. Only remember the first delivery failure.
					evalErr = err
				}
			}
		},
	}
	eng.RunContext(leaseCtx, sw.points[l.Lo:l.Hi])
	if cancelled.Load() || errors.Is(evalErr, errSweepCancelled) {
		w.log.Printf("%s: lease %s/%d abandoned: sweep cancelled", w.cfg.ID, l.Sweep, l.ID)
		return errSweepCancelled
	}
	if evalErr == nil {
		evalErr = flush()
	}
	if evalErr != nil {
		if errors.Is(evalErr, ErrConflict) || errors.Is(evalErr, errSweepCancelled) || ctx.Err() != nil {
			return evalErr
		}
		// Coordinator vanished: save what we could not deliver in
		// shard-file form and surface the error.
		if err := w.checkpointLocal(sw, l, pending.Bytes()); err != nil {
			w.log.Printf("%s: local checkpoint failed: %v", w.cfg.ID, err)
		}
		return evalErr
	}
	return nil
}

// heartbeatLoop keeps the lease alive while evaluation runs. Transport
// failures are ignored — a missed heartbeat at worst gets the range
// reissued, and duplicated evaluation is harmless by construction —
// but a Cancelled verdict aborts the lease via abandon.
func (w *Worker) heartbeatLoop(ctx context.Context, l Lease, abandon func()) {
	t := time.NewTicker(w.hbEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			var hr HeartbeatResponse
			if err := w.callOnce(ctx, "/heartbeat", HeartbeatRequest{Worker: w.cfg.ID, Sweep: l.Sweep, Lease: l.ID}, &hr); err == nil && hr.Cancelled {
				abandon()
				return
			}
		}
	}
}

// submit posts a JSONL batch for one sweep, retrying transient
// failures with backoff. A 409 (conflict) maps to ErrConflict and is
// not retried; a Cancelled ack is returned for the caller to act on.
func (w *Worker) submit(ctx context.Context, sweepID string, leaseID int64, lines []byte) (ResultAck, error) {
	url := fmt.Sprintf("%s/results?worker=%s&sweep=%s&lease=%d", w.cfg.URL, w.cfg.ID, sweepID, leaseID)
	if w.cfg.Tracer != nil {
		flushStart := time.Now()
		defer func() {
			w.cfg.Tracer.Span("flush", "coord", -1, flushStart, time.Since(flushStart),
				obs.Arg{Key: "lease", Val: leaseID},
				obs.Arg{Key: "bytes", Val: int64(len(lines))})
		}()
	}
	var lastErr error
	w.backoff.Reset()
	for attempt := 0; attempt < w.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return ResultAck{}, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(lines))
		if err != nil {
			return ResultAck{}, err
		}
		req.Header.Set("Content-Type", "application/jsonl")
		resp, err := w.client.Do(req)
		if err == nil {
			ack, aerr := decodeAck(resp)
			if aerr == nil {
				w.Submitted += ack.Accepted
				w.Duplicate += ack.Duplicates
				if ack.Done {
					w.done = true
				}
				return ack, nil
			}
			if errors.Is(aerr, ErrConflict) {
				return ResultAck{}, aerr
			}
			err = aerr
		}
		lastErr = err
		if serr := sleepCtx(ctx, w.backoff.Next()); serr != nil {
			return ResultAck{}, serr
		}
	}
	return ResultAck{}, fmt.Errorf("coord: submitting results after %d attempts: %w", w.cfg.MaxAttempts, lastErr)
}

// decodeAck reads a /results response, mapping HTTP status to error
// class.
func decodeAck(resp *http.Response) (ResultAck, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return ResultAck{}, err
	}
	switch {
	case resp.StatusCode == http.StatusConflict:
		return ResultAck{}, fmt.Errorf("%w: %s", ErrConflict, bytes.TrimSpace(body))
	case resp.StatusCode != http.StatusOK:
		return ResultAck{}, fmt.Errorf("coord: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var ack ResultAck
	if err := json.Unmarshal(body, &ack); err != nil {
		return ResultAck{}, fmt.Errorf("coord: decoding ack: %w", err)
	}
	return ack, nil
}

// call posts a JSON request and decodes a JSON response, retrying
// transient failures with the worker's backoff schedule.
func (w *Worker) call(ctx context.Context, path string, in, out any) error {
	var lastErr error
	w.backoff.Reset()
	for attempt := 0; attempt < w.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		lastErr = w.callOnce(ctx, path, in, out)
		if lastErr == nil {
			return nil
		}
		if serr := sleepCtx(ctx, w.backoff.Next()); serr != nil {
			return serr
		}
	}
	return fmt.Errorf("coord: %s after %d attempts: %w", path, w.cfg.MaxAttempts, lastErr)
}

// callOnce is a single JSON request/response round trip.
func (w *Worker) callOnce(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("coord: %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// checkpointLocal saves undelivered result lines as a shard file so a
// later rejoin (this process or a fresh one pointed at the same
// directory) can resubmit them without re-evaluating. The file name
// carries the sweep ID so resubmission can route the lines to the
// right tenant.
func (w *Worker) checkpointLocal(sw *workerSweep, l Lease, lines []byte) error {
	if w.cfg.CheckpointDir == "" || len(lines) == 0 {
		return nil
	}
	if err := os.MkdirAll(w.cfg.CheckpointDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(w.cfg.CheckpointDir, fmt.Sprintf("%s-%s-lease%d.jsonl", w.cfg.ID, l.Sweep, l.ID))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	h := sw.header
	h.Shard = &dse.Shard{Index: 0, Count: 1, Lo: l.Lo, Hi: l.Hi}
	if err := dse.WriteHeader(f, h); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(lines); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	w.log.Printf("%s: checkpointed undelivered lease %s/%d to %s", w.cfg.ID, l.Sweep, l.ID, path)
	return nil
}

// resubmitCheckpoints replays any locally checkpointed lease files
// from an earlier run whose delivery failed, deleting each once the
// coordinator acks it — including a Cancelled ack, which means nobody
// wants the lines any more.
func (w *Worker) resubmitCheckpoints(ctx context.Context) error {
	if w.cfg.CheckpointDir == "" {
		return nil
	}
	paths, err := filepath.Glob(filepath.Join(w.cfg.CheckpointDir, w.cfg.ID+"-sw-*-lease*.jsonl"))
	if err != nil {
		return err
	}
	for _, path := range paths {
		lg, err := dse.ReadLog(path, true)
		if err != nil {
			w.log.Printf("%s: skipping bad checkpoint %s: %v", w.cfg.ID, path, err)
			continue
		}
		sweepID := SweepID(lg.Header)
		ack, err := w.submit(ctx, sweepID, 0, bytes.Join(lg.Raw, []byte("\n")))
		if err != nil {
			return err
		}
		if err := os.Remove(path); err != nil {
			return err
		}
		if ack.Cancelled {
			w.log.Printf("%s: dropped checkpoint %s: sweep %s cancelled", w.cfg.ID, path, sweepID)
			continue
		}
		w.log.Printf("%s: resubmitted %d checkpointed result(s) from %s", w.cfg.ID, len(lg.Raw), path)
	}
	return nil
}

// sleepCtx waits for the delay or the context, whichever ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
