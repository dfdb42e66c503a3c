// Package chaos injects deterministic faults into the coordinator
// worker protocol for testing. A Transport wraps an http.RoundTripper
// and, driven by a seeded RNG, drops responses after the server has
// processed the request (the nastiest failure — the work happened but
// the client believes it did not, so it retries and the server must
// absorb the duplicate), black-holes them (processed, then never
// answered), duplicates requests, delays them, and stalls heartbeats;
// KillSwitch kills a worker mid-lease after a point quota.
// Every fault decision comes from the policy seed, never the clock, so
// a failing chaos run replays exactly under the same seeds — and the
// coordinator's byte-identity guarantee means none of it may change a
// single output byte.
package chaos

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"mpsockit/internal/dse"
	"mpsockit/internal/xrand"
)

// ErrInjected marks a transport failure manufactured by the policy
// (as opposed to a real network error).
var ErrInjected = errors.New("chaos: injected fault")

// Policy sets the fault mix. Probabilities are per request in [0, 1];
// zero values inject nothing.
type Policy struct {
	// Seed drives every fault decision; same seed, same fault
	// sequence for the same request sequence.
	Seed uint64
	// Drop is the probability the response is thrown away AFTER the
	// server processed the request: the client sees a transport error
	// and retries work the coordinator already accepted. This is the
	// fault that proves acceptance is idempotent.
	Drop float64
	// BlackHole is the probability the server processes the request
	// but the answer never arrives: the transport holds the call until
	// the request's context ends, the way a peer that accepts a
	// connection and goes silent does. Only a client that bounds each
	// attempt gets past one. A request drawn for a black hole is not
	// also drawn for Drop.
	BlackHole float64
	// Dup is the probability the request is sent twice back-to-back
	// (a replay); the first response is discarded.
	Dup float64
	// Delay is the probability a request is held up to MaxDelay
	// before sending.
	Delay float64
	// MaxDelay bounds injected latency; zero disables delays.
	MaxDelay time.Duration
	// StallHeartbeats silently swallows every /heartbeat request, so
	// leases expire under workers that are alive and working —
	// forcing reclaim/reissue races while the original worker still
	// finishes and acks late.
	StallHeartbeats bool
}

// Transport is a fault-injecting http.RoundTripper. Safe for
// concurrent use; fault decisions are serialized over one RNG stream.
type Transport struct {
	base   http.RoundTripper
	policy Policy

	mu  sync.Mutex
	rng *xrand.Rand
	// Drops, BlackHoles, Dups, Delays and Stalls count injected
	// faults, so tests can assert the chaos actually fired.
	Drops, BlackHoles, Dups, Delays, Stalls int
}

// NewTransport wraps base (nil means http.DefaultTransport) with the
// policy.
func NewTransport(p Policy, base http.RoundTripper) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{base: base, policy: p, rng: xrand.New(p.Seed)}
}

// Faults returns the total number of faults injected so far.
func (t *Transport) Faults() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.Drops + t.BlackHoles + t.Dups + t.Delays + t.Stalls
}

// fate is one request's drawn faults.
type fate struct {
	stall, dup, blackHole, drop bool
	delay                       time.Duration
}

// roll draws the fault decisions for one request under the lock, so
// concurrent requests consume the RNG stream in a serialized (if
// schedule-dependent) order. A zero probability draws nothing, so a
// policy's fault sequence does not depend on fault kinds it leaves
// at zero.
func (t *Transport) roll(path string) (f fate) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.policy.StallHeartbeats && strings.HasSuffix(path, "/heartbeat") {
		t.Stalls++
		f.stall = true
		return f
	}
	if t.policy.Delay > 0 && t.policy.MaxDelay > 0 && t.rng.Bool(t.policy.Delay) {
		f.delay = time.Duration(t.rng.Float64() * float64(t.policy.MaxDelay))
		t.Delays++
	}
	if t.policy.Dup > 0 && t.rng.Bool(t.policy.Dup) {
		f.dup = true
		t.Dups++
	}
	if t.policy.BlackHole > 0 && t.rng.Bool(t.policy.BlackHole) {
		f.blackHole = true
		t.BlackHoles++
		return f
	}
	if t.policy.Drop > 0 && t.rng.Bool(t.policy.Drop) {
		f.drop = true
		t.Drops++
	}
	return f
}

// RoundTrip applies the policy to one request.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	f := t.roll(req.URL.Path)
	if f.stall {
		return nil, ErrInjected
	}
	// Buffer the body so the request can be replayed for Dup (and so
	// a dropped request was still fully sent first).
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	send := func() (*http.Response, error) {
		r := req.Clone(req.Context())
		if body != nil {
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
		}
		return t.base.RoundTrip(r)
	}
	if f.dup {
		if resp, err := send(); err == nil {
			// Discard the first response; the replay's answer is the
			// one the client sees.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	resp, err := send()
	if err != nil {
		return nil, err
	}
	if f.drop || f.blackHole {
		// The server processed the request; the client never learns.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if f.blackHole {
			<-req.Context().Done()
		}
		return nil, ErrInjected
	}
	return resp, nil
}

// KillSwitch returns an OnResult hook that calls kill (typically a
// context cancel) once n results have been evaluated — a deterministic
// stand-in for a worker process dying mid-lease with results
// unsubmitted.
func KillSwitch(n int, kill func()) func(dse.Result) {
	var mu sync.Mutex
	seen := 0
	return func(dse.Result) {
		mu.Lock()
		defer mu.Unlock()
		seen++
		if seen == n {
			kill()
		}
	}
}
