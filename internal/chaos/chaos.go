// Package chaos is the fault-injection harness behind the resilience
// layer. The paper's robustness testing (Section 3.2.1) exercised the
// repository under atypical *load* — 100 MB properties, 200 MB
// documents — but never under *failure*. This package supplies the
// missing half: deterministic, seeded injection of connection resets,
// latency, truncated bodies, 5xx bursts, and stalled reads, usable at
// two layers:
//
//   - Transport wraps an http.RoundTripper (client-side faults),
//   - FaultyStore wraps a store.Store (storage-layer faults).
//
// All decisions flow from one seeded Injector, so a failing run can be
// replayed exactly by reusing its seed. Nothing here sleeps unless a
// latency fault is explicitly configured, and even then the sleeper is
// replaceable, so tests stay deterministic and fast.
package chaos

import (
	"math/rand"
	"sync"
	"time"
)

// Kind identifies one injectable fault class.
type Kind int

// Fault kinds, in the fixed order the Injector evaluates them.
const (
	// None means the call proceeds unmolested.
	None Kind = iota
	// Reset simulates a TCP connection reset: the transport returns a
	// connection error.
	Reset
	// Err5xx synthesizes an HTTP 5xx (or 429) response without
	// reaching the server.
	Err5xx
	// Truncate cuts the response body short of its Content-Length, so
	// readers observe an unexpected EOF.
	Truncate
	// Stall makes body reads block until the request context is
	// cancelled or the connection is closed.
	Stall
	// Latency delays the call before forwarding it.
	Latency
)

var kindNames = map[Kind]string{
	None: "none", Reset: "reset", Err5xx: "5xx", Truncate: "truncate",
	Stall: "stall", Latency: "latency",
}

// String names the fault kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return "unknown"
}

// evalOrder is the deterministic order in which fault kinds are
// considered for each call; the first hit wins.
var evalOrder = []Kind{Reset, Err5xx, Truncate, Stall, Latency}

// Plan configures an Injector. Rates and Nth triggers combine: a call
// suffers the first kind (in evalOrder) whose nth-call counter or
// random draw fires.
type Plan struct {
	// Seed feeds the decision RNG; runs with equal seeds and equal
	// call sequences inject identical faults.
	Seed int64
	// Rates maps a fault kind to an independent per-call probability
	// in [0, 1].
	Rates map[Kind]float64
	// Nth fires a fault on every nth eligible call (1-based): Nth[k]=3
	// faults calls 3, 6, 9, ... Deterministic regardless of seed.
	Nth map[Kind]int
	// Latency is the delay injected by Latency faults.
	Latency time.Duration
	// StatusCodes are cycled through by Err5xx faults (default 502,
	// 503).
	StatusCodes []int
	// RetryAfterSec, when positive, attaches a Retry-After header to
	// synthesized 503/429 responses.
	RetryAfterSec int
	// TruncateAfter is how many body bytes a Truncate fault lets
	// through (default 1).
	TruncateAfter int64
	// MaxFaults caps the total number of injected faults; 0 means
	// unlimited. Useful for "burst then recover" scenarios.
	MaxFaults int64
}

// Injector makes seeded fault decisions and counts what it injected.
// It is safe for concurrent use; note that concurrent callers make the
// *interleaving* of decisions scheduling-dependent, so tests that
// assert exact fault sequences should drive it from one goroutine.
type Injector struct {
	mu       sync.Mutex
	plan     Plan
	rng      *rand.Rand
	calls    int64
	injected map[Kind]int64
	sleep    func(time.Duration)
}

// NewInjector builds an Injector from plan.
func NewInjector(plan Plan) *Injector {
	if len(plan.StatusCodes) == 0 {
		plan.StatusCodes = []int{502, 503}
	}
	if plan.TruncateAfter <= 0 {
		plan.TruncateAfter = 1
	}
	return &Injector{
		plan:     plan,
		rng:      rand.New(rand.NewSource(plan.Seed)),
		injected: map[Kind]int64{},
		sleep:    time.Sleep,
	}
}

// SetSleep replaces the sleeper used for latency faults (tests).
func (in *Injector) SetSleep(fn func(time.Duration)) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.sleep = fn
}

// Next decides the fault for the next call.
func (in *Injector) Next() Kind {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.calls++
	if in.plan.MaxFaults > 0 && in.totalLocked() >= in.plan.MaxFaults {
		return None
	}
	for _, k := range evalOrder {
		hit := false
		if n := in.plan.Nth[k]; n > 0 && in.calls%int64(n) == 0 {
			hit = true
		}
		// Draw for every rated kind, hit or not, so the RNG stream —
		// and therefore every later decision — depends only on the
		// call number, not on which faults fired earlier.
		if r := in.plan.Rates[k]; r > 0 && in.rng.Float64() < r {
			hit = true
		}
		if hit {
			in.injected[k]++
			return k
		}
	}
	return None
}

// pickStatus cycles through the configured 5xx codes.
func (in *Injector) pickStatus() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	codes := in.plan.StatusCodes
	return codes[int(in.injected[Err5xx]-1)%len(codes)]
}

// Calls reports how many decisions have been requested.
func (in *Injector) Calls() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls
}

// Injected reports how many faults of kind k have fired.
func (in *Injector) Injected(k Kind) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected[k]
}

// Total reports the total number of injected faults.
func (in *Injector) Total() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.totalLocked()
}

func (in *Injector) totalLocked() int64 {
	var t int64
	for _, n := range in.injected {
		t += n
	}
	return t
}

// doSleep applies the configured latency via the injected sleeper.
func (in *Injector) doSleep() {
	in.mu.Lock()
	d, fn := in.plan.Latency, in.sleep
	in.mu.Unlock()
	if d > 0 {
		fn(d)
	}
}
