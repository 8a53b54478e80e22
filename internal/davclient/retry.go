package davclient

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// RetryPolicy makes a Client retry idempotent requests on transient
// failures: network errors and 429/502/503/504 responses. A request
// gets at most 4 tries. Backoff is exponential from 50 ms with full
// jitter; a Retry-After header on a rejected response overrides the
// computed delay, and both are capped at 2 s.
//
// Only idempotent DAV methods are retried (OPTIONS, GET, HEAD, PUT,
// DELETE, PROPFIND, PROPPATCH, MKCOL, SEARCH, REPORT). LOCK — in
// particular a lock refresh — is never replayed: a duplicated refresh
// arriving after a competing steal could resurrect a lock the caller
// no longer holds. Requests whose body cannot be rewound (a non-seeking
// io.Reader) get a single attempt regardless of policy.
type RetryPolicy struct {
	// Seed feeds the jitter RNG so tests and the seeded chaos
	// experiment can pin delays; 0 seeds each client from fresh
	// entropy, so two clients do not back off in step.
	Seed int64
	// Sleep waits between attempts; nil uses a context-aware timer
	// sleep. It exists so tests can substitute an instant recorder.
	Sleep func(ctx context.Context, d time.Duration) error
}

// The retry policy's fixed settings.
const (
	// maxAttempts is the total number of tries including the first.
	maxAttempts = 4
	// baseDelay is the backoff ceiling of the first retry; it doubles
	// with each further one.
	baseDelay = 50 * time.Millisecond
	// maxDelay caps both backoff and honoured Retry-After waits.
	maxDelay = 2 * time.Second
)

// DefaultRetryPolicy returns the production policy described above.
func DefaultRetryPolicy() *RetryPolicy { return &RetryPolicy{} }

// retryableMethods are the idempotent methods the policy may replay.
var retryableMethods = map[string]bool{
	http.MethodOptions: true,
	http.MethodGet:     true,
	http.MethodHead:    true,
	http.MethodPut:     true,
	http.MethodDelete:  true,
	"PROPFIND":         true,
	"PROPPATCH":        true,
	"MKCOL":            true,
	"SEARCH":           true,
	"REPORT":           true,
}

// retrier is the per-client runtime state behind a RetryPolicy.
type retrier struct {
	sleep   func(ctx context.Context, d time.Duration) error
	mu      sync.Mutex
	rng     *rand.Rand
	retries atomic.Int64 // total retries performed (metrics)
}

func newRetrier(p *RetryPolicy) *retrier {
	if p == nil {
		return nil
	}
	rt := &retrier{sleep: p.Sleep}
	if rt.sleep == nil {
		rt.sleep = ctxSleep
	}
	seed := p.Seed
	if seed == 0 {
		seed = rand.Int63() // the global source is seeded at random
	}
	rt.rng = rand.New(rand.NewSource(seed))
	return rt
}

// ctxSleep waits for d or until ctx is done.
func ctxSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// attemptsFor reports how many attempts a request may make.
func (rt *retrier) attemptsFor(method string, rewindable bool) int {
	if rt == nil || !retryableMethods[method] || !rewindable {
		return 1
	}
	return maxAttempts
}

// retryableErr reports whether err is transient: a retryable status or
// a network-level failure that is not a context cancellation.
func (rt *retrier) retryableErr(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		switch se.Code {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	// Anything else from http.Client.Do is a transport failure
	// (refused, reset, broken pipe, unexpected EOF, ...).
	return true
}

// delay computes the wait before the given retry (1-based). A server
// Retry-After hint wins over computed backoff; both are capped at
// maxDelay.
func (rt *retrier) delay(retry int, err error) time.Duration {
	var se *StatusError
	if errors.As(err, &se) && se.RetryAfter > 0 {
		return min(se.RetryAfter, maxDelay)
	}
	ceil := min(baseDelay<<(retry-1), maxDelay) // retry < maxAttempts: no overflow
	// Full jitter: uniform in [0, ceil).
	rt.mu.Lock()
	d := time.Duration(rt.rng.Int63n(int64(ceil)))
	rt.mu.Unlock()
	return d
}

// rewinder captures how to reset a request body between attempts.
type rewinder struct {
	seeker io.Seeker
	start  int64
}

// newRewinder inspects body; ok is false when body exists but cannot
// be replayed.
func newRewinder(body io.Reader) (rw rewinder, ok bool) {
	if body == nil {
		return rewinder{}, true
	}
	s, isSeeker := body.(io.Seeker)
	if !isSeeker {
		return rewinder{}, false
	}
	off, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		return rewinder{}, false
	}
	return rewinder{seeker: s, start: off}, true
}

// rewind resets the body to its first-attempt position.
func (rw rewinder) rewind() error {
	if rw.seeker == nil {
		return nil
	}
	_, err := rw.seeker.Seek(rw.start, io.SeekStart)
	return err
}
