package admit

import (
	"sync"
	"sync/atomic"
)

// RetryBudget is the server-side guard against retry amplification:
// when the server sheds, well-behaved clients back off, but a fleet of
// retrying clients (our own davclient included) can still multiply one
// overload into several. The budget is a token bucket fed by fresh
// admitted requests — each deposits Ratio tokens — and drained by
// retries (requests carrying the RetryAttemptHeader), each costing one
// token. While the bucket is empty, retries are shed before they reach
// the limiter, capping retry traffic at roughly Ratio times the fresh
// load no matter how aggressively clients resend.
type RetryBudget struct {
	mu     sync.Mutex
	ratio  float64
	burst  float64
	tokens float64

	allowed  atomic.Uint64
	rejected atomic.Uint64
}

// NewRetryBudget builds a budget allowing retries at ratio times the
// fresh-request rate, with burst headroom for a quiet server (defaults
// 0.1 and 10).
func NewRetryBudget(ratio float64, burst int) *RetryBudget {
	if ratio <= 0 {
		ratio = 0.1
	}
	if burst <= 0 {
		burst = 10
	}
	return &RetryBudget{
		ratio: ratio,
		burst: float64(burst),
		// Start full: after a quiet period the first few retries are
		// always affordable.
		tokens: float64(burst),
	}
}

// RecordFresh credits the budget for one admitted non-retry request.
func (b *RetryBudget) RecordFresh() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}

// AllowRetry reports whether one retry may proceed, consuming a token
// if so. A nil budget allows everything.
func (b *RetryBudget) AllowRetry() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	ok := b.tokens >= 1
	if ok {
		b.tokens--
	}
	b.mu.Unlock()
	if ok {
		b.allowed.Add(1)
	} else {
		b.rejected.Add(1)
	}
	return ok
}

// Allowed and Rejected report the cumulative retry decisions.
func (b *RetryBudget) Allowed() uint64  { return b.allowed.Load() }
func (b *RetryBudget) Rejected() uint64 { return b.rejected.Load() }
