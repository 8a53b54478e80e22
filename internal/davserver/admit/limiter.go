package admit

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Config sizes a Limiter. The zero value is usable: every field has a
// conservative default.
type Config struct {
	// Initial is the concurrency limit at startup. Default
	// min(Max, max(Min, 8)): adaptive limiters must start low and probe
	// upward — starting saturated means the latency baseline forms
	// under congestion and the gradient has nothing to compare against.
	Initial int
	// Min and Max bound the adaptive limit (defaults 1 and 1024).
	Min, Max int
	// Queue is the total admission-queue capacity, split across the
	// shed-able classes: Heavy gets 1/6, Write 1/3, Read the rest —
	// the expensive tail queues least and sheds first. Zero means no
	// queueing: past the limit every request sheds immediately.
	Queue int
	// AdjustEvery is how many completed requests form one adjustment
	// window (default 16).
	AdjustEvery int
	// Tolerance is how far the window's mean latency may rise above the
	// moving baseline before the limit is cut (default 2.0 = cut when
	// requests take twice as long as the uncongested floor).
	Tolerance float64
	// Now substitutes a clock for tests; nil uses time.Now.
	Now func() time.Time
}

const (
	// backoff is the multiplicative decrease factor.
	backoff = 0.85
	// baselineGain is the EWMA gain applied when the observed floor
	// rises — baseline tracks the minimum latency per window, dropping
	// instantly (a faster floor is always real) but climbing slowly so
	// congestion cannot talk the baseline up.
	baselineGain = 0.05
)

// ShedError reports an admission rejection. RetryAfter is the server's
// honest estimate of when capacity will free up, never zero: a shed
// without guidance invites an immediate retry, which is the retry storm
// the budget exists to absorb.
type ShedError struct {
	Priority   Priority
	Reason     string // "queue-full" or "retry-budget"
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admission shed (%s, %s): retry after %s",
		e.Priority, e.Reason, e.RetryAfter)
}

type waiter struct {
	pr    Priority
	grant chan time.Time // capacity 1; receiving = admitted at that time
}

// Limiter is an adaptive concurrency limiter: an AIMD gradient on
// observed request latency against a moving baseline, with a short
// priority-classed admission queue. Waiters select on ctx.Done() and
// leave the queue when their client disconnects, mirroring the
// write-gate and path-lock semantics from the cancellation stack — the
// admission queue is the first queue a request joins, so it must be the
// first to let an abandoned request go.
type Limiter struct {
	now         func() time.Time
	min, max    float64
	queueCap    [numPriorities]int
	adjustEvery int
	tolerance   float64

	mu       sync.Mutex
	limit    float64
	inflight int
	queues   [numPriorities][]*waiter
	queued   int
	// Latency window feeding the next adjustment.
	winSum   float64 // seconds
	winMin   float64 // seconds
	winCount int
	winSat   bool // limit reached or queue used during the window
	baseline float64
	recent   float64

	admitted  [numPriorities]atomic.Uint64
	shed      [numPriorities]atomic.Uint64
	cancelled [numPriorities]atomic.Uint64
	waitNs    atomic.Int64
	increases atomic.Uint64
	decreases atomic.Uint64
}

// NewLimiter builds a limiter from cfg (see Config for defaults).
func NewLimiter(cfg Config) *Limiter {
	if cfg.Max <= 0 {
		cfg.Max = 1024
	}
	if cfg.Min <= 0 {
		cfg.Min = 1
	}
	if cfg.Min > cfg.Max {
		cfg.Min = cfg.Max
	}
	if cfg.Initial <= 0 {
		cfg.Initial = 8
		if cfg.Initial > cfg.Max {
			cfg.Initial = cfg.Max
		}
	}
	if cfg.Initial < cfg.Min {
		cfg.Initial = cfg.Min
	}
	if cfg.Initial > cfg.Max {
		cfg.Initial = cfg.Max
	}
	if cfg.AdjustEvery <= 0 {
		cfg.AdjustEvery = 16
	}
	if cfg.Tolerance <= 1 {
		cfg.Tolerance = 2.0
	}
	if cfg.Queue < 0 {
		cfg.Queue = 0
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	l := &Limiter{
		now:         cfg.Now,
		min:         float64(cfg.Min),
		max:         float64(cfg.Max),
		adjustEvery: cfg.AdjustEvery,
		tolerance:   cfg.Tolerance,
		limit:       float64(cfg.Initial),
	}
	// Probe never queues (it never waits at all); the expensive tail
	// gets the smallest share so it sheds first when the queue fills.
	l.queueCap[Heavy] = cfg.Queue / 6
	l.queueCap[Write] = cfg.Queue / 3
	l.queueCap[Read] = cfg.Queue - l.queueCap[Write] - l.queueCap[Heavy]
	return l
}

// effectiveLimit is the integer limit the dispatcher enforces, at least
// one so the limiter can never wedge fully shut.
func (l *Limiter) effectiveLimit() int {
	n := int(l.limit)
	if n < 1 {
		n = 1
	}
	return n
}

// Acquire admits the request or blocks in its class queue until a slot
// frees, the queue overflows (ShedError), or ctx ends. On admission it
// returns a release function that must be called exactly once when the
// request finishes; release is idempotent.
func (l *Limiter) Acquire(ctx context.Context, pr Priority) (func(), error) {
	if pr == Probe {
		// Probes bypass: liveness must answer during the exact overload
		// this limiter manages.
		l.admitted[Probe].Add(1)
		return func() {}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	l.mu.Lock()
	if l.inflight < l.effectiveLimit() && l.queued == 0 {
		// Fast path; the queued==0 check keeps a newcomer from barging
		// past already-waiting requests of any class.
		l.inflight++
		if l.inflight >= l.effectiveLimit() {
			// Running at the limit is demonstrated demand: without this
			// the additive-increase step would only ever fire after
			// someone had to queue or shed.
			l.winSat = true
		}
		grantedAt := l.now()
		l.mu.Unlock()
		l.admitted[pr].Add(1)
		return l.releaseFunc(grantedAt), nil
	}
	l.winSat = true
	if len(l.queues[pr]) >= l.queueCap[pr] {
		ra := l.retryAfterLocked()
		l.mu.Unlock()
		l.shed[pr].Add(1)
		return nil, &ShedError{Priority: pr, Reason: "queue-full", RetryAfter: ra}
	}
	w := &waiter{pr: pr, grant: make(chan time.Time, 1)}
	l.queues[pr] = append(l.queues[pr], w)
	l.queued++
	l.mu.Unlock()

	start := l.now()
	select {
	case grantedAt := <-w.grant:
		l.waitNs.Add(int64(grantedAt.Sub(start)))
		l.admitted[pr].Add(1)
		return l.releaseFunc(grantedAt), nil
	case <-ctx.Done():
		l.mu.Lock()
		removed := l.removeWaiterLocked(w)
		l.mu.Unlock()
		if !removed {
			// The grant raced the cancellation: the slot is already in
			// w.grant. Take it and hand it on (or free it) so no token
			// leaks — the same collision the write gate resolves.
			<-w.grant
			l.relinquish()
		}
		l.waitNs.Add(int64(l.now().Sub(start)))
		l.cancelled[pr].Add(1)
		return nil, ctx.Err()
	}
}

func (l *Limiter) releaseFunc(grantedAt time.Time) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			d := l.now().Sub(grantedAt)
			l.mu.Lock()
			l.observeLocked(d)
			l.inflight--
			l.dispatchLocked()
			l.mu.Unlock()
		})
	}
}

// relinquish frees a granted slot without a latency observation — the
// cancelled waiter never ran, and a zero-duration sample would drag the
// baseline toward zero and trigger a spurious limit cut.
func (l *Limiter) relinquish() {
	l.mu.Lock()
	l.inflight--
	l.dispatchLocked()
	l.mu.Unlock()
}

// dispatchLocked grants freed slots to waiters, highest priority class
// first, FIFO within a class.
func (l *Limiter) dispatchLocked() {
	for l.queued > 0 && l.inflight < l.effectiveLimit() {
		var w *waiter
		for pr := Read; int(pr) < numPriorities; pr++ {
			q := l.queues[pr]
			if len(q) == 0 {
				continue
			}
			w = q[0]
			copy(q, q[1:])
			q[len(q)-1] = nil
			l.queues[pr] = q[:len(q)-1]
			break
		}
		l.queued--
		l.inflight++
		w.grant <- l.now()
	}
}

func (l *Limiter) removeWaiterLocked(w *waiter) bool {
	q := l.queues[w.pr]
	for i, cand := range q {
		if cand == w {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			l.queues[w.pr] = q[:len(q)-1]
			l.queued--
			return true
		}
	}
	return false
}

// observeLocked feeds one admitted request's service time (queue wait
// excluded — the gradient compares server work, not its own queueing)
// into the adjustment window.
func (l *Limiter) observeLocked(d time.Duration) {
	sec := d.Seconds()
	if sec < 0 {
		sec = 0
	}
	if l.winCount == 0 || sec < l.winMin {
		l.winMin = sec
	}
	l.winSum += sec
	l.winCount++
	if l.winCount >= l.adjustEvery {
		l.adjustLocked()
	}
}

// adjustLocked is the AIMD step: cut multiplicatively when the window's
// mean latency exceeds Tolerance times the baseline floor, grow by one
// when latency is healthy and the window actually saturated the limit
// (an idle server earns no headroom it has not demonstrated it needs).
func (l *Limiter) adjustLocked() {
	recent := l.winSum / float64(l.winCount)
	if l.baseline == 0 || l.winMin < l.baseline {
		l.baseline = l.winMin
	} else if !l.winSat {
		// Genuine service-time shifts are learned only from unsaturated
		// windows: drifting the floor upward while running at the limit
		// would slowly normalize congested latency and let the limit
		// run away.
		l.baseline += (l.winMin - l.baseline) * baselineGain
	}
	l.recent = recent
	switch {
	case l.baseline > 0 && recent > l.tolerance*l.baseline && l.limit > l.min:
		l.limit = math.Max(l.min, l.limit*backoff)
		l.decreases.Add(1)
	case l.winSat && l.limit < l.max:
		l.limit = math.Min(l.max, l.limit+1)
		l.increases.Add(1)
	}
	l.winSum, l.winMin, l.winCount, l.winSat = 0, 0, 0, false
	l.dispatchLocked() // a raised limit may admit queued waiters now
}

// retryAfterLocked estimates when a shed client should try again: the
// time for the current queue plus one slot to drain at the recent
// per-request service time, clamped to [1s, 30s]. Always at least a
// second — "retry immediately" would recreate the overload.
func (l *Limiter) retryAfterLocked() time.Duration {
	per := l.recent
	if per == 0 {
		per = l.baseline
	}
	if per == 0 {
		per = 0.05 // no samples yet; a conservative guess
	}
	secs := per * float64(l.queued+1) / float64(l.effectiveLimit())
	d := time.Duration(secs * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// EstimateRetryAfter is the same drain estimate Acquire attaches to
// queue-full sheds, for callers shedding before the limiter is
// consulted (the retry budget).
func (l *Limiter) EstimateRetryAfter() time.Duration {
	if l == nil {
		return time.Second
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.retryAfterLocked()
}

// Stats is a point-in-time snapshot of the limiter.
type Stats struct {
	// Limit is the current adaptive concurrency limit.
	Limit float64
	// Inflight and Queued are the current admitted and waiting counts.
	Inflight, Queued int
	// WaitTotal is cumulative time requests spent queued, including
	// waits that ended in cancellation.
	WaitTotal time.Duration
	// Increases and Decreases count limit adjustments.
	Increases, Decreases uint64
}

// Stats snapshots the limiter's gauges.
func (l *Limiter) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Limit:     l.limit,
		Inflight:  l.inflight,
		Queued:    l.queued,
		WaitTotal: time.Duration(l.waitNs.Load()),
		Increases: l.increases.Load(),
		Decreases: l.decreases.Load(),
	}
}

// Admitted, Shed, and Cancelled report the per-class cumulative
// counters.
func (l *Limiter) Admitted(pr Priority) uint64  { return l.admitted[pr].Load() }
func (l *Limiter) Shed(pr Priority) uint64      { return l.shed[pr].Load() }
func (l *Limiter) Cancelled(pr Priority) uint64 { return l.cancelled[pr].Load() }
