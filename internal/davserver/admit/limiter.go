// Package admit is the server's overload-protection layer: a fixed
// concurrency gate with one bounded FIFO queue.
//
// The paper's data server leaned on Apache's static knobs — "100
// connections per minute, 15 seconds between requests" — and a cap on
// connections is the wrong failure mode at scale: the server accepts
// work it cannot finish, latency collapses for every client, and the
// rejected ones see a connection reset with no guidance. This package
// is application-level admission instead: requests past the limit wait
// briefly in a bounded queue (cancellation aware, like every queue in
// the storage stack), and every shed response is an honest 429 with a
// Retry-After estimate instead of a reset. The limit is a fixed setting,
// as Apache's is: DESIGN.md §14 records why an adaptive one lost.
package admit

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ShedError reports an admission rejection: the queue was full.
// RetryAfter is the server's honest estimate of when a slot will free
// up, never below a second: a shed without guidance invites an
// immediate retry, which recreates the overload.
type ShedError struct {
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admission shed (queue-full): retry after %s", e.RetryAfter)
}

// Limiter admits at most limit requests at once; up to queueCap more
// wait, first come first served, and the rest are shed. Waiters select
// on ctx.Done() and leave the queue when their client disconnects,
// mirroring the write-gate and path-lock semantics from the
// cancellation stack — the admission queue is the first queue a request
// joins, so it must be the first to let an abandoned request go.
type Limiter struct {
	limit, queueCap int

	mu       sync.Mutex
	inflight int
	queue    []chan time.Time // one per waiter, capacity 1; receiving = admitted at that time
	// Service time of the admitted requests that have finished, for the
	// Retry-After estimate.
	serviceSum time.Duration
	served     int64

	shed, cancelled atomic.Uint64
	waitNs          atomic.Int64
}

// NewLimiter builds a gate of limit slots (at least one) and a queue of
// queue places (zero: past the limit every request sheds at once).
func NewLimiter(limit, queue int) *Limiter {
	return &Limiter{limit: limit, queueCap: queue}
}

// Acquire admits the request or blocks in the queue until a slot
// frees, the queue overflows (ShedError), or ctx ends. On admission it
// returns a release function that must be called exactly once when the
// request finishes; release is idempotent.
func (l *Limiter) Acquire(ctx context.Context) (func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	l.mu.Lock()
	if l.inflight < l.limit && len(l.queue) == 0 {
		// The empty-queue check keeps a newcomer from barging past
		// requests already waiting.
		l.inflight++
		l.mu.Unlock()
		return l.releaseFunc(time.Now()), nil
	}
	if len(l.queue) >= l.queueCap {
		ra := l.retryAfterLocked()
		l.mu.Unlock()
		l.shed.Add(1)
		return nil, &ShedError{RetryAfter: ra}
	}
	grant := make(chan time.Time, 1)
	l.queue = append(l.queue, grant)
	l.mu.Unlock()

	start := time.Now()
	select {
	case grantedAt := <-grant:
		l.waitNs.Add(int64(grantedAt.Sub(start)))
		return l.releaseFunc(grantedAt), nil
	case <-ctx.Done():
		l.mu.Lock()
		i := slices.Index(l.queue, grant)
		if i >= 0 {
			l.queue = slices.Delete(l.queue, i, i+1)
		} else {
			// The grant raced the cancellation: the slot is already in
			// grant. Take it and hand it on (or free it) so no token
			// leaks — the same collision the write gate resolves.
			<-grant
			l.freeLocked()
		}
		l.mu.Unlock()
		l.waitNs.Add(int64(time.Since(start)))
		l.cancelled.Add(1)
		return nil, ctx.Err()
	}
}

func (l *Limiter) releaseFunc(grantedAt time.Time) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			d := time.Since(grantedAt)
			l.mu.Lock()
			l.serviceSum += d
			l.served++
			l.freeLocked()
			l.mu.Unlock()
		})
	}
}

// freeLocked hands a finished request's slot to the oldest waiter, or
// returns it to the pool when nobody waits. Nobody waits while a slot is
// free, so one slot never has to serve more than one waiter.
func (l *Limiter) freeLocked() {
	if len(l.queue) == 0 {
		l.inflight--
		return
	}
	grant := l.queue[0]
	l.queue = l.queue[1:]
	grant <- time.Now()
}

// retryAfterLocked estimates when a shed client should try again: the
// time for the queue plus one slot to drain at the mean service time of
// the requests admitted so far, clamped to [1s, 30s]. Always at least a
// second — "retry immediately" would recreate the overload.
func (l *Limiter) retryAfterLocked() time.Duration {
	per := 50 * time.Millisecond // nothing has finished yet; a conservative guess
	if l.served > 0 {
		per = l.serviceSum / time.Duration(l.served)
	}
	d := per * time.Duration(len(l.queue)+1) / time.Duration(l.limit)
	return min(max(d, time.Second), 30*time.Second)
}

// Stats is a point-in-time snapshot of the limiter.
type Stats struct {
	// Inflight and Queued are the current admitted and waiting counts.
	Inflight, Queued int
	// WaitTotal is cumulative time requests spent queued, including
	// waits that ended in cancellation.
	WaitTotal time.Duration
}

// Stats snapshots the limiter's gauges.
func (l *Limiter) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Inflight:  l.inflight,
		Queued:    len(l.queue),
		WaitTotal: time.Duration(l.waitNs.Load()),
	}
}

// Shed and Cancelled report the cumulative requests turned away by a
// full queue and the waits abandoned by their clients.
func (l *Limiter) Shed() uint64      { return l.shed.Load() }
func (l *Limiter) Cancelled() uint64 { return l.cancelled.Load() }
