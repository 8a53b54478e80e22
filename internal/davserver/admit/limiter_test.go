package admit

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestLimiterAdmitsExactlyItsLimit: limit 3, queue 2. Three requests are
// admitted at once, the next two wait, the sixth is shed with a
// Retry-After of at least a second, and a finished request's slot goes
// to a waiter without ever exceeding the limit.
func TestLimiterAdmitsExactlyItsLimit(t *testing.T) {
	l := NewLimiter(3, 2)
	var releases []func()
	for i := 0; i < 3; i++ {
		rel, err := l.Acquire(context.Background())
		if err != nil {
			t.Fatalf("acquire %d of the limit: %v", i+1, err)
		}
		releases = append(releases, rel)
	}
	admitted := make(chan func(), 2)
	for i := 0; i < 2; i++ {
		go func() {
			rel, err := l.Acquire(context.Background())
			if err != nil {
				t.Errorf("queued acquire: %v", err)
				rel = func() {}
			}
			admitted <- rel
		}()
		waitFor(t, func() bool { return l.Stats().Queued == i+1 })
	}

	_, err := l.Acquire(context.Background())
	var se *ShedError
	if !errors.As(err, &se) {
		t.Fatalf("acquire past limit and queue: %v, want a ShedError", err)
	}
	if se.RetryAfter < time.Second {
		t.Fatalf("Retry-After %s, want >= 1s", se.RetryAfter)
	}
	if got := l.Shed(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	releases[0]()
	releases = append(releases[1:], <-admitted)
	if s := l.Stats(); s.Inflight != 3 || s.Queued != 1 {
		t.Fatalf("after one release: inflight=%d queued=%d, want 3/1", s.Inflight, s.Queued)
	}
	for _, rel := range releases {
		rel()
	}
	(<-admitted)()
	if s := l.Stats(); s.Inflight != 0 || s.Queued != 0 || s.WaitTotal <= 0 {
		t.Fatalf("drained: %+v, want 0 inflight, 0 queued, some wait", s)
	}
}

func TestLimiterCancelledWaiterLeaksNoToken(t *testing.T) {
	l := NewLimiter(1, 12)
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("holder: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := l.Acquire(ctx)
		errc <- err
	}()
	waitFor(t, func() bool { return l.Stats().Queued == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	if got := l.Cancelled(); got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}
	release()

	// The slot freed by the holder must be immediately acquirable: a
	// leaked token would leave inflight pinned at the limit forever.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	rel2, err := l.Acquire(ctx2)
	if err != nil {
		t.Fatalf("post-cancel acquire: %v", err)
	}
	rel2()
	s := l.Stats()
	if s.Inflight != 0 || s.Queued != 0 {
		t.Fatalf("inflight=%d queued=%d after drain, want 0/0", s.Inflight, s.Queued)
	}
}

func TestLimiterCancelStress(t *testing.T) {
	// Hammer acquire/cancel/release races under -race; afterwards the
	// limiter must be fully drained with no stranded slot.
	l := NewLimiter(2, 24)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if rng.Intn(3) == 0 {
					// Cancel concurrently with the acquire so grants
					// race cancellations.
					go cancel()
				}
				rel, err := l.Acquire(ctx)
				if err == nil {
					if rng.Intn(2) == 0 {
						time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
					}
					rel()
				}
				cancel()
			}
		}(int64(g))
	}
	wg.Wait()
	s := l.Stats()
	if s.Inflight != 0 || s.Queued != 0 {
		t.Fatalf("inflight=%d queued=%d after stress, want 0/0", s.Inflight, s.Queued)
	}
	// Full capacity must still be acquirable.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	r1, err1 := l.Acquire(ctx)
	r2, err2 := l.Acquire(ctx)
	if err1 != nil || err2 != nil {
		t.Fatalf("post-stress acquires: %v %v", err1, err2)
	}
	r1()
	r2()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
