package pathlock

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// These tests pin the cancellation contract: a waiter whose context is
// done leaves the queue without breaking FIFO fairness, without gating
// compatible waiters queued behind it, and without leaking holds or
// node references — including when the cancellation collides with a
// concurrent grant.

// TestCancelWhileWaiting is the basic contract: a queued waiter whose
// context fires gets ctx.Err() back, is counted, and leaves no trace in
// the queue or the node table.
func TestCancelWhileWaiting(t *testing.T) {
	m := NewManager()
	hold := mustLock(m, "/a/b")

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		g, err := m.RLock(ctx, "/a/b")
		if g != nil {
			g.Release()
		}
		errc <- err
	}()
	waitQueued(t, m, "/a/b", 1)
	cancel()

	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Acquire returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Acquire never returned")
	}
	if got := m.Stats().Cancelled; got != 1 {
		t.Fatalf("Cancelled = %d, want 1", got)
	}
	if q := m.queued("/a/b"); q != 0 {
		t.Fatalf("queue still has %d waiters after cancellation", q)
	}

	hold.Release()
	st := m.Stats()
	if st.Held != 0 || st.Nodes != 0 {
		t.Fatalf("after release: Held=%d Nodes=%d, want 0/0 (cancelled waiter leaked state)", st.Held, st.Nodes)
	}
}

// TestDoneContextNeverAcquires: a request that arrives with an
// already-ended context is rejected at the door even when the lock is
// free (select would pick randomly between a ready grant and a done
// context), is counted as cancelled, and leaves no node behind.
func TestDoneContextNeverAcquires(t *testing.T) {
	m := NewManager()
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if g, err := m.Lock(done, "/doc"); err == nil {
		g.Release()
		t.Fatal("Lock with a done context succeeded")
	}
	if st := m.Stats(); st.Cancelled != 1 || st.Acquisitions != 0 || st.Nodes != 0 {
		t.Fatalf("after a rejected Lock: %+v, want Cancelled=1 Acquisitions=0 Nodes=0", st)
	}
}

// TestCancelledWaiterDoesNotGateCompatible: with a Shared holder, an
// Exclusive waiter gates a later Shared waiter (FIFO). Cancelling the
// Exclusive waiter must re-run the grant scan so the Shared waiter
// proceeds immediately instead of waiting for the holder.
func TestCancelledWaiterDoesNotGateCompatible(t *testing.T) {
	m := NewManager()
	hold := mustRLock(m, "/p")
	defer hold.Release()

	wctx, wcancel := context.WithCancel(context.Background())
	werr := make(chan error, 1)
	go func() {
		g, err := m.Lock(wctx, "/p")
		if g != nil {
			g.Release()
		}
		werr <- err
	}()
	waitQueued(t, m, "/p", 1)

	// The reader queues behind the blocked writer (fairness), so it
	// must NOT be granted yet.
	rdone := make(chan *Guard, 1)
	go func() {
		g, err := m.RLock(context.Background(), "/p")
		if err != nil {
			panic(err)
		}
		rdone <- g
	}()
	waitQueued(t, m, "/p", 2)
	select {
	case <-rdone:
		t.Fatal("reader barged past a queued writer")
	case <-time.After(20 * time.Millisecond):
	}

	// Cancelling the writer must unblock the reader without any release.
	wcancel()
	if err := <-werr; !errors.Is(err, context.Canceled) {
		t.Fatalf("writer returned %v, want context.Canceled", err)
	}
	select {
	case g := <-rdone:
		g.Release()
	case <-time.After(5 * time.Second):
		t.Fatal("reader still blocked after the gating waiter cancelled")
	}
}

// TestDoubleReleaseDoesNotFreeLaterLock is the regression test for
// Guard.Release idempotence: a stale guard released twice must not
// decrement holds that now belong to a later acquirer.
func TestDoubleReleaseDoesNotFreeLaterLock(t *testing.T) {
	m := NewManager()
	g1 := mustLock(m, "/doc")
	g1.Release()

	g2 := mustLock(m, "/doc")
	g1.Release() // stale double release; must be a no-op

	if _, ok := tryAcquire(m, blockWindow, Req{Path: "/doc", Mode: Exclusive}); ok {
		t.Fatal("third acquirer got the lock: stale double release freed g2's hold")
	}
	g2.Release()
	g3, ok := tryAcquire(m, time.Second, Req{Path: "/doc", Mode: Exclusive})
	if !ok {
		t.Fatal("lock not acquirable after the real holder released")
	}
	g3.Release()
	if st := m.Stats(); st.Held != 0 || st.Nodes != 0 {
		t.Fatalf("Held=%d Nodes=%d after all releases, want 0/0", st.Held, st.Nodes)
	}
}

// TestCancelGrantCollision drives the race the implementation resolves
// under the manager mutex: a holder releases (granting the waiter) at
// the same moment the waiter's context fires. Whichever side wins, no
// hold may leak — every iteration must end with an acquirable lock and
// an empty node table. Run with -race.
func TestCancelGrantCollision(t *testing.T) {
	m := NewManager()
	const iters = 500
	for i := 0; i < iters; i++ {
		hold := mustLock(m, "/race")
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			g, err := m.Lock(ctx, "/race")
			if err == nil {
				g.Release()
			} else if !errors.Is(err, context.Canceled) {
				panic(err)
			}
		}()
		waitQueued(t, m, "/race", 1)
		// Release and cancel concurrently to land in the collision
		// window as often as possible.
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); hold.Release() }()
		go func() { defer wg.Done(); cancel() }()
		wg.Wait()
		<-done

		// Regardless of which side won, the lock must be free now.
		g, err := m.Lock(context.Background(), "/race")
		if err != nil {
			t.Fatalf("iter %d: lock unacquirable after collision: %v", i, err)
		}
		g.Release()
	}
	if st := m.Stats(); st.Held != 0 || st.Nodes != 0 {
		t.Fatalf("after %d collision rounds: Held=%d Nodes=%d, want 0/0", iters, st.Held, st.Nodes)
	}
}

// TestCancelStress hammers one hot path with many goroutines whose
// contexts expire at staggered times, then checks the manager's
// bookkeeping balanced out exactly. Run with -race.
func TestCancelStress(t *testing.T) {
	m := NewManager()
	const workers = 16
	const rounds = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stagger timeouts so some acquisitions win and some
				// cancel mid-queue.
				d := time.Duration(w%4+1) * 500 * time.Microsecond
				ctx, cancel := context.WithTimeout(context.Background(), d)
				mode := Exclusive
				if w%2 == 0 {
					mode = Shared
				}
				g, err := m.Acquire(ctx, Req{Path: "/hot/doc", Mode: mode})
				if err == nil {
					time.Sleep(100 * time.Microsecond)
					g.Release()
				} else if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
					panic(err)
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()
	st := m.Stats()
	if st.Held != 0 || st.Nodes != 0 {
		t.Fatalf("after stress: Held=%d Nodes=%d, want 0/0", st.Held, st.Nodes)
	}
	if st.Cancelled == 0 {
		t.Log("note: no acquisition cancelled this run; timings too generous to exercise the cancel path")
	}
}
