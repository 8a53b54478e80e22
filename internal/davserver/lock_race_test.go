package davserver

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/davproto"
)

// These tests exercise the lock manager around its expiry boundary
// under concurrency: refreshers racing stealers, competing unlockers,
// and exact expiry-instant semantics. Time is injected via fakeClock,
// so there are no sleeps and the tests are exact; go test -race
// validates the synchronization.

// fakeClock is a settable time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (fc *fakeClock) now() time.Time {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.t
}

func (fc *fakeClock) advance(d time.Duration) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.t = fc.t.Add(d)
}

func TestLockExpiryBoundaryExact(t *testing.T) {
	fc := &fakeClock{t: time.Unix(5000, 0)}
	lm := NewLockManager()
	lm.SetClock(fc.now)

	al, err := lm.Lock("/doc", davproto.LockExclusive, davproto.Depth0, "o", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Expiry is strict: at exactly t0+timeout the lock still holds.
	fc.advance(10 * time.Second)
	if got := lm.LocksOn("/doc"); len(got) != 1 {
		t.Fatalf("lock gone at the exact expiry instant: %v", got)
	}
	// One nanosecond later it is purged everywhere.
	fc.advance(time.Nanosecond)
	if got := lm.LocksOn("/doc"); len(got) != 0 {
		t.Fatalf("expired lock still visible: %v", got)
	}
	if _, err := lm.Refresh(al.Token, time.Minute); !errors.Is(err, ErrNoSuchLock) {
		t.Fatalf("refresh of expired lock = %v, want ErrNoSuchLock", err)
	}
	if err := lm.Unlock(al.Token); !errors.Is(err, ErrNoSuchLock) {
		t.Fatalf("unlock of expired lock = %v, want ErrNoSuchLock", err)
	}
	// An anonymous write succeeds once the lock has lapsed.
	if !lm.CanWrite("/doc", nil) {
		t.Fatal("expired lock still blocks writes")
	}
}

func TestConcurrentUnlockHasOneWinner(t *testing.T) {
	lm := NewLockManager()
	al, err := lm.Lock("/doc", davproto.LockExclusive, davproto.Depth0, "o", 0)
	if err != nil {
		t.Fatal(err)
	}
	const unlockers = 16
	var wins atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < unlockers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if lm.Unlock(al.Token) == nil {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("unlock winners = %d, want exactly 1", wins.Load())
	}
}

func TestRefreshRacesStealAcrossExpiry(t *testing.T) {
	// A refresher keeps extending a short-lived lock while a stealer
	// waits for it to lapse and a third party advances the clock. No
	// interleaving may ever leave two exclusive locks on the resource,
	// and a successful steal must permanently defeat the old token.
	fc := &fakeClock{t: time.Unix(9000, 0)}
	lm := NewLockManager()
	lm.SetClock(fc.now)

	const timeout = 10 * time.Second
	al, err := lm.Lock("/r", davproto.LockExclusive, davproto.Depth0, "holder", timeout)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 400
	var (
		wg         sync.WaitGroup
		stolenTok  atomic.Value // string token of the successful steal
		refreshOK  atomic.Int64
		stealTries atomic.Int64
	)
	start := make(chan struct{})

	wg.Add(1)
	go func() { // clock: each tick eats most of the timeout window
		defer wg.Done()
		<-start
		for i := 0; i < rounds; i++ {
			fc.advance(timeout - time.Second)
		}
	}()

	wg.Add(1)
	go func() { // refresher: extends until the token dies
		defer wg.Done()
		<-start
		for i := 0; i < rounds; i++ {
			if _, err := lm.Refresh(al.Token, timeout); err != nil {
				if !errors.Is(err, ErrNoSuchLock) {
					t.Errorf("refresh: %v", err)
				}
				return
			}
			refreshOK.Add(1)
		}
	}()

	wg.Add(1)
	go func() { // stealer: grabs the lock the moment it lapses
		defer wg.Done()
		<-start
		for i := 0; i < rounds; i++ {
			stealTries.Add(1)
			got, err := lm.Lock("/r", davproto.LockExclusive, davproto.Depth0, "thief", 0)
			if err == nil {
				stolenTok.Store(got.Token)
				return
			}
			if !errors.Is(err, ErrLocked) {
				t.Errorf("steal: %v", err)
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // invariant checker: never two locks on /r
		defer wg.Done()
		<-start
		for i := 0; i < rounds; i++ {
			if locks := lm.LocksOn("/r"); len(locks) > 1 {
				t.Errorf("two exclusive locks coexist: %+v", locks)
				return
			}
		}
	}()

	close(start)
	wg.Wait()

	if tok, ok := stolenTok.Load().(string); ok {
		// The steal won: the original token must be dead for good, and
		// only the thief's token may authorize writes.
		if _, err := lm.Refresh(al.Token, timeout); !errors.Is(err, ErrNoSuchLock) {
			t.Fatalf("old token refreshed after steal: %v", err)
		}
		if lm.CanWrite("/r", []string{al.Token}) {
			t.Fatal("old token still authorizes writes after steal")
		}
		if !lm.CanWrite("/r", []string{tok}) {
			t.Fatal("thief's token does not authorize writes")
		}
	} else {
		// The refresher won every round: its token must still hold.
		if !lm.CanWrite("/r", []string{al.Token}) {
			t.Fatal("refreshed lock lost without a steal")
		}
	}
	t.Logf("refreshes=%d stealAttempts=%d stolen=%v",
		refreshOK.Load(), stealTries.Load(), stolenTok.Load() != nil)
}

func TestRefreshRacesUnlock(t *testing.T) {
	// Refresh and Unlock racing on the same token: whatever the
	// interleaving, afterwards the token is gone and the resource
	// writable. Repeat to cycle through schedules.
	for i := 0; i < 50; i++ {
		lm := NewLockManager()
		al, err := lm.Lock("/u", davproto.LockExclusive, davproto.Depth0, "o", time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := lm.Refresh(al.Token, time.Hour); err != nil && !errors.Is(err, ErrNoSuchLock) {
				t.Errorf("refresh: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := lm.Unlock(al.Token); err != nil && !errors.Is(err, ErrNoSuchLock) {
				t.Errorf("unlock: %v", err)
			}
		}()
		wg.Wait()
		// Unlock ran (it only tolerates ErrNoSuchLock, which cannot
		// happen here before expiry), so the lock must be gone.
		if locks := lm.LocksOn("/u"); len(locks) != 0 {
			t.Fatalf("iteration %d: lock survived unlock race: %+v", i, locks)
		}
		if !lm.CanWrite("/u", nil) {
			t.Fatalf("iteration %d: resource still locked", i)
		}
	}
}
