package ops

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestWatchDegradedRisingEdge verifies the watcher fires once per
// false→true transition, not continuously while degraded.
func TestWatchDegradedRisingEdge(t *testing.T) {
	var degraded atomic.Bool
	var fired atomic.Int64
	w := WatchDegraded(degraded.Load, time.Millisecond, func() { fired.Add(1) })
	defer w.Stop()

	waitFor := func(want int64) {
		deadline := time.Now().Add(2 * time.Second)
		for fired.Load() != want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := fired.Load(); got != want {
			t.Fatalf("fired = %d, want %d", got, want)
		}
	}

	time.Sleep(20 * time.Millisecond) // healthy: no edges
	waitFor(0)

	degraded.Store(true)
	waitFor(1)
	time.Sleep(20 * time.Millisecond) // still degraded: no repeat fire
	waitFor(1)

	degraded.Store(false)
	time.Sleep(20 * time.Millisecond) // recovery is not an edge
	waitFor(1)

	degraded.Store(true)
	waitFor(2)
}

// TestWatchDegradedAlreadyDegraded verifies a watcher started while the
// probe is already true does not fire until a fresh transition.
func TestWatchDegradedAlreadyDegraded(t *testing.T) {
	var degraded atomic.Bool
	degraded.Store(true)
	var fired atomic.Int64
	w := WatchDegraded(degraded.Load, time.Millisecond, func() { fired.Add(1) })
	defer w.Stop()

	time.Sleep(20 * time.Millisecond)
	if fired.Load() != 0 {
		t.Fatalf("fired on pre-existing degradation")
	}
	degraded.Store(false)
	time.Sleep(20 * time.Millisecond)
	degraded.Store(true)
	deadline := time.Now().Add(2 * time.Second)
	for fired.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fired.Load() != 1 {
		t.Fatalf("fired = %d after fresh transition, want 1", fired.Load())
	}
}

// TestWatchDegradedStop verifies Stop is idempotent and nil-safe.
func TestWatchDegradedStop(t *testing.T) {
	w := WatchDegraded(func() bool { return false }, time.Millisecond, func() {})
	w.Stop()
	w.Stop()
	var nilW *DegradedWatcher
	nilW.Stop()
}
