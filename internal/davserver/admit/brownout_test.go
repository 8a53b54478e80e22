package admit

import (
	"sync/atomic"
	"testing"
	"time"
)

// manualBrownout builds a controller in manual-Tick mode with a
// switchable probe.
func manualBrownout(enter, exit int) (*Brownout, *bool) {
	degraded := false
	b := NewBrownout(BrownoutConfig{
		Probe:      func() bool { return degraded },
		Interval:   -1,
		EnterAfter: enter,
		ExitAfter:  exit,
	})
	return b, &degraded
}

func TestBrownoutHysteresis(t *testing.T) {
	b, degraded := manualBrownout(2, 3)
	if b.Level() != LevelNone {
		t.Fatalf("initial level = %s", b.Level())
	}

	// One degraded poll is not enough to enter.
	*degraded = true
	b.Tick()
	if b.Level() != LevelNone {
		t.Fatalf("entered after 1 poll (enterAfter=2)")
	}
	b.Tick()
	if b.Level() != LevelNoSnapshots {
		t.Fatalf("level = %s after 2 degraded polls, want no-snapshots", b.Level())
	}
	if !b.SnapshotsDisabled() || b.CapDeepPropfind() {
		t.Fatal("level 1 must disable snapshots only")
	}

	// Two more degraded polls deepen one more level.
	b.Tick()
	b.Tick()
	if b.Level() != LevelNoDeepPropfind || !b.CapDeepPropfind() {
		t.Fatalf("level = %s, want no-deep-propfind", b.Level())
	}
	// The ladder is bounded.
	b.Tick()
	b.Tick()
	if b.Level() != LevelNoDeepPropfind {
		t.Fatalf("level climbed past max: %s", b.Level())
	}

	// Recovery is slower: three healthy polls per restored level.
	*degraded = false
	b.Tick()
	b.Tick()
	if b.Level() != LevelNoDeepPropfind {
		t.Fatalf("restored after 2 healthy polls (exitAfter=3)")
	}
	b.Tick()
	if b.Level() != LevelNoSnapshots {
		t.Fatalf("level = %s after 3 healthy polls, want no-snapshots", b.Level())
	}

	// Flapping resets both streaks: alternating polls never transition.
	for i := 0; i < 10; i++ {
		*degraded = i%2 == 0
		b.Tick()
	}
	if b.Level() != LevelNoSnapshots {
		t.Fatalf("flapping moved the level to %s", b.Level())
	}

	s := b.Stats()
	if s.Deepens != 2 || s.Restores != 1 {
		t.Fatalf("deepens=%d restores=%d, want 2/1", s.Deepens, s.Restores)
	}
}

func TestBrownoutNilSafe(t *testing.T) {
	var b *Brownout
	if b.Level() != LevelNone || b.SnapshotsDisabled() || b.CapDeepPropfind() {
		t.Fatal("nil brownout must mean full service")
	}
	b.CountSnapshotSkipped()
	b.CountDeepCapped()
	b.Start()
	if got := b.Stats(); got != (BrownoutStats{}) {
		t.Fatalf("nil stats = %+v", got)
	}
}

func TestBrownoutPollingLoop(t *testing.T) {
	var degraded atomic.Bool
	degraded.Store(true)
	changes := make(chan Level, 8)
	b := NewBrownout(BrownoutConfig{
		Probe:      degraded.Load,
		Interval:   5 * time.Millisecond,
		EnterAfter: 1,
		ExitAfter:  1,
		OnChange:   func(_, next Level) { changes <- next },
	})
	b.Start()
	defer b.Stop()
	deadline := time.After(5 * time.Second)
	for b.Level() < LevelNoDeepPropfind {
		select {
		case <-changes:
		case <-deadline:
			t.Fatalf("never reached no-deep-propfind (level %s)", b.Level())
		}
	}
	degraded.Store(false)
	for b.Level() > LevelNone {
		select {
		case <-changes:
		case <-deadline:
			t.Fatalf("never restored (level %s)", b.Level())
		}
	}
	b.Stop() // idempotent
}
