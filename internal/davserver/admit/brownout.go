package admit

import (
	"sync"
	"sync/atomic"
	"time"
)

// Level is a brownout depth. Each level keeps everything the previous
// one gave up and sheds one more behavior; restoration retraces the
// ladder in reverse.
type Level int

const (
	// LevelNone is full service.
	LevelNone Level = iota
	// LevelNoSnapshots skips auto-versioning snapshots on PUT: the
	// overwrite still lands, but the server stops paying the
	// copy-into-history cost. The cheapest thing to give up — history
	// granularity, not data.
	LevelNoSnapshots
	// LevelNoDeepPropfind additionally refuses Depth: infinity PROPFIND
	// with the RFC 4918 <DAV:propfind-finite-depth/> 403 precondition,
	// steering clients to the bounded Depth: 1 walk.
	LevelNoDeepPropfind

	maxLevel = LevelNoDeepPropfind
)

func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelNoSnapshots:
		return "no-snapshots"
	case LevelNoDeepPropfind:
		return "no-deep-propfind"
	}
	return "unknown"
}

// BrownoutConfig wires a Brownout to its degradation signal.
type BrownoutConfig struct {
	// Probe reports whether the server is currently degraded — in davd
	// this is the SLO engine's burn-rate bit. Required.
	Probe func() bool
	// Interval is the polling period (default 5s). Negative disables
	// the background loop entirely; the owner drives Tick by hand
	// (tests).
	Interval time.Duration
	// EnterAfter is how many consecutive degraded polls deepen the
	// brownout one level (default 2); ExitAfter is how many consecutive
	// healthy polls restore one (default 10). The asymmetry is the
	// hysteresis: degrade quickly, recover cautiously, never flap.
	EnterAfter, ExitAfter int
	// OnChange, when set, observes each transition (logging).
	OnChange func(old, new Level)
}

// Brownout walks the degradation ladder in response to a boolean
// degraded signal. It degrades *before* the limiter sheds: giving up
// snapshots and unbounded walks buys capacity without refusing anyone,
// and only if the SLO keeps burning does the ladder deepen.
type Brownout struct {
	cfg   BrownoutConfig
	level atomic.Int32

	mu             sync.Mutex
	degradedStreak int
	healthyStreak  int
	stop           chan struct{}
	done           chan struct{}

	deepens          atomic.Uint64
	restores         atomic.Uint64
	snapshotsSkipped atomic.Uint64
	deepCapped       atomic.Uint64
}

// NewBrownout builds a controller (see BrownoutConfig for defaults).
func NewBrownout(cfg BrownoutConfig) *Brownout {
	if cfg.Interval == 0 {
		cfg.Interval = 5 * time.Second
	}
	if cfg.EnterAfter <= 0 {
		cfg.EnterAfter = 2
	}
	if cfg.ExitAfter <= 0 {
		cfg.ExitAfter = 10
	}
	return &Brownout{cfg: cfg}
}

// Start launches the polling loop; no-op when Interval is negative or
// the loop is already running.
func (b *Brownout) Start() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cfg.Interval < 0 || b.stop != nil {
		return
	}
	b.stop = make(chan struct{})
	b.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(b.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				b.Tick()
			}
		}
	}(b.stop, b.done)
}

// Stop halts the polling loop and waits for it to exit.
func (b *Brownout) Stop() {
	b.mu.Lock()
	stop, done := b.stop, b.done
	b.stop, b.done = nil, nil
	b.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Tick runs one poll: consult the probe, advance the streaks, and move
// at most one level. Exported so tests (and manual-mode owners) can
// drive the ladder deterministically.
func (b *Brownout) Tick() {
	degraded := b.cfg.Probe != nil && b.cfg.Probe()

	b.mu.Lock()
	old := Level(b.level.Load())
	next := old
	if degraded {
		b.healthyStreak = 0
		b.degradedStreak++
		if b.degradedStreak >= b.cfg.EnterAfter && old < maxLevel {
			next = old + 1
			b.degradedStreak = 0
			b.deepens.Add(1)
		}
	} else {
		b.degradedStreak = 0
		b.healthyStreak++
		if b.healthyStreak >= b.cfg.ExitAfter && old > LevelNone {
			next = old - 1
			b.healthyStreak = 0
			b.restores.Add(1)
		}
	}
	b.level.Store(int32(next))
	b.mu.Unlock()

	// The change callback runs outside the mutex: it is caller code.
	if next != old && b.cfg.OnChange != nil {
		b.cfg.OnChange(old, next)
	}
}

// Level reports the current depth. Nil-safe: no controller means full
// service.
func (b *Brownout) Level() Level {
	if b == nil {
		return LevelNone
	}
	return Level(b.level.Load())
}

// SnapshotsDisabled reports whether PUT auto-versioning snapshots
// should be skipped.
func (b *Brownout) SnapshotsDisabled() bool { return b.Level() >= LevelNoSnapshots }

// CapDeepPropfind reports whether Depth: infinity PROPFIND should be
// refused with the finite-depth precondition.
func (b *Brownout) CapDeepPropfind() bool { return b.Level() >= LevelNoDeepPropfind }

// CountSnapshotSkipped and CountDeepCapped record one application of
// the corresponding degradation; the handler calls them so operators
// can see what the brownout actually cost. Nil-safe.
func (b *Brownout) CountSnapshotSkipped() {
	if b != nil {
		b.snapshotsSkipped.Add(1)
	}
}

func (b *Brownout) CountDeepCapped() {
	if b != nil {
		b.deepCapped.Add(1)
	}
}

// BrownoutStats is a snapshot of the controller's counters.
type BrownoutStats struct {
	Level            Level
	Deepens          uint64
	Restores         uint64
	SnapshotsSkipped uint64
	DeepCapped       uint64
}

// Stats snapshots the controller. Nil-safe.
func (b *Brownout) Stats() BrownoutStats {
	if b == nil {
		return BrownoutStats{}
	}
	return BrownoutStats{
		Level:            b.Level(),
		Deepens:          b.deepens.Load(),
		Restores:         b.restores.Load(),
		SnapshotsSkipped: b.snapshotsSkipped.Load(),
		DeepCapped:       b.deepCapped.Load(),
	}
}
