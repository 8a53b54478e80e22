package ops

import (
	"sync"
	"time"
)

// DegradedWatcher polls a boolean probe (typically SLO.Degraded) and
// fires a callback on each rising edge — the moment the probe flips
// from false to true. The SLO engine exposes state, not events, so a
// poll is the subscription mechanism; a 1s interval detects a burn
// flip well within the shortest burn window while costing one mutex
// acquisition per tick.
type DegradedWatcher struct {
	probe    func() bool
	onRise   func()
	interval time.Duration

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// WatchDegraded starts a watcher goroutine. probe and onRise must be
// non-nil; interval defaults to 1s when non-positive. onRise is called
// synchronously from the watcher goroutine, so long-running reactions
// should hand off to a goroutine of their own.
func WatchDegraded(probe func() bool, interval time.Duration, onRise func()) *DegradedWatcher {
	if interval <= 0 {
		interval = time.Second
	}
	w := &DegradedWatcher{
		probe:    probe,
		onRise:   onRise,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go w.loop()
	return w
}

func (w *DegradedWatcher) loop() {
	defer close(w.done)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	prev := w.probe() // no edge for "already degraded at start"
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			cur := w.probe()
			if cur && !prev {
				w.onRise()
			}
			prev = cur
		}
	}
}

// Stop halts the watcher and waits for the goroutine to exit. Safe to
// call more than once and on a nil receiver.
func (w *DegradedWatcher) Stop() {
	if w == nil {
		return
	}
	w.mu.Lock()
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	w.mu.Unlock()
	<-w.done
}
