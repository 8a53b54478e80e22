package ops

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// trackerK is the capacity of each heavy-hitter table.
const trackerK = 20

// Tracker is the per-request analytics sink the Instrument middleware
// feeds: two Space-Saving tables — hottest resource paths and hottest
// (method, depth) operation shapes — plus optional SLO accounting. All
// methods are safe for concurrent use and O(K) per observation.
type Tracker struct {
	paths *TopK
	ops   *TopK
	slo   *SLO
	seen  atomic.Int64
}

// NewTracker builds a tracker. A non-nil slo scores every observed
// request against its objectives.
func NewTracker(slo *SLO) *Tracker {
	return &Tracker{
		paths: NewTopK(trackerK),
		ops:   NewTopK(trackerK),
		slo:   slo,
	}
}

// ObserveRequest records one completed request: the resource path and
// the (method, depth) shape go into the heavy-hitter tables, and the
// latency is scored against the SLO objectives when one is configured.
func (t *Tracker) ObserveRequest(method, path, depth string, status int, d time.Duration) {
	if t == nil {
		return
	}
	if depth == "" {
		depth = "-"
	}
	t.paths.Observe(path)
	t.ops.Observe(method + " depth=" + depth)
	t.seen.Add(1)
	t.slo.Observe(method, status, d)
}

// SLO returns the tracker's SLO engine (nil when none is configured).
func (t *Tracker) SLO() *SLO { return t.slo }

// HotPaths returns the top n resource paths by request count.
func (t *Tracker) HotPaths(n int) []TopEntry { return t.paths.Top(n) }

// HotOps returns the top n (method, depth) shapes by request count.
func (t *Tracker) HotOps(n int) []TopEntry { return t.ops.Top(n) }

// Observations reports how many requests the tracker has seen.
func (t *Tracker) Observations() int64 { return t.seen.Load() }

// Register exposes the hot-path table as rank-labelled gauges:
// dav_hot_path_requests{rank="01"} is the hottest path's count, and so
// on down the table. Ranks — not path labels — keep the exposition's
// cardinality fixed at K series no matter how many distinct paths the
// workload touches; the key names, and the (method, depth) table, live
// on /debug/status, whose JSON carries both tables. Also registers the
// SLO gauges when an engine is attached.
func (t *Tracker) Register(r *obs.Registry) {
	for i := 0; i < t.paths.K(); i++ {
		i := i
		r.GaugeFunc("dav_hot_path_requests",
			"Request count of the rank-th hottest resource path (Space-Saving upper bound).",
			obs.Labels{"rank": fmt.Sprintf("%02d", i+1)},
			func() float64 {
				top := t.paths.Top(i + 1)
				if i >= len(top) {
					return 0
				}
				return float64(top[i].Count)
			})
	}
	if t.slo != nil {
		t.slo.Register(r)
	}
}
