package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Recorder is the bounded in-memory flight recorder. Finished spans
// accumulate per trace; when a trace's last local root span ends the
// recorder makes its tail-sampling decision: keep every trace whose
// root exceeded SlowThreshold, every trace containing an errored span,
// and a SampleRate-sized random sample of the rest. Kept traces live
// in a fixed-capacity ring (oldest evicted); dropped traces free their
// memory immediately. All methods are safe for concurrent use.
type Recorder struct {
	cfg RecorderConfig

	mu       sync.Mutex
	active   map[TraceID]*activeTrace
	order    []TraceID // active-trace FIFO, for stale eviction
	retained []*Trace  // decision ring, oldest first
	rnd      *rand.Rand

	// Counters for the admin surface and tests.
	decided   int64
	kept      int64
	dropped   int64
	evicted   int64 // active traces evicted before a decision
	lateSpans int64 // spans arriving after their trace was decided
}

// RecorderConfig bounds and tunes a Recorder. Zero values select the
// documented defaults.
type RecorderConfig struct {
	// Capacity is the maximum number of retained traces (default 256).
	Capacity int
	// MaxSpansPerTrace caps spans buffered per trace; further spans in
	// the same trace are counted but not stored (default 512).
	MaxSpansPerTrace int
	// MaxActive caps concurrently buffering (undecided) traces; the
	// oldest is evicted undecided when exceeded (default 1024).
	MaxActive int
	// SlowThreshold is the root-span latency at or above which a trace
	// is always kept (default 500ms; negative disables the slow rule).
	SlowThreshold time.Duration
	// SampleRate is the probability of keeping a trace that is neither
	// slow nor errored, in [0,1] (default 0: tail rules only).
	SampleRate float64
	// Seed seeds the sampling RNG; 0 derives a seed from the clock.
	Seed int64
}

// Retention reasons recorded on kept traces.
const (
	ReasonSlow   = "slow"
	ReasonError  = "error"
	ReasonSample = "sample"
)

// activeTrace buffers one undecided trace.
type activeTrace struct {
	spans     []SpanData
	openRoots int
	sawRoot   bool
	truncated int // spans dropped by MaxSpansPerTrace
}

// Trace is one retained span tree.
type Trace struct {
	ID        TraceID
	Root      SpanData // the decision root (earliest local root)
	Spans     []SpanData
	Reason    string
	Truncated int // spans not stored due to the per-trace cap
}

// NewRecorder builds a Recorder from cfg.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 256
	}
	if cfg.MaxSpansPerTrace <= 0 {
		cfg.MaxSpansPerTrace = 512
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 1024
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = 500 * time.Millisecond
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Recorder{
		cfg:    cfg,
		active: map[TraceID]*activeTrace{},
		rnd:    rand.New(rand.NewSource(seed)),
	}
}

// rootStarted notes a local root opening so the decision waits until
// every local root in the trace has finished (in-process benchmarks
// run client and server on one tracer; the client root must win).
func (r *Recorder) rootStarted(id TraceID, _ time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	at := r.activeLocked(id)
	at.openRoots++
	at.sawRoot = true
}

// spanEnded buffers one finished span and, when it closes the trace's
// last local root, decides the trace. Only roots create buffers (every
// trace opens with a root), so a span arriving after its trace was
// decided or evicted is counted late rather than resurrecting a buffer
// that would never be decided.
func (r *Recorder) spanEnded(d SpanData) {
	r.mu.Lock()
	defer r.mu.Unlock()
	at, ok := r.active[d.TraceID]
	if !ok {
		r.lateSpans++
		return
	}
	if len(at.spans) < r.cfg.MaxSpansPerTrace {
		at.spans = append(at.spans, d)
	} else {
		at.truncated++
	}
	if d.Root {
		if at.openRoots > 0 {
			at.openRoots--
		}
		if at.openRoots == 0 {
			r.decideLocked(d.TraceID, at)
		}
	}
}

// activeLocked finds or creates the buffer for a trace, enforcing the
// active-trace cap by evicting the oldest undecided trace.
func (r *Recorder) activeLocked(id TraceID) *activeTrace {
	if at, ok := r.active[id]; ok {
		return at
	}
	for len(r.active) >= r.cfg.MaxActive && len(r.order) > 0 {
		victim := r.order[0]
		r.order = r.order[1:]
		if _, ok := r.active[victim]; ok {
			delete(r.active, victim)
			r.evicted++
		}
	}
	at := &activeTrace{}
	r.active[id] = at
	r.order = append(r.order, id)
	return at
}

// decideLocked applies the tail-sampling policy to a finished trace.
func (r *Recorder) decideLocked(id TraceID, at *activeTrace) {
	delete(r.active, id)
	for i, oid := range r.order {
		if oid == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.decided++

	root, ok := decisionRoot(at.spans)
	if !ok {
		r.dropped++
		return
	}
	reason := ""
	switch {
	case r.cfg.SlowThreshold >= 0 && root.Duration >= r.cfg.SlowThreshold:
		reason = ReasonSlow
	case anyErrored(at.spans):
		reason = ReasonError
	case r.cfg.SampleRate > 0 && r.rnd.Float64() < r.cfg.SampleRate:
		reason = ReasonSample
	default:
		r.dropped++
		return
	}
	r.kept++
	spans := at.spans
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	r.retained = append(r.retained, &Trace{
		ID: id, Root: root, Spans: spans, Reason: reason, Truncated: at.truncated,
	})
	if over := len(r.retained) - r.cfg.Capacity; over > 0 {
		r.retained = append([]*Trace(nil), r.retained[over:]...)
	}
}

// decisionRoot picks the span whose duration gates the slow rule: the
// earliest-started local root (preferring a true root with no parent
// at all — in shared-process runs that is the client operation span).
func decisionRoot(spans []SpanData) (SpanData, bool) {
	var root SpanData
	found := false
	better := func(c SpanData) bool {
		if !found {
			return true
		}
		// A parentless root outranks a remote-continued one; earlier
		// start breaks ties.
		if !c.HasParent() != !root.HasParent() {
			return !c.HasParent()
		}
		return c.Start.Before(root.Start)
	}
	for _, s := range spans {
		if s.Root && better(s) {
			root, found = s, true
		}
	}
	if !found && len(spans) > 0 {
		root, found = spans[0], true
		for _, s := range spans[1:] {
			if s.Start.Before(root.Start) {
				root = s
			}
		}
	}
	return root, found
}

// anyErrored reports whether any span recorded an error.
func anyErrored(spans []SpanData) bool {
	for _, s := range spans {
		if s.Err != "" {
			return true
		}
	}
	return false
}

// Traces returns the retained traces, newest first.
func (r *Recorder) Traces() []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, len(r.retained))
	for i, t := range r.retained {
		out[len(out)-1-i] = t
	}
	return out
}

// Find returns the retained trace with the given hex ID, or nil.
func (r *Recorder) Find(hexID string) *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.retained {
		if t.ID.String() == hexID {
			return t
		}
	}
	return nil
}

// Len returns the number of retained traces.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.retained)
}

// Stats reports the recorder's counters.
type RecorderStats struct {
	Retained  int   `json:"retained"`
	Active    int   `json:"active"`
	Decided   int64 `json:"decided"`
	Kept      int64 `json:"kept"`
	Dropped   int64 `json:"dropped"`
	Evicted   int64 `json:"evicted"`
	LateSpans int64 `json:"late_spans"`
}

// Stats returns a snapshot of the recorder's counters.
func (r *Recorder) Stats() RecorderStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RecorderStats{
		Retained: len(r.retained), Active: len(r.active), Decided: r.decided,
		Kept: r.kept, Dropped: r.dropped, Evicted: r.evicted, LateSpans: r.lateSpans,
	}
}

// jsonSpan is the export shape of one span-tree node.
type jsonSpan struct {
	Name     string         `json:"name"`
	SpanID   string         `json:"span_id"`
	ParentID string         `json:"parent_id,omitempty"`
	Remote   bool           `json:"remote_parent,omitempty"`
	StartUS  int64          `json:"start_us"`
	DurUS    int64          `json:"duration_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Err      string         `json:"error,omitempty"`
	Children []jsonSpan     `json:"children,omitempty"`
}

// jsonTrace is the export shape of one trace: one JSONL line.
type jsonTrace struct {
	TraceID   string     `json:"trace_id"`
	Root      string     `json:"root"`
	Start     string     `json:"start"`
	DurUS     int64      `json:"duration_us"`
	Reason    string     `json:"reason"`
	SpanCount int        `json:"span_count"`
	Truncated int        `json:"truncated,omitempty"`
	Spans     []jsonSpan `json:"spans"`
}

// Tree assembles the trace's spans into parent/child order: top-level
// spans (no stored parent) sorted by start, children nested under
// their parents sorted by start.
func (t *Trace) Tree() []jsonSpan {
	base := t.Root.Start
	byID := map[SpanID]bool{}
	for _, s := range t.Spans {
		byID[s.SpanID] = true
	}
	children := map[SpanID][]SpanData{}
	var tops []SpanData
	for _, s := range t.Spans {
		if s.HasParent() && !s.Remote && byID[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			tops = append(tops, s)
		}
	}
	var build func(s SpanData) jsonSpan
	build = func(s SpanData) jsonSpan {
		js := jsonSpan{
			Name:    s.Name,
			SpanID:  s.SpanID.String(),
			StartUS: s.Start.Sub(base).Microseconds(),
			DurUS:   s.Duration.Microseconds(),
			Attrs:   s.attrMap(),
			Err:     s.Err,
		}
		if s.HasParent() {
			js.ParentID = s.Parent.String()
			js.Remote = s.Remote
		}
		for _, c := range children[s.SpanID] {
			js.Children = append(js.Children, build(c))
		}
		return js
	}
	out := make([]jsonSpan, 0, len(tops))
	for _, s := range tops {
		out = append(out, build(s))
	}
	return out
}

// export renders the trace as its JSONL object.
func (t *Trace) export() jsonTrace {
	return jsonTrace{
		TraceID:   t.ID.String(),
		Root:      t.Root.Name,
		Start:     t.Root.Start.UTC().Format(time.RFC3339Nano),
		DurUS:     t.Root.Duration.Microseconds(),
		Reason:    t.Reason,
		SpanCount: len(t.Spans),
		Truncated: t.Truncated,
		Spans:     t.Tree(),
	}
}

// MarshalJSON renders the trace's export shape.
func (t *Trace) MarshalJSON() ([]byte, error) { return json.Marshal(t.export()) }

// WriteJSONL writes every retained trace as one JSON object per line,
// oldest first — the -trace-out export format.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	r.mu.Lock()
	traces := append([]*Trace(nil), r.retained...)
	r.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, t := range traces {
		if err := enc.Encode(t.export()); err != nil {
			return fmt.Errorf("trace: export %s: %w", t.ID, err)
		}
	}
	return nil
}
