// Package trace is an in-process, stdlib-only span tracer for the
// reproduced architecture. The paper's evaluation (Tables 1-3) reports
// only end-to-end wall-clock numbers and has to argue that the network
// — not mod_dav or the DBM layer — is the bottleneck; spans let this
// reproduction show where the time goes instead: one trace per logical
// client operation, propagated over W3C traceparent into the server
// middleware, the store decorator, and the DBM property layer.
//
// The model is deliberately small: a Span has a trace ID, a span ID, a
// parent link, a name, a monotonic duration, key/value attributes, and
// an error status. Spans are delivered to an optional Recorder as they
// finish; the Recorder applies tail-based sampling (keep every trace
// whose root exceeded a latency threshold, every errored trace, and a
// small random sample of the rest) into a bounded in-memory flight
// recorder that can be exported as JSONL or browsed at /debug/traces.
//
// A nil *Tracer and a nil *Span are both valid and inert, so call
// sites need no conditionals on whether tracing is enabled.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"io"
	"sync"
	"time"
)

// TraceID identifies one trace (one logical operation end to end).
type TraceID [16]byte

// IsZero reports whether the ID is the invalid all-zeros value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 32 lowercase hex characters.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID identifies one span within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zeros value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 16 lowercase hex characters.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// Attr is one key/value annotation on a span. Values are kept as
// rendered strings or integers so exports are deterministic.
type Attr struct {
	Key   string
	Value any
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Config configures a Tracer.
type Config struct {
	// Clock supplies timestamps for span start and end; nil means
	// time.Now. Every duration the tracer reports is measured on this
	// one clock, and the instrumentation layers reuse the span's
	// measurement for their histograms, so a span and the metric
	// observation for the same operation cannot disagree.
	Clock func() time.Time
	// IDSource supplies trace/span ID entropy; nil means crypto/rand.
	// Tests inject a deterministic reader for golden exports.
	IDSource io.Reader
	// Recorder receives finished spans for tail sampling; nil discards
	// them (spans still propagate, e.g. for log stamping).
	Recorder *Recorder
}

// Tracer mints spans. The zero value is not usable; call New. A nil
// *Tracer is valid and produces no spans.
type Tracer struct {
	clock func() time.Time
	rec   *Recorder

	idMu sync.Mutex
	ids  io.Reader
}

// New builds a Tracer from cfg.
func New(cfg Config) *Tracer {
	t := &Tracer{clock: cfg.Clock, ids: cfg.IDSource, rec: cfg.Recorder}
	if t.clock == nil {
		t.clock = time.Now
	}
	if t.ids == nil {
		t.ids = rand.Reader
	}
	return t
}

// Now returns the tracer's clock reading (time.Now for a nil tracer),
// so callers timing fallback paths stay on the same clock as spans.
func (t *Tracer) Now() time.Time {
	if t == nil {
		return time.Now()
	}
	return t.clock()
}

// Recorder returns the attached flight recorder (nil when absent).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// newIDs mints a fresh trace and span ID pair from the ID source.
func (t *Tracer) newIDs() (TraceID, SpanID) {
	var buf [24]byte
	t.idMu.Lock()
	_, err := io.ReadFull(t.ids, buf[:])
	t.idMu.Unlock()
	if err != nil {
		// The platform's entropy failing should not take tracing down;
		// a constant non-zero ID still groups one request's spans.
		buf = [24]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24}
	}
	var tid TraceID
	var sid SpanID
	copy(tid[:], buf[:16])
	copy(sid[:], buf[16:])
	return tid, sid
}

// newSpanID mints a span ID within an existing trace.
func (t *Tracer) newSpanID() SpanID {
	var buf [8]byte
	t.idMu.Lock()
	_, err := io.ReadFull(t.ids, buf[:])
	t.idMu.Unlock()
	if err != nil {
		buf = [8]byte{1, 2, 3, 4, 5, 6, 7, 8}
	}
	return SpanID(buf)
}

// Span is one timed operation inside a trace. All methods are safe on
// a nil receiver (no-ops), and End is safe to call at most once per
// span from one goroutine; distinct spans may be manipulated from
// distinct goroutines concurrently.
type Span struct {
	tracer  *Tracer
	traceID TraceID
	spanID  SpanID
	parent  SpanID
	remote  bool // parent arrived over the wire (traceparent)
	root    bool // no in-process parent: a local root
	name    string
	start   time.Time

	mu    sync.Mutex
	attrs []Attr
	err   error
	ended bool
}

// spanKey carries the active span in a context.
type spanKey struct{}

// SpanFromContext returns the active span in ctx (nil when absent).
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Start begins a span under ctx and returns the derived context
// carrying it. Parentage resolves in order: an in-process parent span
// in ctx, a remote span context installed by ContextWithRemote
// (traceparent), or a fresh root trace. A nil tracer returns ctx
// unchanged and a nil span.
func (t *Tracer) Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	sp := &Span{tracer: t, name: name, start: t.clock(), attrs: attrs}
	switch {
	case SpanFromContext(ctx) != nil:
		parent := SpanFromContext(ctx)
		sp.traceID = parent.traceID
		sp.parent = parent.spanID
		sp.spanID = t.newSpanID()
	case !RemoteFromContext(ctx).TraceID.IsZero():
		rc := RemoteFromContext(ctx)
		sp.traceID = rc.TraceID
		sp.parent = rc.SpanID
		sp.remote = true
		sp.root = true
		sp.spanID = t.newSpanID()
	default:
		sp.traceID, sp.spanID = t.newIDs()
		sp.root = true
	}
	if t.rec != nil && sp.root {
		t.rec.rootStarted(sp.traceID, sp.start)
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// Child begins a span under the span already carried by ctx, using
// that span's tracer. When ctx carries no span the returned span is
// nil (inert) and ctx is returned unchanged — this is how the store
// and DBM layers participate in tracing without holding a Tracer.
func Child(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	return parent.tracer.Start(ctx, name, attrs...)
}

// Region begins a child span (as Child) and returns a finish function
// reporting the operation's duration, measured once on the tracer's
// clock when a trace is active and on the wall clock otherwise. Both
// the span and the caller's metrics then see the same number.
func Region(ctx context.Context, name string, attrs ...Attr) (context.Context, func(err error) time.Duration) {
	ctx, sp := Child(ctx, name, attrs...)
	if sp == nil {
		start := time.Now()
		return ctx, func(error) time.Duration { return time.Since(start) }
	}
	return ctx, sp.EndErr
}

// TraceID returns the span's trace ID (zero for a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.traceID
}

// SpanID returns the span's ID (zero for a nil span).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.spanID
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttr annotates the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// SetError records err as the span's status (nil is ignored).
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// End finishes the span and returns its duration on the tracer's
// clock. Ending twice is a no-op returning the zero duration; ending a
// nil span returns zero.
func (s *Span) End() time.Duration { return s.EndErr(nil) }

// EndErr finishes the span with err as its status (nil for success)
// and returns its duration.
func (s *Span) EndErr(err error) time.Duration {
	if s == nil {
		return 0
	}
	end := s.tracer.clock()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return 0
	}
	s.ended = true
	if err != nil {
		s.err = err
	}
	d := end.Sub(s.start)
	if d < 0 {
		d = 0
	}
	data := SpanData{
		TraceID:  s.traceID,
		SpanID:   s.spanID,
		Parent:   s.parent,
		Remote:   s.remote,
		Root:     s.root,
		Name:     s.name,
		Start:    s.start,
		Duration: d,
		Attrs:    append([]Attr(nil), s.attrs...),
	}
	if s.err != nil {
		data.Err = s.err.Error()
	}
	s.mu.Unlock()
	if s.tracer.rec != nil {
		s.tracer.rec.spanEnded(data)
	}
	return d
}

// SpanData is the immutable record of a finished span.
type SpanData struct {
	TraceID  TraceID
	SpanID   SpanID
	Parent   SpanID // zero = no parent
	Remote   bool   // parent was propagated over the wire
	Root     bool   // local root: no in-process parent
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
	Err      string // non-empty = errored
}

// HasParent reports whether the span has any parent, local or remote.
func (d SpanData) HasParent() bool { return !d.Parent.IsZero() }

// attrMap renders attributes as a map for JSON export; duplicate keys
// keep the last value.
func (d SpanData) attrMap() map[string]any {
	if len(d.Attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(d.Attrs))
	for _, a := range d.Attrs {
		m[a.Key] = a.Value
	}
	return m
}
