// Package obs is the observability layer for the reproduced
// architecture: a dependency-free metrics registry (counters, gauges,
// fixed-bucket histograms) with a Prometheus text-format exposition
// writer, request-scoped request-ID propagation, and log/slog helpers.
//
// The paper's central claims are quantitative — DAV is
// "performance-competitive" with the OODBMS and robust under
// pathological sizes — so a live server must be able to answer the
// same questions its Tables 1–3 did: how long does a PROPFIND take,
// how large are the bodies, where does the store spend its time. This
// package provides the counters and histograms those answers are read
// from, using only the standard library.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels names the dimensions of one metric series. A nil or empty map
// means an unlabelled series. Label values are escaped on exposition;
// label names must be valid Prometheus identifiers.
type Labels map[string]string

// Metric kind names, used in TYPE lines and kind-mismatch panics.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n (n must be non-negative; negative
// deltas are ignored to preserve monotonicity).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Buckets are cumulative on
// exposition, with Prometheus's inclusive upper-bound (le) semantics:
// an observation equal to a boundary lands in that boundary's bucket.
type Histogram struct {
	bounds []float64      // finite upper bounds, ascending
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
	// exemplars holds the most recent traced observation per bucket
	// (same indexing as counts). Written by ObserveEx, read at
	// exposition when the registry has exemplars enabled.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar ties one concrete observation to the trace that produced
// it, OpenMetrics-style: a slow bucket in the latency histogram links
// directly to a recorded trace in the flight recorder.
type Exemplar struct {
	TraceID string
	Value   float64
}

// DefBuckets are latency buckets in seconds, spanning sub-millisecond
// metadata operations (Table 1 reads ~1 ms/property) up to the
// multi-second 200 MB document transfers of Table 2.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// SizeBuckets are byte-size buckets spanning small property values up
// to the paper's 200 MB robustness documents.
var SizeBuckets = []float64{
	256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20,
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{
		bounds:    bs,
		counts:    make([]atomic.Int64, len(bs)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bs)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose bound is >= v; past the end is +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveEx records one value and, when traceID is non-empty, stamps
// the bucket the value lands in with a {trace_id, value} exemplar
// (last writer wins — the freshest traced request per bucket is the
// useful one for debugging). Exemplars only appear in the exposition
// when the registry has SetExemplars(true).
func (h *Histogram) ObserveEx(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// series is one labelled instance within a family.
type series struct {
	labels  Labels
	key     string // rendered label set
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// family is every series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   string
	series map[string]*series
	keys   []string // insertion order; sorted at exposition
}

// Registry holds metric families and renders them. The zero value is
// not usable; call NewRegistry. All methods are safe for concurrent
// use; metric handles returned from the getters are lock-free on the
// hot path.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	// seriesLimit caps the labelled series per family; 0 = unbounded.
	// See SetSeriesLimit.
	seriesLimit int
	overflow    *Counter
	// exemplars switches the exposition to OpenMetrics-style exemplar
	// suffixes on histogram buckets. Off by default so the plain 0.0.4
	// text format (and its golden test) is unchanged.
	exemplars bool
}

// OverflowMetric counts label-value combinations rejected by the
// cardinality guard (see SetSeriesLimit).
const OverflowMetric = "dav_metric_label_overflow_total"

// overflowKey is the label set absorbing rejected combinations.
var overflowKey = Labels{"overflow": "true"}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// SetSeriesLimit installs the cardinality guard: once a family holds n
// labelled series, further new label-value combinations collapse into
// one {overflow="true"} series per family instead of allocating, and
// each rejection increments dav_metric_label_overflow_total. This
// bounds the exposition no matter what a caller uses as a label value
// — a misbehaving client cannot OOM the registry by minting paths.
// n <= 0 removes the limit. Existing series are never evicted.
func (r *Registry) SetSeriesLimit(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seriesLimit = n
	if n > 0 && r.overflow == nil {
		s := r.lookup(OverflowMetric,
			"Label-value combinations rejected by the registry's cardinality guard (cumulative).",
			kindCounter, nil)
		if s.counter == nil {
			s.counter = &Counter{}
		}
		r.overflow = s.counter
	}
}

// SetExemplars enables (or disables) exemplar emission: histogram
// bucket lines gain an OpenMetrics-style ` # {trace_id="..."} value`
// suffix for buckets that have seen a traced observation via
// ObserveEx. Scrapers that speak only the plain 0.0.4 text format
// should leave this off.
func (r *Registry) SetExemplars(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.exemplars = on
}

// lookup finds or creates the series for name+labels, enforcing kind
// consistency across calls and the cardinality guard. Caller holds
// r.mu.
func (r *Registry) lookup(name, help, kind string, labels Labels) *series {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	key := renderLabels(labels, "", 0)
	s, ok := f.series[key]
	if ok {
		return s
	}
	// Cardinality guard: a new labelled combination past the cap lands
	// in the family's single overflow series. Unlabelled series are
	// exempt (one per family by construction), as is the overflow
	// counter itself.
	if r.seriesLimit > 0 && len(labels) > 0 && len(f.series) >= r.seriesLimit &&
		name != OverflowMetric {
		if r.overflow != nil {
			r.overflow.Inc()
		}
		okey := renderLabels(overflowKey, "", 0)
		s, ok = f.series[okey]
		if !ok {
			s = &series{labels: cloneLabels(overflowKey), key: okey}
			f.series[okey] = s
			f.keys = append(f.keys, okey)
		}
		return s
	}
	s = &series{labels: cloneLabels(labels), key: key}
	f.series[key] = s
	f.keys = append(f.keys, key)
	return s
}

// Counter returns the counter for name+labels, creating it on first
// use. help is recorded on first registration of the family.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, kindCounter, labels)
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, kindGauge, labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers (or replaces) a callback-backed gauge: fn is
// evaluated at exposition time. Useful for values owned elsewhere,
// like a lock-table size or a listener's drop count. fn runs with the
// registry lock held and must not call back into the registry.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, kindGauge, labels)
	s.gaugeFn = fn
}

// Histogram returns the histogram for name+labels, creating it with
// the given bucket upper bounds on first use (later calls reuse the
// original buckets). Bounds must be non-empty; +Inf is implicit.
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, kindHistogram, labels)
	if s.hist == nil {
		s.hist = newHistogram(bounds)
	}
	return s.hist
}

// value reads a series's current scalar (counters and gauges).
func (s *series) value() float64 {
	switch {
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.gaugeFn != nil:
		return s.gaugeFn()
	case s.gauge != nil:
		return s.gauge.Value()
	}
	return 0
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4), families and series in sorted
// order so output is stable for golden tests and diffing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, n := range names {
		f := r.families[n]
		sort.Strings(f.keys)
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, key := range f.keys {
			s := f.series[key]
			switch f.kind {
			case kindHistogram:
				writeHistogram(&b, f.name, s, r.exemplars)
			default:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.key, formatValue(s.value()))
			}
		}
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders the _bucket/_sum/_count triplet for one
// series, with cumulative bucket counts. With exemplars on, bucket
// lines whose bucket saw a traced observation carry an
// OpenMetrics-style exemplar suffix (no timestamp, so output stays
// deterministic for golden tests).
func writeHistogram(b *strings.Builder, name string, s *series, exemplars bool) {
	h := s.hist
	if h == nil {
		return
	}
	suffix := func(i int) string {
		if !exemplars {
			return ""
		}
		e := h.exemplars[i].Load()
		if e == nil {
			return ""
		}
		return fmt.Sprintf(" # {trace_id=\"%s\"} %s", escapeLabel(e.TraceID), formatValue(e.Value))
	}
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d%s\n", name,
			renderLabels(s.labels, formatValue(bound), 1), cum, suffix(i))
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d%s\n", name,
		renderLabels(s.labels, "+Inf", 1), cum, suffix(len(h.bounds)))
	fmt.Fprintf(b, "%s_sum%s %s\n", name, s.key, formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.key, h.Count())
}

// Handler returns an http.Handler serving the exposition (mount at
// /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// Snapshot returns the registry's current values as a plain map:
// "name{labels}" -> number for counters and gauges, or a
// {count, sum, buckets} map for histograms. It backs the status console
// and structured dumps.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]any{}
	for _, f := range r.families {
		for _, s := range f.series {
			key := f.name + s.key
			if f.kind == kindHistogram {
				h := s.hist
				if h == nil {
					continue
				}
				buckets := make(map[string]int64, len(h.counts))
				cum := int64(0)
				for i, bound := range h.bounds {
					cum += h.counts[i].Load()
					buckets[formatValue(bound)] = cum
				}
				buckets["+Inf"] = h.Count()
				out[key] = map[string]any{"count": h.Count(), "sum": h.Sum(), "buckets": buckets}
				continue
			}
			out[key] = s.value()
		}
	}
	return out
}

// cloneLabels copies labels so callers cannot mutate registered series.
func cloneLabels(l Labels) Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// renderLabels serializes a label set as {k="v",...} in sorted key
// order. leMode 1 appends an le label (histogram buckets); an empty
// result set renders as "".
func renderLabels(l Labels, le string, leMode int) string {
	if len(l) == 0 && leMode == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[k]))
		b.WriteByte('"')
	}
	if leMode == 1 {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a float sample value ("+Inf"-free; infinities do
// not occur in stored values).
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
