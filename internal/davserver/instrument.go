package davserver

import (
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/davserver/admit"
	"repro/internal/dbm"
	"repro/internal/obs"
	"repro/internal/obs/ops"
	"repro/internal/obs/trace"
	"repro/internal/store"
	"repro/internal/store/journal"
	"repro/internal/store/pathlock"
)

// This file is the server's telemetry surface: an Instrument middleware
// recording per-DAV-method latency and status-class counters plus a
// structured access log, a store.OpObserver wiring store-operation
// timings into the same registry, and gauges over the lock table and
// the connection limiter. Together they make the paper's Tables 1–3
// questions — how long does each method take, how big are the bodies,
// where does the store spend its time — answerable on a live server.

// Metric help strings, shared by exposition and docs.
const (
	helpRequests  = "DAV requests served, by method and status class."
	helpDuration  = "DAV request handling latency in seconds, by method."
	helpRespBytes = "Response body sizes in bytes, by method."
	helpStoreOps  = "Store operation latency in seconds, by operation."
	helpStoreErrs = "Store operations that failed with a server error (HTTP 500), by operation."
	helpLocks     = "Active entries in the in-memory lock table."
	helpInflight  = "DAV requests currently being handled."
	helpPanics    = "Handler panics recovered by the hardening middleware."
)

// Metrics bundles a registry with the server's instrument points. One
// Metrics may be shared by several handlers (counters then aggregate).
type Metrics struct {
	Registry *obs.Registry
	inflight *obs.Gauge
	panics   *obs.Counter
}

// NewMetrics builds server metrics over reg (nil creates a fresh
// registry, exposed via the Registry field).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Metrics{
		Registry: reg,
		inflight: reg.Gauge("dav_inflight_requests", helpInflight, nil),
		panics:   reg.Counter("dav_panics_total", helpPanics, nil),
	}
}

// knownMethods bounds the method label's cardinality to the DAV method
// set; anything else (scanners, typos) collapses into "OTHER".
var knownMethods = map[string]bool{
	http.MethodOptions: true, http.MethodGet: true, http.MethodHead: true,
	http.MethodPut: true, http.MethodDelete: true, "MKCOL": true,
	"COPY": true, "MOVE": true, "PROPFIND": true, "PROPPATCH": true,
	"LOCK": true, "UNLOCK": true, "SEARCH": true, "VERSION-CONTROL": true,
	"REPORT": true,
}

func methodLabel(m string) string {
	if knownMethods[m] {
		return m
	}
	return "OTHER"
}

// observeRequest records one completed request. traceID (optional)
// stamps the latency bucket with an exemplar so the exposition can
// link a slow bucket to its recorded trace.
func (m *Metrics) observeRequest(method string, status int, d time.Duration, respBytes int64, traceID string) {
	r := m.Registry
	lm := methodLabel(method)
	// Client aborts (499) get their own class: they are neither server
	// errors nor client protocol errors, and folding them into 4xx
	// would hide how much work clients are abandoning — while counting
	// them as errors would burn SLO budget for the client's network.
	class := obs.StatusClass(status)
	if status == statusClientClosedRequest {
		class = "aborted"
	}
	r.Counter("dav_requests_total", helpRequests,
		obs.Labels{"method": lm, "class": class}).Inc()
	r.Histogram("dav_request_duration_seconds", helpDuration,
		obs.Labels{"method": lm}, obs.DefBuckets).ObserveEx(d.Seconds(), traceID)
	r.Histogram("dav_response_body_bytes", helpRespBytes,
		obs.Labels{"method": lm}, obs.SizeBuckets).Observe(float64(respBytes))
}

// StoreObserver returns a store.OpObserver that records each store
// operation's latency, and its failures, in the registry; pass it to
// store.Instrument around the Store the Handler serves. A failure is an
// error the handler answers with 500: a missing resource, a GET of a
// collection or a precondition is healthy traffic, and cancellations are
// dav_store_cancelled_total's.
func (m *Metrics) StoreObserver() store.OpObserver {
	return func(op string, d time.Duration, err error) {
		m.Registry.Histogram("dav_store_op_duration_seconds", helpStoreOps,
			obs.Labels{"op": op}, obs.DefBuckets).Observe(d.Seconds())
		if statusForErr(err) == http.StatusInternalServerError {
			m.Registry.Counter("dav_store_op_errors_total", helpStoreErrs,
				obs.Labels{"op": op}).Inc()
		}
	}
}

// TrackLocks exposes the lock table's size as the dav_locks_active
// gauge, read at scrape time.
func (m *Metrics) TrackLocks(lm *LockManager) {
	m.Registry.GaugeFunc("dav_locks_active", helpLocks, nil,
		func() float64 { return float64(lm.Len()) })
}

// TrackGate exposes the handler's per-path write-gate counters —
// contention and cancellation-abandoned waits — as gauges read at
// scrape time, mirroring the dav_pathlock_* family one layer up; and,
// when the handler can be degraded, how many Depth: infinity PROPFINDs
// it refused for it.
func (m *Metrics) TrackGate(h *Handler) {
	m.Registry.GaugeFunc("dav_gate_contended_total",
		"Write-gate acquisitions that had to wait (cumulative).", nil,
		func() float64 { return float64(h.gate.Stats().Contended) })
	m.Registry.GaugeFunc("dav_gate_wait_seconds_total",
		"Cumulative time spent blocked on the write gate.", nil,
		func() float64 { return h.gate.Stats().WaitTotal.Seconds() })
	m.Registry.GaugeFunc("dav_gate_cancelled_total",
		"Write-gate waits abandoned because the waiter's context ended (cumulative).", nil,
		func() float64 { return float64(h.gate.Stats().Cancelled) })
	if h.opts.Degraded != nil {
		m.Registry.GaugeFunc("dav_brownout_deep_propfind_capped_total",
			"Depth: infinity PROPFIND or SEARCH refused with the finite-depth precondition under brownout (cumulative).", nil,
			func() float64 { return float64(h.deepCapped.Load()) })
	}
}

// TrackAdmit exposes the admission gate's state — slots in use, queue
// depth and wait, sheds — as gauges read at scrape time, following the
// TrackGate/TrackStore snapshot pattern.
func (m *Metrics) TrackAdmit(l *admit.Limiter) {
	g := m.Registry.GaugeFunc
	g("dav_admit_inflight", "Requests currently admitted past the limiter.", nil,
		func() float64 { return float64(l.Stats().Inflight) })
	g("dav_admit_queued", "Requests waiting in the admission queue.", nil,
		func() float64 { return float64(l.Stats().Queued) })
	g("dav_admit_wait_seconds_total",
		"Cumulative time requests spent in the admission queue, including cancelled waits.", nil,
		func() float64 { return l.Stats().WaitTotal.Seconds() })
	g("dav_admit_shed_total",
		"Requests shed with 429 + Retry-After because the admission queue was full (cumulative).", nil,
		func() float64 { return float64(l.Shed()) })
}

// lockStatser is implemented by stores built on the hierarchical
// path-lock manager (FSStore, MemStore).
type lockStatser interface {
	LockStats() pathlock.Stats
}

// cacheStatser is implemented by stores with a DBM handle cache
// (FSStore).
type cacheStatser interface {
	CacheStats() dbm.CacheStats
}

// recoveryStatser is implemented by crash-consistent stores (FSStore).
type recoveryStatser interface {
	RecoveryStats() store.RecoveryStats
}

// journalStatser is implemented by stores with a write-ahead intent
// journal (FSStore).
type journalStatser interface {
	Journal() *journal.Journal
}

// TrackStore exposes the store's concurrency counters — path-lock
// acquisitions/contention/wait time and DBM handle-cache
// hits/misses/evictions — as gauges read at scrape time. Stores without
// one of the surfaces (or wrapped ones; pass the unwrapped store)
// contribute only what they have.
func (m *Metrics) TrackStore(s store.Store) {
	if ls, ok := s.(lockStatser); ok {
		m.Registry.GaugeFunc("dav_pathlock_acquisitions_total",
			"Path-lock acquisitions completed (cumulative).", nil,
			func() float64 { return float64(ls.LockStats().Acquisitions) })
		m.Registry.GaugeFunc("dav_pathlock_contended_total",
			"Path-lock acquisitions that had to wait (cumulative).", nil,
			func() float64 { return float64(ls.LockStats().Contended) })
		m.Registry.GaugeFunc("dav_pathlock_wait_seconds_total",
			"Cumulative time spent blocked on path locks.", nil,
			func() float64 { return ls.LockStats().WaitTotal.Seconds() })
		m.Registry.GaugeFunc("dav_pathlock_held",
			"Path-lock guards currently held.", nil,
			func() float64 { return float64(ls.LockStats().Held) })
		m.Registry.GaugeFunc("dav_pathlock_cancelled_total",
			"Path-lock waits abandoned because the waiter's context ended (cumulative).", nil,
			func() float64 { return float64(ls.LockStats().Cancelled) })
	}
	if cs, ok := s.(cacheStatser); ok {
		m.Registry.GaugeFunc("dav_dbm_cache_hits_total",
			"DBM handle-cache hits (cumulative).", nil,
			func() float64 { return float64(cs.CacheStats().Hits) })
		m.Registry.GaugeFunc("dav_dbm_cache_misses_total",
			"DBM handle-cache misses, i.e. database opens (cumulative).", nil,
			func() float64 { return float64(cs.CacheStats().Misses) })
		m.Registry.GaugeFunc("dav_dbm_cache_evictions_total",
			"Cached DBM images dropped by the 64 MiB byte budget (cumulative); closing a file at the -dbm-cache bound is not one.", nil,
			func() float64 { return float64(cs.CacheStats().Evictions) })
		m.Registry.GaugeFunc("dav_dbm_cache_invalidations_total",
			"DBM handles closed by delete/rename invalidation (cumulative).", nil,
			func() float64 { return float64(cs.CacheStats().Invalidations) })
		m.Registry.GaugeFunc("dav_dbm_cache_open",
			"Cached DBM databases holding an open file (bound: -dbm-cache).", nil,
			func() float64 { return float64(cs.CacheStats().Open) })
		m.Registry.GaugeFunc("dav_dbm_cache_bytes",
			"Bytes the cached DBM handles' resident record images hold (budget: 64 MiB).", nil,
			func() float64 { return float64(cs.CacheStats().Bytes) })
	}
	if rs, ok := s.(recoveryStatser); ok {
		m.Registry.GaugeFunc("dav_recovery_runs_total",
			"Crash-recovery passes completed (cumulative).", nil,
			func() float64 { return float64(rs.RecoveryStats().Runs) })
		m.Registry.GaugeFunc("dav_recovery_rolled_forward_total",
			"Journal intents completed to their post-state by recovery (cumulative).", nil,
			func() float64 { return float64(rs.RecoveryStats().RolledForward) })
		m.Registry.GaugeFunc("dav_recovery_rolled_back_total",
			"Journal intents undone to their pre-state by recovery (cumulative).", nil,
			func() float64 { return float64(rs.RecoveryStats().RolledBack) })
		m.Registry.GaugeFunc("dav_recovery_swept_tmp_total",
			"Stale staging temporaries removed by recovery (cumulative).", nil,
			func() float64 { return float64(rs.RecoveryStats().SweptTmp) })
		m.Registry.GaugeFunc("dav_recovery_last_duration_seconds",
			"Wall-clock duration of the most recent recovery pass.", nil,
			func() float64 { return rs.RecoveryStats().LastDuration.Seconds() })
		m.Registry.GaugeFunc("dav_recovering",
			"1 while crash recovery gates writes, 0 otherwise.", nil,
			func() float64 {
				if rs.RecoveryStats().Recovering {
					return 1
				}
				return 0
			})
	}
	if js, ok := s.(journalStatser); ok {
		m.Registry.GaugeFunc("dav_journal_pending_intents",
			"Intent-journal records awaiting their commit mark. Nonzero at rest means an operation died mid-flight.", nil,
			func() float64 { return float64(js.Journal().Len()) })
	}
	m.Registry.GaugeFunc("dav_fsync_errors_total",
		"Fsync failures demoted to best-effort after a successful rename (cumulative).",
		obs.Labels{"layer": "store"},
		func() float64 { return float64(store.FsyncErrors()) })
	m.Registry.GaugeFunc("dav_fsync_errors_total",
		"Fsync failures demoted to best-effort after a successful rename (cumulative).",
		obs.Labels{"layer": "dbm"},
		func() float64 { return float64(dbm.FsyncErrors()) })
	m.Registry.GaugeFunc("dav_store_cancelled_total",
		"Store operations abandoned mid-request because the client disconnected (cumulative).",
		obs.Labels{"reason": "client"},
		func() float64 { return float64(storeCancelledClient.Load()) })
	m.Registry.GaugeFunc("dav_store_cancelled_total",
		"Store operations cut off by the per-operation deadline, davd -store-op-timeout (cumulative).",
		obs.Labels{"reason": "deadline"},
		func() float64 { return float64(storeCancelledDeadline.Load()) })
}

// CountPanic records one recovered handler panic.
func (m *Metrics) CountPanic() {
	if m != nil {
		m.panics.Inc()
	}
}

// InstrumentOptions configures InstrumentWith. Every field may be left
// zero; the middleware then degrades to request-ID handling only.
type InstrumentOptions struct {
	// Metrics receives per-method latency/status/size observations.
	Metrics *Metrics
	// AccessLog receives one structured line per request.
	AccessLog *slog.Logger
	// Tracer, when set, opens a server span per request ("dav.server
	// <METHOD>"), continuing the trace carried by a valid inbound
	// traceparent header. The span's duration — measured once, on the
	// tracer's clock — is the same value the metrics histogram and the
	// access log record.
	Tracer *trace.Tracer
	// SlowThreshold emits a WARN line (to SlowLog, falling back to
	// AccessLog) for requests at or above this duration. Zero disables.
	// Point it at the same value as the flight recorder's threshold so
	// every warned request also has a retained trace.
	SlowThreshold time.Duration
	// SlowLog receives slow-request warnings; nil falls back to
	// AccessLog.
	SlowLog *slog.Logger
	// Ops, when set, feeds the workload analytics: hot-resource top-K
	// tables and SLO burn-rate accounting. It sees the same duration the
	// metrics histogram records.
	Ops *ops.Tracker
	// OnSlow fires (after the slow-request warning) for each request at
	// or above SlowThreshold — the incident capturer's slow-trip
	// trigger. Must not block; hand off long work.
	OnSlow func(method, path string, d time.Duration)
}

// InstrumentWith wraps next with the full telemetry middleware: it
// resolves the request's trace ID (inbound X-Request-ID or generated)
// and echoes it on the response, optionally opens the server span,
// records per-method latency/status/size metrics, emits one structured
// access-log line per request with method, path, Depth, status, bytes,
// duration and the request ID, and warns about slow requests. See
// InstrumentOptions for the full surface.
//
// Place it outside Harden so the recorded status includes timeouts and
// recovered panics, and outside auth so rejected credentials still
// appear in the access log.
func InstrumentWith(next http.Handler, o InstrumentOptions) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var span *trace.Span
		if o.Tracer != nil {
			// A malformed traceparent is discarded by Extract: the
			// request then starts a fresh trace rather than continuing
			// an attacker-chosen one.
			ctx, _ := trace.Extract(r.Context(), r)
			ctx, span = o.Tracer.Start(ctx, "dav.server "+methodLabel(r.Method),
				trace.Str("method", r.Method), trace.Str("path", r.URL.Path))
			// With no usable inbound request ID, derive one from the
			// trace so logs and traces join on a single identifier.
			if obs.CleanRequestID(r.Header.Get(obs.RequestIDHeader)) == "" &&
				obs.RequestIDFrom(ctx) == "" {
				ctx = obs.WithRequestID(ctx, span.TraceID().String())
			}
			r = r.WithContext(ctx)
		}
		req, id := obs.EnsureRequestID(r)
		w.Header().Set(obs.RequestIDHeader, id)
		rr := obs.NewResponseRecorder(w)
		m := o.Metrics
		if m != nil {
			m.inflight.Add(1)
		}
		start := o.Tracer.Now() // nil-safe: time.Now()
		next.ServeHTTP(rr, req)
		var d time.Duration
		if span != nil {
			var err error
			if rr.Status() >= 500 {
				err = fmt.Errorf("status %d", rr.Status())
			}
			span.SetAttr(trace.Int("status", int64(rr.Status())),
				trace.Int("resp_bytes", rr.Bytes()))
			// One measurement: the span's duration is what metrics and
			// logs report, so the three surfaces cannot disagree.
			d = span.EndErr(err)
		} else {
			d = time.Since(start)
		}
		if m != nil {
			m.inflight.Add(-1)
			traceID := ""
			if span != nil {
				traceID = span.TraceID().String()
			}
			m.observeRequest(req.Method, rr.Status(), d, rr.Bytes(), traceID)
		}
		if o.Ops != nil {
			o.Ops.ObserveRequest(req.Method, req.URL.Path,
				req.Header.Get("Depth"), rr.Status(), d)
		}
		attrs := []slog.Attr{
			slog.String("id", id),
			slog.String("method", req.Method),
			slog.String("path", req.URL.Path),
			slog.String("depth", req.Header.Get("Depth")),
			slog.Int("status", rr.Status()),
			slog.Int64("bytes", rr.Bytes()),
			slog.Duration("duration", d),
			slog.String("remote", req.RemoteAddr),
		}
		if span != nil {
			attrs = append(attrs, slog.String("trace", span.TraceID().String()))
		}
		if o.AccessLog != nil {
			o.AccessLog.LogAttrs(req.Context(), slog.LevelInfo, "request", attrs...)
		}
		if o.SlowThreshold > 0 && d >= o.SlowThreshold {
			slowLog := o.SlowLog
			if slowLog == nil {
				slowLog = o.AccessLog
			}
			if slowLog != nil {
				slowLog.LogAttrs(req.Context(), slog.LevelWarn, "slow request",
					append(attrs, slog.Duration("threshold", o.SlowThreshold))...)
			}
			if o.OnSlow != nil {
				o.OnSlow(req.Method, req.URL.Path, d)
			}
		}
	})
}
