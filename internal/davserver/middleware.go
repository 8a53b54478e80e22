package davserver

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// This file is the hardened server lifecycle: middleware that keeps a
// misbehaving request from taking the daemon down (panic recovery,
// request timeouts, body size limits) and the liveness/readiness
// probes a load balancer needs to drain a dying instance. The paper's
// robustness story stops at surviving large inputs; a production PSE
// also has to survive failures.

// KeepAliveTimeout is the paper's "15 seconds between requests" window
// on persistent connections, for use as http.Server.IdleTimeout.
const KeepAliveTimeout = 15 * time.Second

// HardenOptions configures Harden.
type HardenOptions struct {
	// RequestTimeout bounds each request's total handling time; zero
	// disables the limit. Note the timeout handler buffers responses,
	// so pair a non-zero value with workloads whose responses fit in
	// memory (the 200 MB document GET path should leave it disabled or
	// generous).
	RequestTimeout time.Duration
	// MaxBodyBytes caps request body sizes; zero means unlimited (the
	// paper PUTs 200 MB documents, so there is no default cap).
	MaxBodyBytes int64
	// Logger receives recovered panics; nil discards them.
	Logger *slog.Logger
	// Metrics, when set, counts recovered panics (dav_panics_total).
	Metrics *Metrics
	// OnPanic fires after a panic is recovered and counted — the
	// incident capturer's panic trigger. Must not block or panic.
	OnPanic func(method, path string, value any)
}

// Harden wraps next with the full protection stack: panic recovery
// outermost, then the request timeout, then the body limit.
func Harden(next http.Handler, opts HardenOptions) http.Handler {
	h := next
	if opts.MaxBodyBytes > 0 {
		h = BodyLimit(opts.MaxBodyBytes, h)
	}
	if opts.RequestTimeout > 0 {
		h = http.TimeoutHandler(h, opts.RequestTimeout,
			fmt.Sprintf("request exceeded the %s server timeout", opts.RequestTimeout))
	}
	return recoverer(opts.Logger, opts.Metrics, opts.OnPanic, h)
}

// recoverer converts handler panics into 500 responses instead of
// letting net/http kill the connection, counts them, fires the trigger
// hook, and logs the request ID and stack at ERROR so the fault is
// diagnosable and traceable. The daemon keeps serving other requests.
func recoverer(logger *slog.Logger, m *Metrics, onPanic func(method, path string, value any), next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				// Deliberate connection abort; propagate.
				panic(rec)
			}
			m.CountPanic()
			if onPanic != nil {
				onPanic(r.Method, r.URL.Path, rec)
			}
			if logger != nil {
				logger.LogAttrs(r.Context(), slog.LevelError, "panic recovered",
					slog.String("id", obs.RequestIDFrom(r.Context())),
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.Any("panic", rec),
					slog.String("stack", string(debug.Stack())),
				)
			}
			// Best effort: if the handler already wrote, this is a
			// no-op and the client sees a torn response.
			http.Error(w, "internal server error", http.StatusInternalServerError)
		}()
		next.ServeHTTP(w, r)
	})
}

// BodyLimit rejects request bodies larger than n bytes. Handlers
// reading past the limit get an error and the client a 413 via
// http.MaxBytesReader's machinery.
func BodyLimit(n int64, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength > n {
			http.Error(w, fmt.Sprintf("request body exceeds the %d-byte limit", n),
				http.StatusRequestEntityTooLarge)
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, n)
		next.ServeHTTP(w, r)
	})
}

// Health serves liveness and readiness probes for a DAV deployment.
// Liveness answers 200 whenever the process can run a handler.
// Readiness also requires the backing store to answer a Stat of the
// root, and reports 503 once draining begins so load balancers stop
// routing new work during graceful shutdown. /readyz bodies are JSON
// with per-check detail (see ReadyStatus).
type Health struct {
	store    store.Store
	recovery *store.FSStore // nil when the base store has no crash recovery
	draining atomic.Bool
	// degraded, when set, reports SLO degradation (see SetDegraded).
	degraded atomic.Value // of func() bool
}

// NewHealth builds probes over s: readiness Stats it, through whatever
// wrappers the requests go through. base, when non-nil, is the store
// beneath them, whose recovery state readiness reports.
func NewHealth(s store.Store, base *store.FSStore) *Health {
	return &Health{store: s, recovery: base}
}

// SetDraining flips readiness to 503 (true) or restores it (false).
func (h *Health) SetDraining(on bool) { h.draining.Store(on) }

// SetDegraded installs the SLO degraded probe (typically
// (*ops.SLO).Degraded). A degraded instance stays in rotation — the
// bit is an operator signal on /readyz, not a routing decision: pulling
// every instance of an overloaded service makes the burn worse.
func (h *Health) SetDegraded(fn func() bool) { h.degraded.Store(fn) }

// ServeLive is the /healthz liveness probe.
func (h *Health) ServeLive(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// ReadyCheck is one named probe inside a ReadyStatus.
type ReadyCheck struct {
	OK        bool    `json:"ok"`
	LatencyMS float64 `json:"latency_ms"`
	Error     string  `json:"error,omitempty"`
}

// ReadyStatus is the /readyz response body.
type ReadyStatus struct {
	// Status is "ready", "recovering", "draining", or "unavailable".
	Status     string `json:"status"`
	Draining   bool   `json:"draining"`
	Recovering bool   `json:"recovering,omitempty"`
	// Degraded reports SLO burn past threshold in every window (see
	// SetDegraded). Informational: a degraded instance is still ready.
	Degraded bool `json:"degraded,omitempty"`
	// Recovery is the live journal backlog, present only while
	// Status is "recovering".
	Recovery *store.RecoveryBacklog `json:"recovery,omitempty"`
	Checks   map[string]ReadyCheck  `json:"checks"`
}

// readyProbeTimeout bounds the /readyz store probe: a store wedged
// past this is not ready, and an unbounded probe would wedge the
// health endpoint along with it.
const readyProbeTimeout = 5 * time.Second

// Ready runs the readiness checks and reports the status plus whether
// the instance should receive traffic.
func (h *Health) Ready() (ReadyStatus, bool) {
	st := ReadyStatus{Status: "ready", Checks: map[string]ReadyCheck{}}

	ctx, cancel := context.WithTimeout(context.Background(), readyProbeTimeout)
	defer cancel()
	start := time.Now()
	_, err := h.store.Stat(ctx, "/")
	probe := ReadyCheck{OK: err == nil, LatencyMS: float64(time.Since(start).Microseconds()) / 1000}
	if err != nil {
		probe.Error = err.Error()
		st.Status = "unavailable"
	}
	st.Checks["store"] = probe

	if h.recovery != nil && h.recovery.Recovering() {
		// Crash recovery is still resolving journal intents: reads
		// work but every mutation gets 503, so keep the instance out
		// of rotation until the store is consistent again.
		st.Recovering = true
		st.Status = "recovering"
		b := h.recovery.RecoveryBacklog()
		st.Recovery = &b
	}
	if h.draining.Load() {
		st.Draining = true
		st.Status = "draining"
	}
	if fn, _ := h.degraded.Load().(func() bool); fn != nil && fn() {
		st.Degraded = true
	}
	return st, st.Status == "ready"
}

// ServeReady is the /readyz readiness probe: 200 with a JSON body when
// ready, 503 with the same shape when draining or the store probe
// fails.
func (h *Health) ServeReady(w http.ResponseWriter, _ *http.Request) {
	st, ok := h.Ready()
	w.Header().Set("Content-Type", "application/json")
	if !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}

// Register mounts the probes on mux at /healthz and /readyz.
func (h *Health) Register(mux *http.ServeMux) {
	mux.HandleFunc("/healthz", h.ServeLive)
	mux.HandleFunc("/readyz", h.ServeReady)
}
