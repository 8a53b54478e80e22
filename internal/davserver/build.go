package davserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/davserver/admit"
	"repro/internal/dbm"
	"repro/internal/obs"
	"repro/internal/obs/ops"
	"repro/internal/obs/prof"
	"repro/internal/obs/trace"
	"repro/internal/store"
)

// This file is the one place that says what a davd is. cmd/davd and
// experiments.StartDAVEnv both serve what Build returns, in the order
// DESIGN.md "Assembly" draws and justifies; CI fails if another
// non-test file calls one of the layer constructors.

// Settings davd once took as flags that nothing ever set.
const (
	authRealm         = "Ecce"
	metricSeriesLimit = 512 // labelled series per family before overflow collapse
)

// The runtime's mutex and block profiles record nothing until a rate is
// set. Build sets both, process-wide, so /debug/pprof/mutex and /block
// and every incident bundle hold the contention since start.
const (
	mutexProfileFraction = 5       // one contended unlock in five
	blockProfileRate     = 100_000 // ns: one blocking event per 100 µs spent blocked
)

// Config describes one davd. The first block is one field per davd
// flag (cmd/davd binds them; the flag's help text documents each) and
// DefaultConfig holds the defaults. Build does not listen: Addr, Admin
// and TraceOut are for the caller that does, and so is ShutdownGrace,
// which also bounds Close's wait for background recovery.
type Config struct {
	Addr, Admin                    string
	Root, Flavour                  string
	DBMCache                       int
	Users                          string
	Prefix                         string
	MaxPropBytes                   int
	MaxBodyBytes                   int64
	RequestTimeout, StoreOpTimeout time.Duration
	ShutdownGrace                  time.Duration
	NoAccessLog, Quiet             bool
	SlowThreshold                  time.Duration
	TraceOut                       string
	TraceSample                    float64
	SLO                            string
	AdmitLimit, AdmitQueue         int
	Brownout                       bool

	// The three injection points: what davd and the experiment
	// environments supply differently. All may be nil.

	// Store replaces the FSStore Build would open at Root and recover in
	// the background. Build takes ownership (Server.Close closes it);
	// recovering an injected store is the caller's business, and /readyz
	// reports its recovery state only when it is a bare *store.FSStore —
	// wrap it and the probes cannot see through the wrapper.
	Store store.Store
	// Logger is the primary log destination; nil discards. Build tees it
	// into the ring behind /debug/logs and incident bundles.
	Logger *slog.Logger
	// Metrics shares a registry across several servers; nil makes one.
	Metrics *Metrics
}

// DefaultConfig returns davd's flag defaults.
func DefaultConfig() Config {
	return Config{
		Addr:          "127.0.0.1:8080",
		Root:          "./davroot",
		Flavour:       "gdbm",
		DBMCache:      store.DefaultHandleCacheSize,
		MaxPropBytes:  DefaultMaxPropBytes,
		ShutdownGrace: 15 * time.Second,
		SlowThreshold: 500 * time.Millisecond,
		TraceSample:   0.01,
		SLO:           "GET,PROPFIND:50ms:0.99",
		AdmitQueue:    64,
	}
}

// Server is an assembled davd, not yet listening.
type Server struct {
	Handler http.Handler // the DAV listener's: probes, then the chain around DAV
	Admin   http.Handler // /metrics and /debug/...; for a separate listener only
	DAV     *Handler     // the protocol handler at the centre of the chain
	Health  *Health      // backs /healthz and /readyz; SetDraining flips readiness
	Logger  *slog.Logger // Config.Logger teed into the log ring

	store     store.Store
	stops     []func()        // background machinery, stopped in reverse before the store closes
	recovered <-chan struct{} // closed when Build's background recovery pass returns; nil for an injected store
	grace     time.Duration   // Config.ShutdownGrace: how long Close waits for that pass
	recorder  *trace.Recorder
	capturer  *prof.Capturer

	triggerMu  sync.Mutex
	closing    bool           // set by Close: later triggers are dropped
	assembling sync.WaitGroup // trigger goroutines still running
}

// Build validates cfg, opens the store and assembles the server.
// Everything that can be rejected is rejected before the store opens,
// so an error return leaves nothing running.
func Build(cfg Config) (*Server, error) {
	flavour, ok := map[string]dbm.Flavour{"gdbm": dbm.GDBM, "sdbm": dbm.SDBM}[cfg.Flavour]
	if !ok {
		return nil, fmt.Errorf("unknown flavour %q (want gdbm or sdbm)", cfg.Flavour)
	}
	if cfg.DBMCache < 1 {
		return nil, fmt.Errorf("-dbm-cache %d: the property-database cache needs at least one handle", cfg.DBMCache)
	}
	var slo *ops.SLO
	if cfg.SLO != "" {
		objectives, err := ops.ParseObjectives(cfg.SLO)
		if err != nil {
			return nil, fmt.Errorf("-slo: %w", err)
		}
		slo = ops.NewSLO(ops.SLOConfig{Objectives: objectives})
	}
	if cfg.Brownout && slo == nil {
		return nil, errors.New("-brownout needs -slo objectives to derive the degraded signal")
	}
	if cfg.AdmitLimit < 0 || cfg.AdmitQueue < 0 {
		return nil, fmt.Errorf("-admit-limit %d, -admit-queue %d: admission slots and queue places cannot be negative (-admit-limit 0 turns admission off)", cfg.AdmitLimit, cfg.AdmitQueue)
	}
	var users *auth.Users
	var err error
	if cfg.Users != "" {
		if users, err = auth.Load(cfg.Users); err != nil {
			return nil, fmt.Errorf("load users: %w", err)
		}
	}

	base := cfg.Logger
	if base == nil {
		base = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	logRing := obs.NewLogRing(512)
	logger := slog.New(logRing.Tee(base.Handler()))
	srv := &Server{Logger: logger}

	// DeferRecovery lets the daemon serve reads immediately after a crash;
	// /readyz reports "recovering" and every mutation gets 503 +
	// Retry-After until the background pass resolves the journal.
	inner := cfg.Store
	fs, _ := inner.(*store.FSStore) // the probes read its recovery state
	if inner == nil {
		fs, err = store.NewFSStoreWith(cfg.Root, flavour, store.FSOptions{
			HandleCacheSize: cfg.DBMCache,
			DeferRecovery:   true,
		})
		if err != nil {
			return nil, fmt.Errorf("open store: %w", err)
		}
		inner = fs
		recovered := make(chan struct{})
		srv.recovered, srv.grace = recovered, cfg.ShutdownGrace
		go func() {
			defer close(recovered)
			rep, err := fs.Recover()
			if err != nil {
				logger.Error("crash recovery failed; writes stay gated", "err", err)
				return
			}
			if rep.Resolved > 0 || rep.SweptTmp > 0 {
				logger.Info("crash recovery complete",
					"intents", rep.Resolved,
					"rolled_forward", rep.RolledForward,
					"rolled_back", rep.RolledBack,
					"swept_tmp", rep.SweptTmp,
					"duration", rep.Duration.String())
			}
		}()
	}

	// Telemetry sinks. Exemplars tie a latency bucket to the trace that
	// landed in it; the flight recorder shares the slow threshold with the
	// middleware's WARN log, so every warned request has a trace.
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = NewMetrics(nil)
	}
	reg := metrics.Registry
	reg.SetSeriesLimit(metricSeriesLimit)
	reg.SetExemplars(true)
	start := time.Now()
	reg.GaugeFunc("process_uptime_seconds", "Seconds since the process registered its metrics.", nil,
		func() float64 { return time.Since(start).Seconds() })
	ops.RegisterRuntime(reg)
	tracker := ops.NewTracker(slo)
	tracker.Register(reg)
	slow := cfg.SlowThreshold
	if slow == 0 {
		slow = -1 // 0 disables slow retention; the recorder treats negatives as off
	}
	srv.recorder = trace.NewRecorder(trace.RecorderConfig{
		SlowThreshold: slow,
		SampleRate:    cfg.TraceSample,
	})
	tracer := trace.New(trace.Config{Recorder: srv.recorder})

	// Store wrappers: Instrument times the operation including its
	// deadline context; OpTimeout outermost gives each DAV-layer store
	// call — not each FSStore internal step — one budget.
	metrics.TrackStore(inner)
	srv.store = store.OpTimeout(store.Instrument(inner, metrics.StoreObserver()), cfg.StoreOpTimeout)

	// Probes read the wrapped store (so a wedged store fails /readyz
	// inside the op timeout) and the base store's recovery state.
	srv.Health = NewHealth(srv.store, fs)
	if slo != nil {
		srv.Health.SetDegraded(slo.Degraded)
	}
	status := ops.NewStatus(ops.StatusConfig{
		Service:  "davd",
		Registry: reg,
		Tracker:  tracker,
		Ready: func() any {
			st, _ := srv.Health.Ready()
			return st
		},
		Links: []ops.Link{
			{Name: "metrics", Href: "/metrics"},
			{Name: "traces", Href: "/debug/traces"},
			{Name: "incidents", Href: "/debug/incidents"},
			{Name: "logs", Href: "/debug/logs"},
			{Name: "pprof", Href: "/debug/pprof/"},
		},
	})

	// The incident capturer bundles evidence on a panic, a slow trip, POST
	// /debug/incident, or the SLO's degraded rising edge (the engine
	// exposes a bit, so a watcher polls for the edge).
	runtime.SetMutexProfileFraction(mutexProfileFraction)
	runtime.SetBlockProfileRate(blockProfileRate)
	srv.capturer = prof.NewCapturer(prof.CaptureConfig{
		WriteTraces:  srv.recorder.WriteJSONL,
		WriteMetrics: reg.WritePrometheus,
		StatusJSON:   func() ([]byte, error) { return json.Marshal(status.Doc()) },
		LogTail:      logRing.Bytes,
	})
	srv.capturer.Register(reg)
	srv.stops = append(srv.stops, srv.stopTriggers) // after the watcher stops
	if slo != nil {
		watcher := ops.WatchDegraded(slo.Degraded, time.Second, func() {
			srv.trigger(prof.TriggerDegraded, "slo burn past threshold in every window")
		})
		srv.stops = append(srv.stops, watcher.Stop)
	}

	// The request chain, innermost first.
	var errLog *slog.Logger
	if !cfg.Quiet {
		errLog = logger
	}
	// Brownout: while the SLO burns, refuse the unbounded PROPFIND walk.
	var degraded func() bool
	if cfg.Brownout {
		degraded = slo.Degraded
		logger.Info("brownout enabled")
	}
	srv.DAV = NewHandler(srv.store, &Options{
		MaxPropBytes: cfg.MaxPropBytes, Prefix: cfg.Prefix, Degraded: degraded, Logger: errLog,
	})
	metrics.TrackLocks(srv.DAV.Locks())
	metrics.TrackGate(srv.DAV)
	h := http.Handler(srv.DAV)
	if users != nil {
		h = auth.Basic(h, authRealm, users)
		logger.Info("basic authentication enabled", "users", len(users.Names()))
	}
	h = Harden(h, HardenOptions{
		RequestTimeout: cfg.RequestTimeout,
		MaxBodyBytes:   cfg.MaxBodyBytes,
		Logger:         errLog,
		Metrics:        metrics,
		OnPanic: func(method, path string, v any) {
			srv.trigger(prof.TriggerPanic, fmt.Sprintf("%s %s: %v", method, path, v))
		},
	})
	if cfg.AdmitLimit > 0 {
		gate := admit.NewLimiter(cfg.AdmitLimit, cfg.AdmitQueue)
		h = gate.Middleware(h)
		metrics.TrackAdmit(gate)
		logger.Info("admission control enabled", "limit", cfg.AdmitLimit, "queue", cfg.AdmitQueue)
	}
	var accessLog *slog.Logger
	if !cfg.NoAccessLog {
		accessLog = logger
	}
	h = InstrumentWith(h, InstrumentOptions{
		Metrics:       metrics,
		AccessLog:     accessLog,
		Tracer:        tracer,
		SlowThreshold: cfg.SlowThreshold,
		SlowLog:       logger, // slow-request warnings survive -no-access-log
		Ops:           tracker,
		OnSlow: func(method, path string, d time.Duration) {
			srv.trigger(prof.TriggerSlow,
				fmt.Sprintf("%s %s took %s (threshold %s)", method, path, d, cfg.SlowThreshold))
		},
	})
	mux := http.NewServeMux()
	srv.Health.Register(mux)
	mux.Handle("/", h)
	srv.Handler = mux

	amux := http.NewServeMux()
	amux.Handle("/metrics", reg.Handler())
	amux.HandleFunc("/debug/pprof/", pprof.Index)
	amux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	amux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	amux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	amux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	amux.Handle("/debug/traces", srv.recorder.Handler())
	amux.Handle("/debug/status", status)
	amux.Handle("/debug/incidents", srv.capturer.Handler())
	amux.Handle("/debug/incident", srv.capturer.TriggerHandler())
	amux.Handle("/debug/logs", logRing.Handler())
	srv.Admin = amux
	return srv, nil
}

// Close stops the background machinery newest first: the degraded
// watcher, then every other trigger, waiting for a bundle already being
// assembled so FlushEvidence writes it, then the sources that bundle
// reads. It gives background recovery up to ShutdownGrace to finish,
// and closes the store and its journal.
// A pass cut short fails its remaining intents against the closed
// journal; recovery is idempotent and the next start resumes it. Call
// Close once, after the listeners have drained.
func (s *Server) Close() error {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	if s.recovered != nil {
		select {
		case <-s.recovered:
		case <-time.After(s.grace):
			s.Logger.Warn("closing the store under an unfinished crash recovery; the next start resumes it",
				"waited", s.grace.String())
		}
	}
	return s.store.Close()
}

// FlushEvidence writes what the server holds only in memory next to
// traceOut: the retained traces as JSONL to traceOut itself, every
// incident bundle. Call it after the drain and Close, so the export
// includes every request that completed and every bundle they tripped.
func (s *Server) FlushEvidence(traceOut string) error {
	if err := writeFile(traceOut, s.recorder.WriteJSONL); err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	s.Logger.Info("traces exported", "file", traceOut, "traces", s.recorder.Len())

	dir := filepath.Dir(traceOut)
	if n, err := s.capturer.WriteBundles(dir); err != nil {
		s.Logger.Error("incident flush failed", "err", err)
	} else if n > 0 {
		s.Logger.Info("incident bundles flushed", "dir", dir, "bundles", n)
	}
	return nil
}

// trigger assembles an incident bundle on a goroutine of its own, so the
// request or watcher that noticed the incident never waits the CPU
// slice. After Close has begun, a trigger is dropped.
func (s *Server) trigger(reason, detail string) {
	s.triggerMu.Lock()
	defer s.triggerMu.Unlock()
	if s.closing {
		return
	}
	s.assembling.Add(1)
	go func() {
		defer s.assembling.Done()
		s.capturer.Trigger(reason, detail)
	}()
}

// stopTriggers drops every later trigger and waits for the bundle being
// assembled: at most one, bounded by the CPU slice.
func (s *Server) stopTriggers() {
	s.triggerMu.Lock()
	s.closing = true
	s.triggerMu.Unlock()
	s.assembling.Wait()
}

// writeFile writes what render produces to path, or nothing if render
// fails.
func writeFile(path string, render func(io.Writer) error) error {
	var b bytes.Buffer
	if err := render(&b); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
