// Command davd is the WebDAV server daemon — the Apache/mod_dav
// equivalent in the reproduced architecture. It serves a filesystem
// store (documents as plain files, properties in per-resource DBM
// databases) over the RFC 2518 method set, with optional HTTP basic
// authentication, and runs behind the hardened lifecycle: panic
// recovery, optional request timeouts and body limits, /healthz and
// /readyz probes, and graceful shutdown with connection draining.
//
// Every request is traced and measured: an X-Request-ID is echoed (or
// minted), one structured access-log line is emitted per request, and
// per-method latency/size histograms, store-operation timings, and lock
// gauges accumulate in a metrics registry. Workload analytics ride
// along: heavy-hitter top-K tables over resource paths and (method,
// Depth) pairs, latency SLO burn-rate accounting (-slo), and a
// periodic runtime self-sampler (-sample-interval). Continuous
// profiling keeps a bounded ring of recent pprof snapshots
// (-prof-interval, -prof-ring), and an incident capturer assembles
// downloadable evidence bundles on SLO-degraded transitions, slow
// trips, panics, or a manual POST /debug/incident (-incident-auto,
// -incident-max). The optional -admin listener serves all of it at
// /metrics (Prometheus text format), /debug/status (the unified
// operational console, HTML or ?format=json), /debug/traces,
// /debug/profiles, /debug/incidents, /debug/logs, and the
// net/http/pprof profiling surface — on a separate port so operators
// never expose it with the DAV tree.
//
// Usage:
//
//	davd -addr :8080 -root /srv/ecce -flavour gdbm [-users users.txt] [-admin 127.0.0.1:8081]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/auth"
	"repro/internal/davserver"
	"repro/internal/davserver/admit"
	"repro/internal/dbm"
	"repro/internal/obs"
	"repro/internal/obs/ops"
	"repro/internal/obs/prof"
	"repro/internal/obs/trace"
	"repro/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		root     = flag.String("root", "./davroot", "store root directory")
		flavour  = flag.String("flavour", "gdbm", "property database flavour: gdbm or sdbm")
		dbmCache = flag.Int("dbm-cache", store.DefaultHandleCacheSize,
			"open property databases kept cached (one per directory or document with dead properties); raise for wide trees under concurrent PROPFIND, negative to open per operation")
		usersArg = flag.String("users", "", "basic-auth credentials file (see davd -help-users); empty disables auth")
		realm    = flag.String("realm", "Ecce", "basic-auth realm")
		prefix   = flag.String("prefix", "", "URL path prefix to serve under (e.g. /dav)")
		maxProp  = flag.Int("max-prop-bytes", davserver.DefaultMaxPropBytes,
			"per-property size limit in bytes (the paper's production setting is 10 MB); -1 = unlimited")
		reqTimeout = flag.Duration("request-timeout", 0,
			"per-request handling timeout; 0 disables (leave off when serving very large documents)")
		storeOpTimeout = flag.Duration("store-op-timeout", 0,
			"deadline for each individual store operation (lock wait + disk + property database); on expiry the client gets 503 + Retry-After and dav_store_cancelled_total{reason=\"deadline\"} counts it; 0 disables")
		maxBody = flag.Int64("max-body-bytes", 0,
			"request body size limit in bytes; 0 = unlimited (the paper PUTs 200 MB documents)")
		grace = flag.Duration("shutdown-grace", 15*time.Second,
			"how long to drain in-flight requests on SIGINT/SIGTERM before forcing exit")
		adminAddr = flag.String("admin", "",
			"admin listener address serving /metrics, /debug/status, /debug/pprof and /debug/traces; empty disables")
		noHealth    = flag.Bool("no-health", false, "disable the /healthz and /readyz probe endpoints")
		noAccessLog = flag.Bool("no-access-log", false, "suppress per-request access log lines")
		quiet       = flag.Bool("quiet", false, "suppress request error logging")
		slowThresh  = flag.Duration("slow-threshold", 500*time.Millisecond,
			"requests at or above this duration get a WARN log line and are always retained by the trace flight recorder; 0 disables the warning and slow-retention")
		traceOut = flag.String("trace-out", "",
			"file to write retained traces to as JSONL on shutdown; empty disables")
		traceSample = flag.Float64("trace-sample", 0.01,
			"fraction of fast, error-free traces retained at random in addition to slow/errored ones")
		sloSpec = flag.String("slo", "GET,PROPFIND:50ms:0.99",
			"latency objectives as METHODS:THRESHOLD:TARGET, semicolon-separated (\"*\" matches all methods); burn rates appear as dav_slo_* and on /debug/status; empty disables")
		sampleEvery = flag.Duration("sample-interval", 10*time.Second,
			"runtime self-sampling period (heap, goroutines, GC, FDs, scheduler latency) feeding dav_runtime_* and the /debug/status trend; 0 disables")
		seriesLimit = flag.Int("metric-series-limit", 512,
			"labelled series cap per metric family; past it new label combinations collapse into one overflow series and dav_metric_label_overflow_total counts them; 0 = unlimited")
		profEvery = flag.Duration("prof-interval", time.Minute,
			"continuous-profiling capture period (CPU slice + heap/goroutine/mutex/block snapshots into an in-memory ring, served at /debug/profiles); 0 disables")
		profRing = flag.Int("prof-ring", 8,
			"capture ticks the profile ring retains (each tick holds one artifact per profile kind)")
		incidentAuto = flag.Bool("incident-auto", true,
			"assemble incident bundles automatically on SLO-degraded transitions, slow-request trips, and recovered panics (manual POST /debug/incident always works)")
		incidentMax = flag.Int("incident-max", 8,
			"incident bundles retained in memory; older ones are evicted")
		admitLimit = flag.Int("admit-limit", 0,
			"ceiling for the adaptive concurrency limit; requests past it wait briefly or are shed with 429 + Retry-After instead of collapsing latency for everyone; 0 disables admission control")
		admitQueue = flag.Int("admit-queue", 64,
			"total admission-queue capacity, split across priority classes (reads most, heavy subtree ops least); 0 sheds immediately at the limit")
		brownout = flag.Bool("brownout", false,
			"degrade before shedding while the SLO burns: skip auto-versioning snapshots, refuse Depth: infinity PROPFIND, pause background sampling — restored in reverse with hysteresis; needs -slo")
		brownoutEvery = flag.Duration("brownout-interval", 5*time.Second,
			"how often the brownout controller polls the SLO degraded bit; two consecutive degraded polls deepen one level, ten healthy polls restore one")
		admitAdmins = flag.String("admit-admins", "",
			"comma-separated users allowed to override a request's priority class via the X-Admit-Priority header; needs -users")
	)
	flag.Parse()

	// The stderr logger is teed into a bounded in-memory ring so the log
	// tail is servable at /debug/logs and embeddable in incident bundles.
	logRing := obs.NewLogRing(512)
	logger := slog.New(logRing.Tee(obs.NewLogger(os.Stderr, slog.LevelInfo).Handler()))
	fatalf := func(format string, args ...any) {
		logger.Error(fmt.Sprintf(format, args...))
		os.Exit(1)
	}

	var fl dbm.Flavour
	switch *flavour {
	case "gdbm":
		fl = dbm.GDBM
	case "sdbm":
		fl = dbm.SDBM
	default:
		fatalf("davd: unknown flavour %q (want gdbm or sdbm)", *flavour)
	}

	// DeferRecovery lets the daemon bind its listener and serve reads
	// immediately after a crash; /readyz reports "recovering" and every
	// mutation gets 503 + Retry-After until the background pass resolves
	// the journal.
	fs, err := store.NewFSStoreWith(*root, fl, store.FSOptions{
		HandleCacheSize: *dbmCache,
		DeferRecovery:   true,
	})
	if err != nil {
		fatalf("davd: open store: %v", err)
	}
	defer fs.Close()
	go func() {
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

	// Telemetry: one registry feeds the DAV middleware, the store
	// wrapper, the lock gauges, and the admin endpoints. The
	// tracer's flight recorder shares the slow threshold with the
	// middleware's WARN log, so every warned request has a trace.
	metrics := davserver.NewMetrics(obs.NewRegistry())
	metrics.Registry.SetSeriesLimit(*seriesLimit)
	// Exemplars tie latency-histogram buckets to the trace that landed
	// in them, so a slow bucket on /metrics links into /debug/traces.
	metrics.Registry.SetExemplars(true)
	obs.RegisterRuntime(metrics.Registry)

	// Workload analytics: heavy-hitter tables over every request, plus
	// optional latency SLOs with multi-window burn rates.
	var slo *ops.SLO
	if *sloSpec != "" {
		objectives, err := ops.ParseObjectives(*sloSpec)
		if err != nil {
			fatalf("davd: -slo: %v", err)
		}
		slo = ops.NewSLO(ops.SLOConfig{Objectives: objectives})
	}
	tracker := ops.NewTracker(ops.TrackerConfig{SLO: slo})
	tracker.Register(metrics.Registry)

	// Runtime self-sampling: the ring behind the /debug/status trend and
	// the dav_runtime_* gauges.
	var sampler *ops.Sampler
	if *sampleEvery > 0 {
		sampler = ops.NewSampler(ops.SamplerConfig{Interval: *sampleEvery})
		sampler.Register(metrics.Registry)
		sampler.Start()
		defer sampler.Stop()
	}
	slowForRecorder := *slowThresh
	if slowForRecorder == 0 {
		slowForRecorder = -1 // 0 disables slow retention; the recorder treats negatives as off
	}
	recorder := trace.NewRecorder(trace.RecorderConfig{
		SlowThreshold: slowForRecorder,
		SampleRate:    *traceSample,
	})
	tracer := trace.New(trace.Config{Recorder: recorder})
	metrics.TrackStore(fs)
	// Wrapper order matters: the instrument layer times the operation
	// including its deadline context, and OpTimeout outermost means each
	// DAV-layer store call — not each FSStore internal step — gets one
	// budget.
	st := store.OpTimeout(store.Instrument(fs, metrics.StoreObserver()), *storeOpTimeout)

	// Continuous profiling: a bounded ring of recent pprof snapshots, so
	// the past is already profiled when an anomaly is noticed.
	var profSampler *prof.Sampler
	if *profEvery > 0 {
		profSampler = prof.NewSampler(prof.SamplerConfig{
			Interval: *profEvery,
			Ring:     *profRing,
		})
		profSampler.Register(metrics.Registry)
		profSampler.Start()
		defer profSampler.Stop()
	}

	// The incident capturer assembles a downloadable tar.gz of evidence
	// (profiles, trace tail, metrics, status, log tail) when a trigger
	// fires. status is assigned below, before the server starts serving.
	var status *ops.Status
	capturer := prof.NewCapturer(prof.CaptureConfig{
		Sampler:      profSampler,
		WriteTraces:  recorder.WriteJSONL,
		WriteMetrics: metrics.Registry.WritePrometheus,
		StatusJSON: func() ([]byte, error) {
			if status == nil {
				return nil, fmt.Errorf("status console not initialised")
			}
			return json.Marshal(status.Doc())
		},
		LogTail:    logRing.Bytes,
		MaxBundles: *incidentMax,
	})
	capturer.Register(metrics.Registry)

	// Brownout: while the SLO burns, shed expensive behaviors before
	// the limiter sheds requests — snapshots first, then unbounded
	// PROPFIND walks, then background sampling — and restore them in
	// reverse once the burn stays quiet.
	var brown *admit.Brownout
	if *brownout {
		if slo == nil {
			fatalf("davd: -brownout needs -slo objectives to derive the degraded signal")
		}
		brown = admit.NewBrownout(admit.BrownoutConfig{
			Probe:    slo.Degraded,
			Interval: *brownoutEvery,
			OnChange: func(old, next admit.Level) {
				logger.Warn("brownout transition", "from", old.String(), "to", next.String())
			},
		})
		if sampler != nil {
			brown.RegisterBackground(sampler.Stop, sampler.Start)
		}
		if profSampler != nil {
			brown.RegisterBackground(profSampler.Stop, profSampler.Start)
		}
		brown.Start()
		defer brown.Stop()
		logger.Info("brownout controller enabled")
	}

	opts := &davserver.Options{MaxPropBytes: *maxProp, Prefix: *prefix, Brownout: brown}
	if !*quiet {
		opts.Logger = logger
	}
	dav := davserver.NewHandler(st, opts)
	metrics.TrackLocks(dav.Locks())
	metrics.TrackGate(dav)
	handler := http.Handler(dav)

	var users *auth.Users
	if *usersArg != "" {
		users, err = auth.Load(*usersArg)
		if err != nil {
			fatalf("davd: load users: %v", err)
		}
		handler = auth.Basic(handler, *realm, users)
		logger.Info("basic authentication enabled", "users", len(users.Names()))
	}

	// Hardened lifecycle: panic recovery, request timeout, body limit.
	var panicLog *slog.Logger
	if !*quiet {
		panicLog = logger
	}
	hardenOpts := davserver.HardenOptions{
		RequestTimeout: *reqTimeout,
		MaxBodyBytes:   *maxBody,
		Logger:         panicLog,
		Metrics:        metrics,
	}
	if *incidentAuto {
		hardenOpts.OnPanic = func(method, path string, v any) {
			capturer.TriggerAsync(prof.TriggerPanic, fmt.Sprintf("%s %s: %v", method, path, v))
		}
	}
	handler = davserver.Harden(handler, hardenOpts)

	// Admission control wraps the hardened stack (a shed never reaches
	// auth, the body limit, or the store) but sits inside telemetry, so
	// every 429 is measured, logged, and traced.
	if *admitLimit > 0 {
		ctl := &admit.Controller{
			Limiter:  admit.NewLimiter(admit.Config{Max: *admitLimit, Queue: *admitQueue}),
			Budget:   admit.NewRetryBudget(0, 0),
			Brownout: brown,
		}
		if *admitAdmins != "" {
			if users == nil {
				fatalf("davd: -admit-admins needs -users so overrides can be authenticated")
			}
			admins := make(map[string]bool)
			for _, name := range strings.Split(*admitAdmins, ",") {
				if name = strings.TrimSpace(name); name != "" {
					admins[name] = true
				}
			}
			ctl.AdminOK = func(r *http.Request) bool {
				u, p, ok := r.BasicAuth()
				return ok && admins[u] && users.Check(u, p)
			}
		}
		metrics.TrackAdmit(ctl)
		handler = ctl.Middleware(handler)
		logger.Info("admission control enabled", "limit", *admitLimit, "queue", *admitQueue)
	} else if brown != nil {
		// No limiter, but the brownout gauges should still be scrapable.
		metrics.TrackAdmit(&admit.Controller{Brownout: brown})
	}

	// Telemetry outermost so the recorded status and access log include
	// timeouts, recovered panics, and rejected credentials.
	var accessLog *slog.Logger
	if !*noAccessLog {
		accessLog = logger
	}
	instrumentOpts := davserver.InstrumentOptions{
		Metrics:       metrics,
		AccessLog:     accessLog,
		Tracer:        tracer,
		SlowThreshold: *slowThresh,
		SlowLog:       logger, // slow-request warnings survive -no-access-log
		Ops:           tracker,
	}
	if *incidentAuto {
		instrumentOpts.OnSlow = func(method, path string, d time.Duration) {
			capturer.TriggerAsync(prof.TriggerSlow,
				fmt.Sprintf("%s %s took %s (threshold %s)", method, path, d, *slowThresh))
		}
	}
	handler = davserver.InstrumentWith(handler, instrumentOpts)

	// Probe endpoints live outside the auth wrapper so orchestrators
	// can poll them without credentials; they shadow same-named DAV
	// resources only when no prefix isolates the DAV tree.
	health := davserver.NewHealth(st)
	if slo != nil {
		health.SetDegraded(slo.Degraded)
	}

	// The unified console: one page (HTML or ?format=json) joining
	// build/runtime state, SLO burn, heavy hitters, storage gauges, and
	// readiness. Built outside the admin block because incident bundles
	// embed its document even when no admin listener is configured.
	status = ops.NewStatus(ops.StatusConfig{
		Service:  "davd",
		Registry: metrics.Registry,
		Sampler:  sampler,
		Tracker:  tracker,
		Ready: func() any {
			st, _ := health.Ready()
			return st
		},
		Links: []ops.Link{
			{Name: "metrics", Href: "/metrics"},
			{Name: "traces", Href: "/debug/traces"},
			{Name: "profiles", Href: "/debug/profiles"},
			{Name: "incidents", Href: "/debug/incidents"},
			{Name: "logs", Href: "/debug/logs"},
			{Name: "pprof", Href: "/debug/pprof/"},
		},
	})

	// Degraded-transition trigger: the SLO engine exposes a bit, not an
	// event, so a watcher polls for the rising edge.
	var watcher *ops.DegradedWatcher
	if *incidentAuto && slo != nil {
		watcher = ops.WatchDegraded(slo.Degraded, time.Second, func() {
			capturer.TriggerAsync(prof.TriggerDegraded,
				"slo burn past threshold in every window")
		})
	}

	mux := http.NewServeMux()
	if !*noHealth {
		health.Register(mux)
	}
	mux.Handle("/", handler)

	// The paper's server accepted persistent connections with "15
	// seconds between requests".
	srv := &http.Server{Handler: mux, IdleTimeout: davserver.KeepAliveTimeout}
	listener, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("davd: listen: %v", err)
	}

	// Admin surface on its own port: Prometheus exposition and pprof.
	// Never mounted on the DAV listener.
	var adminSrv *http.Server
	if *adminAddr != "" {
		amux := http.NewServeMux()
		amux.Handle("/metrics", metrics.Registry.Handler())
		amux.HandleFunc("/debug/pprof/", pprof.Index)
		amux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		amux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		amux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		amux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		amux.Handle("/debug/traces", recorder.Handler())
		amux.Handle("/debug/status", status)
		if profSampler != nil {
			amux.Handle("/debug/profiles", profSampler.Handler())
		}
		amux.Handle("/debug/incidents", capturer.Handler())
		amux.Handle("/debug/incident", capturer.TriggerHandler())
		amux.Handle("/debug/logs", logRing.Handler())
		adminListener, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			fatalf("davd: admin listen: %v", err)
		}
		adminSrv = &http.Server{Handler: amux}
		go func() {
			if err := adminSrv.Serve(adminListener); err != nil && err != http.ErrServerClosed {
				logger.Error("admin listener failed", "err", err)
			}
		}()
		logger.Info("admin endpoints enabled",
			"addr", adminListener.Addr().String(),
			"paths", "/metrics /debug/pprof/ /debug/traces /debug/status /debug/profiles /debug/incidents /debug/logs")
	}

	// Graceful shutdown: on the first signal, flip readiness so load
	// balancers drain us, then let in-flight requests finish within the
	// grace window. A second signal, or an expired window, forces exit.
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 2)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("draining; signal again to force exit", "grace", grace.String())
		health.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		go func() {
			<-sig
			logger.Warn("forced exit")
			cancel()
		}()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("drain incomplete", "err", err)
			srv.Close()
		} else {
			logger.Info("drained cleanly")
		}
		if adminSrv != nil {
			adminSrv.Close()
		}
	}()

	fmt.Printf("davd: serving %s (%s properties) on http://%s%s\n", fs.Root(), fl, listener.Addr(), *prefix)
	if err := srv.Serve(listener); err != nil && err != http.ErrServerClosed {
		fatalf("davd: %v", err)
	}
	<-done

	// Stop the degraded watcher before flushing so no new bundle starts
	// assembling mid-export.
	watcher.Stop()

	// Flush the flight recorder after the drain so the export includes
	// every request that completed before shutdown. Incident bundles and
	// the profile-ring index land next to it: evidence captured in
	// memory must survive a graceful exit, not just the traces.
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatalf("davd: create trace export: %v", err)
		}
		if err := recorder.WriteJSONL(f); err != nil {
			f.Close()
			fatalf("davd: write trace export: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("davd: close trace export: %v", err)
		}
		logger.Info("traces exported", "file", *traceOut, "traces", recorder.Len())

		outDir := filepath.Dir(*traceOut)
		if n, err := capturer.WriteBundles(outDir); err != nil {
			logger.Error("incident flush failed", "err", err)
		} else if n > 0 {
			logger.Info("incident bundles flushed", "dir", outDir, "bundles", n)
		}
		if profSampler != nil {
			idx, err := json.MarshalIndent(struct {
				Stats     prof.Stats      `json:"stats"`
				Artifacts []prof.Artifact `json:"artifacts"`
			}{profSampler.Stats(), profSampler.Artifacts()}, "", "  ")
			if err == nil {
				err = os.WriteFile(filepath.Join(outDir, "profile-ring.json"), append(idx, '\n'), 0o644)
			}
			if err != nil {
				logger.Error("profile-ring index flush failed", "err", err)
			} else {
				logger.Info("profile-ring index flushed",
					"file", filepath.Join(outDir, "profile-ring.json"))
			}
		}
	}
}
