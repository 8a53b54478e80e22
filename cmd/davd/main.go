// Command davd is the WebDAV server daemon — the Apache/mod_dav
// equivalent in the reproduced architecture. It serves a filesystem
// store (documents as plain files, properties in per-resource DBM
// databases) over the RFC 2518 method set, with optional HTTP basic
// authentication, and runs behind the hardened lifecycle: panic
// recovery, optional request timeouts and body limits, /healthz and
// /readyz probes, and graceful shutdown with connection draining.
//
// What a davd is — which layers, in which order, with which telemetry
// and admin surface (-admin, on its own port so operators never expose
// it with the DAV tree) — is decided in one place, davserver.Build
// (DESIGN.md "Assembly"); this file parses flags into its Config,
// listens, serves, drains and flushes.
//
// Usage:
//
//	davd -addr :8080 -root /srv/ecce -flavour gdbm [-users users.txt] [-admin 127.0.0.1:8081]
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/davserver"
	"repro/internal/obs"
)

func main() {
	cfg := davserver.DefaultConfig()
	bindFlags(flag.CommandLine, &cfg)
	flag.Parse()
	cfg.Logger = obs.NewLogger(os.Stderr, slog.LevelInfo)
	if err := run(cfg); err != nil {
		cfg.Logger.Error("davd: " + err.Error())
		os.Exit(1)
	}
}

// bindFlags declares one flag per settable Config field, defaulting to
// the value cfg arrives with.
func bindFlags(fs *flag.FlagSet, cfg *davserver.Config) {
	fs.StringVar(&cfg.Addr, "addr", cfg.Addr, "listen address")
	fs.StringVar(&cfg.Root, "root", cfg.Root, "store root directory")
	fs.StringVar(&cfg.Flavour, "flavour", cfg.Flavour, "property database flavour: gdbm or sdbm")
	fs.IntVar(&cfg.DBMCache, "dbm-cache", cfg.DBMCache,
		"property-database files kept open (one database per directory or document with dead properties); past it the least recently used idle one closes its file and keeps serving reads from memory until its next write; at least 1")
	fs.StringVar(&cfg.Users, "users", cfg.Users, "basic-auth credentials file (see davd -help-users); empty disables auth")
	fs.StringVar(&cfg.Prefix, "prefix", cfg.Prefix, "URL path prefix to serve under (e.g. /dav)")
	fs.IntVar(&cfg.MaxPropBytes, "max-prop-bytes", cfg.MaxPropBytes,
		"per-property size limit in bytes (the paper's production setting is 10 MB); -1 = unlimited")
	fs.DurationVar(&cfg.RequestTimeout, "request-timeout", cfg.RequestTimeout,
		"per-request handling timeout; 0 disables (leave off when serving very large documents)")
	fs.DurationVar(&cfg.StoreOpTimeout, "store-op-timeout", cfg.StoreOpTimeout,
		"deadline for each individual store operation (lock wait + disk + property database); on expiry the client gets 503 + Retry-After and dav_store_cancelled_total{reason=\"deadline\"} counts it; 0 disables")
	fs.Int64Var(&cfg.MaxBodyBytes, "max-body-bytes", cfg.MaxBodyBytes,
		"request body size limit in bytes; 0 = unlimited (the paper PUTs 200 MB documents)")
	fs.DurationVar(&cfg.ShutdownGrace, "shutdown-grace", cfg.ShutdownGrace,
		"how long to drain in-flight requests on SIGINT/SIGTERM before forcing exit")
	fs.StringVar(&cfg.Admin, "admin", cfg.Admin,
		"admin listener address serving /metrics, /debug/status, /debug/pprof and /debug/traces; empty disables")
	fs.BoolVar(&cfg.NoAccessLog, "no-access-log", cfg.NoAccessLog, "suppress per-request access log lines")
	fs.BoolVar(&cfg.Quiet, "quiet", cfg.Quiet, "suppress request error logging")
	fs.DurationVar(&cfg.SlowThreshold, "slow-threshold", cfg.SlowThreshold,
		"requests at or above this duration get a WARN log line and are always retained by the trace flight recorder; 0 disables the warning and slow-retention")
	fs.StringVar(&cfg.TraceOut, "trace-out", cfg.TraceOut,
		"file to write retained traces to as JSONL on shutdown (incident bundles land beside it); empty disables")
	fs.Float64Var(&cfg.TraceSample, "trace-sample", cfg.TraceSample,
		"fraction of fast, error-free traces retained at random in addition to slow/errored ones")
	fs.StringVar(&cfg.SLO, "slo", cfg.SLO,
		"latency objectives as METHODS:THRESHOLD:TARGET, semicolon-separated (\"*\" matches all methods); burn rates appear as dav_slo_* and on /debug/status; empty disables")
	fs.IntVar(&cfg.AdmitLimit, "admit-limit", cfg.AdmitLimit,
		"requests served at once; past it requests wait in the -admit-queue or are shed with 429 + Retry-After instead of collapsing latency for everyone; watch dav_admit_inflight against it; 0 disables admission control")
	fs.IntVar(&cfg.AdmitQueue, "admit-queue", cfg.AdmitQueue,
		"requests that may wait for an admission slot, first come first served; past it they are shed with 429 + Retry-After; 0 sheds immediately at the limit")
	fs.BoolVar(&cfg.Brownout, "brownout", cfg.Brownout,
		"while -slo reports degraded (dav_slo_degraded 1), refuse Depth: infinity PROPFIND and SEARCH with 403 propfind-finite-depth; nothing else is shed; needs -slo")
}

// run is main without the exit: every failure after Build returns
// through the one Close, so the store, its journal and the background
// machinery are shut down whatever went wrong.
func run(cfg davserver.Config) error {
	srv, err := davserver.Build(cfg)
	if err != nil {
		return err
	}
	err = serve(cfg, srv)
	// Close before flushing so no new incident bundle starts assembling
	// mid-export; what is flushed lives in memory and survives Close.
	if cerr := srv.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close store: %w", cerr)
	}
	if err == nil && cfg.TraceOut != "" {
		err = srv.FlushEvidence(cfg.TraceOut)
	}
	return err
}

// serve listens on both addresses and blocks until a signal has drained
// the DAV listener (or a listener failed).
func serve(cfg davserver.Config, srv *davserver.Server) error {
	logger := srv.Logger
	// The paper's server accepted persistent connections with "15
	// seconds between requests".
	dav := &http.Server{Handler: srv.Handler, IdleTimeout: davserver.KeepAliveTimeout}
	listener, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	defer listener.Close()

	if cfg.Admin != "" {
		adminListener, err := net.Listen("tcp", cfg.Admin)
		if err != nil {
			return fmt.Errorf("admin listen: %w", err)
		}
		admin := &http.Server{Handler: srv.Admin}
		defer admin.Close()
		go func() {
			if err := admin.Serve(adminListener); err != nil && err != http.ErrServerClosed {
				logger.Error("admin listener failed", "err", err)
			}
		}()
		logger.Info("admin endpoints enabled",
			"addr", adminListener.Addr().String(),
			"paths", "/metrics /debug/pprof/ /debug/traces /debug/status /debug/incidents /debug/logs")
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	root, _ := filepath.Abs(cfg.Root)
	fmt.Printf("davd: serving %s (%s properties) on http://%s%s\n",
		root, strings.ToUpper(cfg.Flavour), listener.Addr(), cfg.Prefix)
	failed := make(chan error, 1)
	go func() { failed <- dav.Serve(listener) }()

	// Graceful shutdown: on the first signal, flip readiness so load
	// balancers drain us, then let in-flight requests finish within the
	// grace window. A second signal, or an expired window, forces exit.
	select {
	case err := <-failed:
		return err
	case <-sig:
	}
	logger.Info("draining; signal again to force exit", "grace", cfg.ShutdownGrace.String())
	srv.Health.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.ShutdownGrace)
	defer cancel()
	go func() {
		<-sig
		logger.Warn("forced exit")
		cancel()
	}()
	if err := dav.Shutdown(ctx); err != nil {
		logger.Warn("drain incomplete", "err", err)
		dav.Close()
	} else {
		logger.Info("drained cleanly")
	}
	return nil
}
