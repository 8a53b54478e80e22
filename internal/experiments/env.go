// Package experiments reproduces every quantitative result in the
// paper's evaluation: Table 1 (PSE metadata operations), Table 2 (FTP
// vs HTTP PUT), Table 3 (Ecce 1.5/OODB vs Ecce 2.0/DAV tool
// performance), the Section 3.2.1 robustness tests, and the Section
// 3.2.4 disk-overhead measurement. cmd/eccebench prints the tables;
// the repository-root benchmarks wrap the same code in testing.B.
//
// Servers run in-process but are reached over real loopback TCP
// sockets, so the full client/HTTP/XML/store path is exercised; only
// the 150 Mbit/s LAN of the paper's testbed is absent (see
// EXPERIMENTS.md for the calibration discussion).
package experiments

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/davclient"
	"repro/internal/davserver"
	"repro/internal/dbm"
	"repro/internal/obs"
	"repro/internal/obs/ops"
	"repro/internal/obs/trace"
	"repro/internal/store"
)

// Shared telemetry for every environment started after EnableMetrics.
// Experiments boot many short-lived servers; one registry accumulates
// across all of them so a whole benchmark run can be inspected at the
// end. Gauge callbacks (lock table size) track the most recent
// environment — registry replacement semantics make re-registration
// safe.
var (
	metricsMu sync.Mutex
	metrics   *davserver.Metrics
)

// EnableMetrics switches on telemetry for all subsequently started DAV
// environments and returns the shared metrics (idempotent).
func EnableMetrics() *davserver.Metrics {
	metricsMu.Lock()
	defer metricsMu.Unlock()
	if metrics == nil {
		metrics = davserver.NewMetrics(obs.NewRegistry())
	}
	return metrics
}

func enabledMetrics() *davserver.Metrics {
	metricsMu.Lock()
	defer metricsMu.Unlock()
	return metrics
}

// Shared tracer for every environment started after EnableTracing.
// Client and server deliberately share one tracer: an in-process
// benchmark then records the whole client → server → store → dbm span
// tree in a single flight recorder.
var (
	tracingMu sync.Mutex
	tracer    *trace.Tracer
	recorder  *trace.Recorder
)

// EnableTracing switches on span tracing for all subsequently started
// DAV environments and returns the shared tracer and its flight
// recorder. The first call's cfg wins; later calls are idempotent and
// ignore cfg.
func EnableTracing(cfg trace.RecorderConfig) (*trace.Tracer, *trace.Recorder) {
	tracingMu.Lock()
	defer tracingMu.Unlock()
	if tracer == nil {
		recorder = trace.NewRecorder(cfg)
		tracer = trace.New(trace.Config{Recorder: recorder})
	}
	return tracer, recorder
}

func enabledTracer() *trace.Tracer {
	tracingMu.Lock()
	defer tracingMu.Unlock()
	return tracer
}

// DAVEnv is a running DAV server plus a connected client.
type DAVEnv struct {
	Store   store.Store
	Handler *davserver.Handler
	Client  *davclient.Client
	URL     string

	listener net.Listener
	server   *http.Server
	dir      string // temp dir to remove, if owned
}

// DAVEnvOptions configures StartDAVEnv.
type DAVEnvOptions struct {
	// Dir is the store root; empty creates (and owns) a temp dir.
	Dir string
	// Flavour selects the property DBM flavour (default GDBM).
	Flavour dbm.Flavour
	// InMemory uses MemStore instead of FSStore.
	InMemory bool
	// Client options.
	Persistent bool
	Parser     davclient.ParserKind
	// MaxPropBytes forwards to the server (0 = default 10 MB,
	// negative = unlimited).
	MaxPropBytes int
	// HandleCacheSize forwards to store.FSOptions: the bound on cached
	// DBM handles (0 = store default, negative disables caching).
	HandleCacheSize int
	// StepHook forwards to store.FSOptions: a hook invoked at each
	// multi-step operation boundary. Benchmarks use it to stall inside
	// the path lock, simulating slow storage under contention.
	StepHook func(point string)
	// Serialized wraps the store in one global RWMutex and takes the
	// batched reads apart — the PR 3 storage architecture, kept as
	// the concurrency benchmark's baseline. Combine with
	// HandleCacheSize < 0 for a faithful open-per-operation baseline.
	Serialized bool
	// Ops feeds the server's requests into a workload tracker (hot-path
	// top-K and SLO burn accounting) even when metrics are off.
	Ops *ops.Tracker
	// WrapStore, when set, wraps the store before instrumentation —
	// the hook chaos/latency injectors use to sit on the serving path.
	WrapStore func(store.Store) store.Store
	// WrapHandler, when set, wraps the fully assembled HTTP handler —
	// the hook for request-level middleware such as the cancellation
	// benchmark's context detacher.
	WrapHandler func(http.Handler) http.Handler
}

// StartDAVEnv boots a DAV server on a loopback socket and connects a
// client.
func StartDAVEnv(opts DAVEnvOptions) (*DAVEnv, error) {
	env := &DAVEnv{}
	if opts.InMemory {
		env.Store = store.NewMemStore()
	} else {
		dir := opts.Dir
		if dir == "" {
			var err error
			dir, err = os.MkdirTemp("", "davenv-*")
			if err != nil {
				return nil, err
			}
			env.dir = dir
		}
		fs, err := store.NewFSStoreWith(dir, opts.Flavour,
			store.FSOptions{HandleCacheSize: opts.HandleCacheSize, StepHook: opts.StepHook})
		if err != nil {
			return nil, err
		}
		env.Store = fs
	}
	if opts.Serialized {
		env.Store = serialize(env.Store)
	}
	if opts.WrapStore != nil {
		env.Store = opts.WrapStore(env.Store)
	}
	m := enabledMetrics()
	tr := enabledTracer()
	switch {
	case m != nil:
		env.Store = store.Instrument(env.Store, m.StoreObserver())
	case tr != nil:
		// Tracing without metrics still needs the wrapper: it is what
		// opens the store.<op> spans.
		env.Store = store.Instrument(env.Store, store.NopObserver)
	}
	env.Handler = davserver.NewHandler(env.Store, &davserver.Options{MaxPropBytes: opts.MaxPropBytes})
	serverHandler := http.Handler(env.Handler)
	var clientReg *obs.Registry
	if m != nil {
		m.TrackLocks(env.Handler.Locks())
		m.TrackGate(env.Handler)
		clientReg = m.Registry
	}
	if m != nil || tr != nil || opts.Ops != nil {
		serverHandler = davserver.InstrumentWith(serverHandler, davserver.InstrumentOptions{
			Metrics: m, Tracer: tr, Ops: opts.Ops,
		})
	}

	if opts.WrapHandler != nil {
		serverHandler = opts.WrapHandler(serverHandler)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.cleanup()
		return nil, err
	}
	env.listener = l
	env.URL = fmt.Sprintf("http://%s", l.Addr())
	env.server = &http.Server{Handler: serverHandler}
	go env.server.Serve(l)

	env.Client, err = davclient.New(davclient.Config{
		BaseURL:    env.URL,
		Persistent: opts.Persistent,
		Parser:     opts.Parser,
		Timeout:    10 * time.Minute,
		Metrics:    clientReg,
		Tracer:     tr,
	})
	if err != nil {
		env.cleanup()
		return nil, err
	}
	return env, nil
}

// NewClient opens an extra client against the same server.
func (e *DAVEnv) NewClient(persistent bool, parser davclient.ParserKind) (*davclient.Client, error) {
	var clientReg *obs.Registry
	if m := enabledMetrics(); m != nil {
		clientReg = m.Registry
	}
	return davclient.New(davclient.Config{
		BaseURL:    e.URL,
		Persistent: persistent,
		Parser:     parser,
		Timeout:    10 * time.Minute,
		Metrics:    clientReg,
		Tracer:     enabledTracer(),
	})
}

func (e *DAVEnv) cleanup() {
	if e.listener != nil {
		e.listener.Close()
	}
	if e.Store != nil {
		e.Store.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// Close shuts down the environment and removes owned temp state.
func (e *DAVEnv) Close() {
	if e.Client != nil {
		e.Client.Close()
	}
	if e.server != nil {
		e.server.Close()
	}
	e.cleanup()
}
