// Package experiments reproduces every quantitative result in the
// paper's evaluation: Table 1 (PSE metadata operations), Table 2 (FTP
// vs HTTP PUT), Table 3 (Ecce 1.5/OODB vs Ecce 2.0/DAV tool
// performance), the Section 3.2.1 robustness tests, and the Section
// 3.2.4 disk-overhead measurement. cmd/eccebench prints the tables;
// the repository-root benchmarks wrap the same code in testing.B.
//
// Servers run in-process but are reached over real loopback TCP
// sockets, and are assembled by davserver.Build — the chain davd ships
// — so the full client/HTTP/middleware/XML/store path is exercised;
// only the 150 Mbit/s LAN of the paper's testbed is absent (see
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

// DAVEnv is a running DAV server plus a connected client.
type DAVEnv struct {
	// Store is the base store (FSStore or MemStore), beneath WrapStore
	// and the server's own wrappers.
	Store  store.Store
	Client *davclient.Client
	URL    string

	built  *davserver.Server
	server *http.Server
	dir    string // temp dir to remove, if owned
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
	// WrapStore, when set, wraps the store beneath the server's own
	// wrappers — the hook chaos/latency injectors use to sit on the
	// serving path.
	WrapStore func(store.Store) store.Store
}

// StartDAVEnv boots a DAV server on a loopback socket and connects a
// client. The server is davd's: DefaultConfig through davserver.Build,
// varied only by what the options inject.
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
		fs, err := store.NewFSStore(dir, opts.Flavour)
		if err != nil {
			env.cleanup()
			return nil, err
		}
		env.Store = fs
	}
	cfg := davserver.DefaultConfig()
	cfg.Store = env.Store
	if opts.WrapStore != nil {
		cfg.Store = opts.WrapStore(env.Store)
	}
	if opts.MaxPropBytes != 0 {
		cfg.MaxPropBytes = opts.MaxPropBytes
	}
	cfg.Metrics = enabledMetrics()
	built, err := davserver.Build(cfg)
	if err != nil {
		env.Store.Close()
		env.cleanup()
		return nil, err
	}
	env.built = built

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.cleanup()
		return nil, err
	}
	env.URL = fmt.Sprintf("http://%s", l.Addr())
	env.server = &http.Server{Handler: built.Handler}
	go env.server.Serve(l)

	env.Client, err = env.NewClient(opts.Persistent, opts.Parser)
	if err != nil {
		env.Close()
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
	})
}

// cleanup releases what the environment owns besides the client and
// the listener: the assembled server (and through it the store) and
// the temp dir.
func (e *DAVEnv) cleanup() {
	if e.built != nil {
		e.built.Close()
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
