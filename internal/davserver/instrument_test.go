package davserver

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/davclient"
	"repro/internal/davproto"
	"repro/internal/dbm"
	"repro/internal/obs"
	"repro/internal/store"
)

// syncWriter serializes concurrent log writes from the server's
// handler goroutines.
type syncWriter struct {
	mu sync.Mutex
	sb strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.String()
}

// newInstrumentedServer boots a full instrumented DAV stack with a
// captured access log.
func newInstrumentedServer(t *testing.T) (*httptest.Server, *Metrics, *syncWriter) {
	t.Helper()
	m := NewMetrics(nil)
	s := store.Instrument(store.NewMemStore(), m.StoreObserver())
	h := NewHandler(s, nil)
	m.TrackLocks(h.Locks())
	logw := &syncWriter{}
	srv := httptest.NewServer(InstrumentWith(h, InstrumentOptions{Metrics: m, AccessLog: obs.NewLogger(logw, slog.LevelInfo)}))
	t.Cleanup(srv.Close)
	return srv, m, logw
}

func TestInstrumentGeneratesRequestID(t *testing.T) {
	srv, _, logw := newInstrumentedServer(t)
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/doc", strings.NewReader("x"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get(obs.RequestIDHeader)
	if id == "" {
		t.Fatal("no X-Request-ID generated on the response")
	}
	if !strings.Contains(logw.String(), "id="+id) {
		t.Fatalf("access log missing generated id %q:\n%s", id, logw.String())
	}
}

func TestInstrumentEchoesRequestID(t *testing.T) {
	srv, _, logw := newInstrumentedServer(t)
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/", nil)
	req.Header.Set(obs.RequestIDHeader, "abc")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "abc" {
		t.Fatalf("echoed id = %q, want abc", got)
	}
	log := logw.String()
	for _, want := range []string{"id=abc", "method=GET", "status=200"} {
		if !strings.Contains(log, want) {
			t.Errorf("access log missing %q:\n%s", want, log)
		}
	}
}

// TestRequestIDEndToEnd drives a real davclient operation whose
// context carries a request ID and asserts the same ID crosses the
// wire, lands in the server access log, and is echoed back — the
// paper-era client/server pair made traceable.
func TestRequestIDEndToEnd(t *testing.T) {
	srv, _, logw := newInstrumentedServer(t)
	c, err := davclient.New(davclient.Config{BaseURL: srv.URL, Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := obs.WithRequestID(context.Background(), "abc")
	if _, err := c.WithContext(ctx).PutBytes("/traced", []byte("payload"), "text/plain"); err != nil {
		t.Fatal(err)
	}
	log := logw.String()
	if !strings.Contains(log, "id=abc") {
		t.Fatalf("access log does not trace the client's id:\n%s", log)
	}
	if !strings.Contains(log, "method=PUT") || !strings.Contains(log, "path=/traced") {
		t.Fatalf("access log missing request detail:\n%s", log)
	}

	// Without a stamped context the client mints an ID itself, so the
	// operation is still traceable.
	if _, err := c.PutBytes("/auto", []byte("x"), ""); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(logw.String(), "\n") {
		if strings.Contains(line, "path=/auto") && !strings.Contains(line, "id=") {
			t.Fatalf("client-minted id missing from: %s", line)
		}
	}
}

// TestInstrumentMetrics checks the scrape after a small workload:
// per-method counters, latency histograms, store-op timings, and the
// lock gauge.
func TestInstrumentMetrics(t *testing.T) {
	srv, m, _ := newInstrumentedServer(t)
	c, err := davclient.New(davclient.Config{BaseURL: srv.URL, Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.PutBytes("/a", []byte("hello"), "text/plain"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("/missing"); err == nil {
		t.Fatal("expected 404")
	}
	if _, err := c.Lock("/a", davproto.LockExclusive, davproto.Depth0, "tester", time.Minute); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := m.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		`dav_requests_total{class="2xx",method="PUT"} 1`,
		`dav_requests_total{class="2xx",method="GET"} 1`,
		`dav_requests_total{class="4xx",method="GET"} 1`,
		`dav_requests_total{class="2xx",method="LOCK"} 1`,
		`dav_request_duration_seconds_bucket{method="PUT",le="+Inf"} 1`,
		`dav_store_op_duration_seconds_count{op="put"}`,
		`dav_store_op_duration_seconds_count{op="stat"}`,
		`dav_locks_active 1`,
		`dav_inflight_requests 0`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if err := obs.CheckExposition([]byte(got)); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}
}

// TestStoreErrorsCountOnlyServerErrors: dav_store_op_errors_total counts
// the store failures a client sees as a 500, through Build's chain. A
// browser GET of a collection (store.Get says ErrIsCollection, the
// handler serves the index) and a 404 are healthy traffic.
func TestStoreErrorsCountOnlyServerErrors(t *testing.T) {
	faulty := chaos.NewFaultyStore(store.NewMemStore())
	cfg := DefaultConfig()
	cfg.Store = faulty
	dav, admin, _ := serveBuilt(t, cfg)
	wantStatus(t, do(t, "MKCOL", dav.URL+"/dir", nil, ""), 201)
	wantStatus(t, do(t, "PUT", dav.URL+"/dir/doc", nil, "x"), 201)
	wantStatus(t, do(t, "GET", dav.URL+"/dir", nil, ""), 200)
	wantStatus(t, do(t, "GET", dav.URL+"/missing", nil, ""), 404)
	if n := gauge(scrape(t, admin), "dav_store_op_errors_total"); n != 0 {
		t.Fatalf("dav_store_op_errors_total = %v after healthy traffic, want 0", n)
	}

	faulty.FailNth(chaos.OpGet, 1)
	wantStatus(t, do(t, "GET", dav.URL+"/dir/doc", nil, ""), 500)
	e := scrape(t, admin)
	if n := gauge(e, "dav_store_op_errors_total"); n != 1 {
		t.Fatalf("dav_store_op_errors_total = %v after one failed get, want 1", n)
	}
	if want := `dav_store_op_errors_total{op="` + store.OpGet + `"} 1`; !strings.Contains(e, want) {
		t.Errorf("exposition lacks %s", want)
	}
}

// TestRecovererLogsRequestID asserts panic recoveries carry the trace
// ID at ERROR level when the panic happens under Instrument.
func TestRecovererLogsRequestID(t *testing.T) {
	logw := &syncWriter{}
	logger := obs.NewLogger(logw, slog.LevelInfo)
	m := NewMetrics(nil)
	inner := http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	h := InstrumentWith(Harden(inner, HardenOptions{Logger: logger, Metrics: m}), InstrumentOptions{Metrics: m})
	srv := httptest.NewServer(h)
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/x", nil)
	req.Header.Set(obs.RequestIDHeader, "panic-id")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	log := logw.String()
	for _, want := range []string{"level=ERROR", "id=panic-id", "kaboom", "stack="} {
		if !strings.Contains(log, want) {
			t.Errorf("panic log missing %q:\n%s", want, log)
		}
	}
	if m.Registry.Counter("dav_panics_total", "", nil).Value() != 1 {
		t.Error("dav_panics_total not incremented")
	}
	// The 500 must be visible in the request metrics too.
	var sb strings.Builder
	m.Registry.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `dav_requests_total{class="5xx",method="GET"} 1`) {
		t.Errorf("recovered panic not counted as 5xx:\n%s", sb.String())
	}
}

// TestTrackStoreExposesRecoveryMetrics pins the PR 6 telemetry: an
// FSStore tracked by Metrics must surface the crash recovery and
// fsync-error series in the Prometheus exposition.
func TestTrackStoreExposesRecoveryMetrics(t *testing.T) {
	fs, err := store.NewFSStore(t.TempDir(), dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	m := NewMetrics(obs.NewRegistry())
	m.TrackStore(fs)
	var sb strings.Builder
	if err := m.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"dav_recovery_runs_total",
		"dav_recovery_rolled_forward_total",
		"dav_recovery_rolled_back_total",
		"dav_recovery_swept_tmp_total",
		"dav_recovery_last_duration_seconds",
		"dav_recovering",
		`dav_fsync_errors_total{layer="store"}`,
		`dav_fsync_errors_total{layer="dbm"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	// A completed startup recovery pass counts as a run.
	if !strings.Contains(out, "dav_recovery_runs_total 1") {
		t.Errorf("dav_recovery_runs_total != 1 after open:\n%s", out)
	}
	if !strings.Contains(out, "dav_recovering 0") {
		t.Error("dav_recovering != 0 on a recovered store")
	}
}
