package davserver

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/davproto"
	"repro/internal/dbm"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/store"
	"repro/internal/xmldom"
)

// probeStore counts the operations that reach it, parks a Get of /hold
// until released, and panics on a Get of /boom.
type probeStore struct {
	store.Store
	ops     atomic.Int64
	holding chan struct{} // receives once a /hold Get is parked
	release chan struct{}
}

func (p *probeStore) Stat(ctx context.Context, path string) (store.ResourceInfo, error) {
	p.ops.Add(1)
	return p.Store.Stat(ctx, path)
}

func (p *probeStore) Get(ctx context.Context, path string) (io.ReadCloser, store.ResourceInfo, error) {
	p.ops.Add(1)
	switch path {
	case "/hold":
		p.holding <- struct{}{}
		<-p.release
	case "/boom":
		panic("probeStore: boom")
	}
	return p.Store.Get(ctx, path)
}

// serveBuilt serves Build(cfg) and its admin surface over live HTTP.
func serveBuilt(t *testing.T, cfg Config) (dav, admin *httptest.Server, logw *syncWriter) {
	t.Helper()
	logw = &syncWriter{}
	cfg.Logger = obs.NewLogger(logw, slog.LevelInfo)
	srv, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dav, admin = httptest.NewServer(srv.Handler), httptest.NewServer(srv.Admin)
	t.Cleanup(func() {
		dav.Close()
		admin.Close()
		srv.Close()
	})
	return dav, admin, logw
}

func scrape(t *testing.T, admin *httptest.Server) string {
	t.Helper()
	resp := do(t, "GET", admin.URL+"/metrics", nil, "")
	wantStatus(t, resp, 200)
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// TestBuildChainOrder pins the order of the assembled chain from the
// outside, over live HTTP: probes before everything, telemetry around
// admission, admission around hardening and auth, the panic recoverer
// around the request timeout.
func TestBuildChainOrder(t *testing.T) {
	users := auth.NewUsers()
	if err := users.Set("alice", "secret"); err != nil {
		t.Fatal(err)
	}
	usersFile := filepath.Join(t.TempDir(), "users")
	if err := users.Save(usersFile); err != nil {
		t.Fatal(err)
	}
	good := map[string]string{"Authorization": "Basic YWxpY2U6c2VjcmV0"} // alice:secret
	bad := map[string]string{"Authorization": "Basic YWxpY2U6d3Jvbmc="}  // alice:wrong

	ps := &probeStore{Store: store.NewMemStore(), holding: make(chan struct{}, 1), release: make(chan struct{})}
	for _, p := range []string{"/hold", "/boom", "/healthz"} {
		if _, err := ps.Store.Put(context.Background(), p, strings.NewReader("a document"), "text/plain"); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.Store = ps
	cfg.Users = usersFile
	cfg.Prefix = "/dav"
	cfg.AdmitLimit, cfg.AdmitQueue = 1, 0
	cfg.RequestTimeout = 5 * time.Second
	dav, admin, logw := serveBuilt(t, cfg)

	// Probes sit outside auth and outside the prefix: no credentials, and
	// a DAV document of the same name stays reachable under the prefix.
	wantStatus(t, do(t, "GET", dav.URL+"/healthz", nil, ""), 200)
	wantStatus(t, do(t, "GET", dav.URL+"/readyz", nil, ""), 200)
	resp := do(t, "GET", dav.URL+"/dav/healthz", good, "")
	wantStatus(t, resp, 200)
	if b, _ := io.ReadAll(resp.Body); string(b) != "a document" {
		t.Fatalf("GET /dav/healthz = %q, want the DAV document, not the probe", b)
	}

	// Rejected credentials are inside telemetry: logged and counted.
	wantStatus(t, do(t, "GET", dav.URL+"/dav/hold", bad, ""), 401)
	if log := logw.String(); !strings.Contains(log, "status=401") {
		t.Errorf("rejected credentials missing from the access log:\n%s", log)
	}

	// Occupy the one admission slot, then offer a request with bad
	// credentials: it must be shed (429, not 401: it never reached auth)
	// without touching the store, yet be counted and logged.
	held := make(chan int, 1)
	go func() {
		resp, err := http.DefaultClient.Do(newRequest(t, "GET", dav.URL+"/dav/hold", good))
		if err != nil {
			held <- 0
			return
		}
		resp.Body.Close()
		held <- resp.StatusCode
	}()
	<-ps.holding
	before := ps.ops.Load()
	resp = do(t, "GET", dav.URL+"/dav/hold", bad, "")
	wantStatus(t, resp, 429)
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed without Retry-After")
	}
	if after := ps.ops.Load(); after != before {
		t.Errorf("a shed request reached the store (%d ops)", after-before)
	}
	wantStatus(t, do(t, "GET", dav.URL+"/healthz", nil, ""), 200) // probes are outside admission too
	close(ps.release)
	if code := <-held; code != 200 {
		t.Fatalf("held request finished %d, want 200", code)
	}
	if log := logw.String(); !strings.Contains(log, "status=429") {
		t.Errorf("shed request missing from the access log:\n%s", log)
	}

	// A handler panic, with the request timeout armed, is a 500 the
	// recoverer counts and telemetry records; the server keeps serving.
	wantStatus(t, do(t, "GET", dav.URL+"/dav/boom", good, ""), 500)
	wantStatus(t, do(t, "GET", dav.URL+"/dav/healthz", good, ""), 200)
	exposition := scrape(t, admin)
	for _, want := range []string{
		`dav_requests_total{class="4xx",method="GET"} 2`, // the 401 and the 429
		`dav_requests_total{class="5xx",method="GET"} 1`,
		`dav_panics_total 1`,
		`dav_admit_shed_total 1`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func newRequest(t *testing.T, method, url string, headers map[string]string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	return req
}

// TestBuildReportsRecovery: Build hands the base store's recovery state
// to the probes itself, through its own store wrappers.
func TestBuildReportsRecovery(t *testing.T) {
	fs, err := store.NewFSStoreWith(t.TempDir(), dbm.GDBM, store.FSOptions{DeferRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Store = fs
	cfg.StoreOpTimeout = time.Second // a second wrapper between the probe and the FSStore
	dav, _, _ := serveBuilt(t, cfg)

	resp := do(t, "GET", dav.URL+"/readyz", nil, "")
	wantStatus(t, resp, 503)
	var st ReadyStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "recovering" || !st.Recovering || st.Recovery == nil {
		t.Fatalf("readyz = %+v, want recovering with a backlog", st)
	}
	wantStatus(t, do(t, "GET", dav.URL+"/healthz", nil, ""), 200)
	wantStatus(t, do(t, "PUT", dav.URL+"/doc", nil, "x"), 503)

	if _, err := fs.Recover(); err != nil {
		t.Fatal(err)
	}
	wantStatus(t, do(t, "GET", dav.URL+"/readyz", nil, ""), 200)
	wantStatus(t, do(t, "PUT", dav.URL+"/doc", nil, "x"), 201)
}

// TestCloseBoundsTheRecoveryWait: a shutdown that arrives while the
// background recovery pass is still working through a long journal
// waits ShutdownGrace for it, warns, and closes the store anyway — the
// daemon's exit is never hostage to the pass.
func TestCloseBoundsTheRecoveryWait(t *testing.T) {
	logw := &syncWriter{}
	cfg := DefaultConfig()
	cfg.Root = t.TempDir()
	cfg.Logger = obs.NewLogger(logw, slog.LevelInfo)
	cfg.ShutdownGrace = 50 * time.Millisecond
	srv, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	<-srv.recovered                     // the real pass over an empty journal
	srv.recovered = make(chan struct{}) // stands for one that never finishes

	closed := make(chan error, 1)
	start := time.Now()
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close still waiting for recovery long after ShutdownGrace")
	}
	if waited := time.Since(start); waited < cfg.ShutdownGrace {
		t.Errorf("Close returned after %s, before the %s grace it owes recovery", waited, cfg.ShutdownGrace)
	}
	if !strings.Contains(logw.String(), "unfinished crash recovery") {
		t.Errorf("no warning about the interrupted pass in the log:\n%s", logw.String())
	}
}

// bundleFiles expands an incident bundle into entry name → content,
// with each gzipped profile decompressed.
func bundleFiles(t *testing.T, data []byte) map[string][]byte {
	t.Helper()
	unzip := func(b []byte) []byte {
		zr, err := gzip.NewReader(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	tr := tar.NewReader(bytes.NewReader(unzip(data)))
	files := map[string][]byte{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return files
		}
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(tr)
		if strings.HasSuffix(hdr.Name, ".gz") {
			body = unzip(body)
		}
		files[hdr.Name] = body
	}
}

// parkedUntilTheBundle is the frame TestBundleProfilesAreTakenAtTrigger
// looks for in a bundle's goroutine profile.
//
//go:noinline
func parkedUntilTheBundle(release <-chan struct{}) { <-release }

// TestBundleProfilesAreTakenAtTrigger: a default davd's bundle profiles
// the moment it was triggered — a goroutine that parked after Build is
// in its goroutine profile — holds all five kinds with no source error,
// and Build has turned the mutex and block profiles on.
func TestBundleProfilesAreTakenAtTrigger(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Root = t.TempDir()
	srv, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if got := runtime.SetMutexProfileFraction(-1); got != mutexProfileFraction {
		t.Errorf("mutex profile fraction after Build = %d, want %d", got, mutexProfileFraction)
	}

	// The goroutine parks well after start: past where a background
	// profile ring's first 1 s tick would have ended, so a snapshot
	// taken before the trigger cannot pass for one taken at it.
	time.Sleep(1500 * time.Millisecond)
	release := make(chan struct{})
	defer close(release)
	go parkedUntilTheBundle(release)
	rec := httptest.NewRecorder()
	srv.Admin.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/incident", nil))
	if rec.Code != 202 {
		t.Fatalf("POST /debug/incident = %d: %s", rec.Code, rec.Body)
	}

	bundles := srv.capturer.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("%d bundles, want the one just triggered", len(bundles))
	}
	files := bundleFiles(t, bundles[0].Data)
	var man struct{ Errors map[string]string }
	if err := json.Unmarshal(files["incident.json"], &man); err != nil || len(man.Errors) != 0 {
		t.Errorf("manifest: %v, errors %v", err, man.Errors)
	}
	for _, kind := range prof.Kinds {
		if len(files["profiles/"+kind+".pb.gz"]) == 0 {
			t.Errorf("no %s profile", kind)
		}
	}
	if !bytes.Contains(files["profiles/goroutine.pb.gz"], []byte("parkedUntilTheBundle")) {
		t.Error("the goroutine profile predates the trigger: it lacks a goroutine parked before it")
	}
}

// TestCloseFlushesTheInflightBundle: a slow request trips a bundle, and
// Close right after it waits for the assembly, so the flush that
// follows writes the bundle and no capturer goroutine outlives Close.
func TestCloseFlushesTheInflightBundle(t *testing.T) {
	mem := store.NewMemStore()
	if _, err := mem.Put(context.Background(), "/doc", strings.NewReader("a document"), "text/plain"); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SlowThreshold = 20 * time.Millisecond
	cfg.Store = store.Intercept(mem, func(ctx context.Context, op store.Op, next func(context.Context) error) error {
		if op.Name == store.OpGet {
			time.Sleep(60 * time.Millisecond)
		}
		return next(ctx)
	})
	srv, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dav := httptest.NewServer(srv.Handler)
	wantStatus(t, do(t, "GET", dav.URL+"/doc", nil, ""), 200)
	dav.Close() // returns once the handler, and with it the slow trip, has run
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	stacks := make([]byte, 1<<20)
	if n := runtime.Stack(stacks, true); bytes.Contains(stacks[:n], []byte("prof.(*Capturer)")) {
		t.Errorf("a capturer goroutine outlived Close:\n%s", stacks[:n])
	}
	dir := t.TempDir()
	if err := srv.FlushEvidence(filepath.Join(dir, "traces.jsonl")); err != nil {
		t.Fatal(err)
	}
	if flushed, _ := filepath.Glob(filepath.Join(dir, "inc-*.tar.gz")); len(flushed) != 1 {
		t.Fatalf("flushed %d bundles, want the slow request's one", len(flushed))
	}
}

// TestBuildRejectsBeforeOpening: every invalid setting is refused
// before the store is opened, so a failed start leaves no store behind.
func TestBuildRejectsBeforeOpening(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"flavour":     func(c *Config) { c.Flavour = "ndbm" },
		"dbm-cache":   func(c *Config) { c.DBMCache = 0 },
		"slo":         func(c *Config) { c.SLO = "GET:fast:0.99" },
		"slo-nan":     func(c *Config) { c.SLO = "GET:50ms:NaN" },
		"users":       func(c *Config) { c.Users = filepath.Join(c.Root, "no-such-file") },
		"brownout":    func(c *Config) { c.Brownout, c.SLO = true, "" },
		"admit-limit": func(c *Config) { c.AdmitLimit = -1 },
		"admit-queue": func(c *Config) { c.AdmitLimit, c.AdmitQueue = 8, -3 },
	} {
		cfg := DefaultConfig()
		cfg.Root = filepath.Join(t.TempDir(), "root")
		mutate(&cfg)
		if srv, err := Build(cfg); err == nil {
			srv.Close()
			t.Errorf("%s: Build accepted an invalid config", name)
		}
		if matches, _ := filepath.Glob(cfg.Root); len(matches) != 0 {
			t.Errorf("%s: a rejected config still opened the store at %s", name, cfg.Root)
		}
	}
}

// TestDeeplyNestedBodyIs400: the parser bounds element nesting, so a
// body of nothing but start tags is an ordinary bad request. Before it
// did, ParseProppatch recursed over such a tree until the goroutine
// stack ran out, which is fatal to the process, not a panic Harden
// could recover.
func TestDeeplyNestedBodyIs400(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Store = store.NewMemStore()
	dav, _, _ := serveBuilt(t, cfg)
	wantStatus(t, do(t, "PUT", dav.URL+"/doc", nil, "a document"), 201)

	nest := func(n int) string { return strings.Repeat("<a>", n) + strings.Repeat("</a>", n) }
	proppatch := func(value string) string {
		return `<D:propertyupdate xmlns:D="DAV:"><D:set><D:prop><p xmlns="urn:t">` + value + `</p></D:prop></D:set></D:propertyupdate>`
	}
	propfind := func(value string) string {
		return `<D:propfind xmlns:D="DAV:"><D:prop>` + value + `</D:prop></D:propfind>`
	}
	for _, tc := range []struct {
		method, body string
		want         int
	}{
		{"PROPPATCH", proppatch(nest(500)), 207}, // 504 deep: inside the limit
		{"PROPPATCH", proppatch(nest(600)), 400},
		{"PROPPATCH", strings.Repeat("<a>", 1<<20), 400},
		{"PROPFIND", propfind(nest(500)), 207},
		{"PROPFIND", propfind(nest(600)), 400},
		{"PROPFIND", strings.Repeat("<a>", 1<<20), 400},
	} {
		wantStatus(t, do(t, tc.method, dav.URL+"/doc", map[string]string{"Depth": "0"}, tc.body), tc.want)
		resp := do(t, "GET", dav.URL+"/doc", nil, "")
		wantStatus(t, resp, 200)
		if b, _ := io.ReadAll(resp.Body); string(b) != "a document" {
			t.Fatalf("after the %s, GET /doc = %q", tc.method, b)
		}
	}
}

// TestBuiltGetStreamsAndCounts: a GET through the whole chain hands the
// document to net/http by ReadFrom (obs.ResponseRecorder forwards it),
// and the recorder still sees every byte: body, Content-Length, the
// access log's status and bytes, and dav_response_body_bytes agree for a
// document larger than any copy buffer, a small one and an empty one.
func TestBuiltGetStreamsAndCounts(t *testing.T) {
	fs, err := store.NewFSStore(t.TempDir(), dbm.GDBM) // files, so that there is something to sendfile
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Store = fs
	dav, admin, logw := serveBuilt(t, cfg)
	total := 0
	for _, size := range []int{300 << 10, 10, 0} {
		body := strings.Repeat("0123456789", size/10)
		url := dav.URL + "/doc" + strconv.Itoa(size)
		wantStatus(t, do(t, "PUT", url, nil, body), 201)
		resp := do(t, "GET", url, nil, "")
		wantStatus(t, resp, 200)
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(size) {
			t.Errorf("GET of %d bytes: Content-Length %q", size, cl)
		}
		if b, _ := io.ReadAll(resp.Body); string(b) != body {
			t.Errorf("GET of %d bytes returned %d, or other, bytes", size, len(b))
		}
		// sendfile can deliver the whole body before the handler returns and
		// writes its access-log line, so the line may lag the body.
		want := "method=GET path=/doc" + strconv.Itoa(size) + " depth=\"\" status=200 bytes=" + strconv.Itoa(size) + " "
		for deadline := time.Now().Add(5 * time.Second); !strings.Contains(logw.String(), want); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("access log lacks %q:\n%s", want, logw.String())
			}
		}
		total += size
	}
	exposition := scrape(t, admin)
	for _, want := range []string{
		`dav_response_body_bytes_count{method="GET"} 3`,
		`dav_response_body_bytes_sum{method="GET"} ` + strconv.Itoa(total),
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestStatusShowsHandleCacheBytes: what the cached handles' resident
// images hold is a row of /debug/status's gauges, beside the handle
// count, and it is not zero once a property database is open.
func TestStatusShowsHandleCacheBytes(t *testing.T) {
	fs, err := store.NewFSStore(t.TempDir(), dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Store = fs
	dav, admin, _ := serveBuilt(t, cfg)
	wantStatus(t, do(t, "PUT", dav.URL+"/doc", nil, "a document"), 201)
	wantStatus(t, do(t, "PROPPATCH", dav.URL+"/doc", nil,
		`<D:propertyupdate xmlns:D="DAV:"><D:set><D:prop><k xmlns="ns:">`+strings.Repeat("v", 1000)+`</k></D:prop></D:set></D:propertyupdate>`), 207)
	resp := do(t, "GET", admin.URL+"/debug/status?format=json", nil, "")
	wantStatus(t, resp, 200)
	var doc struct {
		Gauges map[string]float64 `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if open, bytes := doc.Gauges["dav_dbm_cache_open"], doc.Gauges["dav_dbm_cache_bytes"]; open != 1 || bytes < 1000 || bytes > 64<<20 {
		t.Errorf("gauges: dav_dbm_cache_open = %v, dav_dbm_cache_bytes = %v; want 1 handle holding at least the 1000-byte value", open, bytes)
	}
}

// TestHugeLockTimeoutIsClamped: a Timeout past 2³²−1 seconds, on a new
// lock or a refresh, is granted as exactly 2³²−1 seconds — never
// Infinite (a wrapped negative duration) and never a lock that is gone
// within a second (a wrap to near zero).
func TestHugeLockTimeoutIsClamped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Store = store.NewMemStore()
	dav, _, _ := serveBuilt(t, cfg)
	const ceiling = (1<<32 - 1) * time.Second
	granted := func(resp *http.Response) time.Duration {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != 200 && resp.StatusCode != 201 {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("LOCK = %d: %s", resp.StatusCode, b)
		}
		doc, err := xmldom.Parse(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		al, err := davproto.ActiveLockFromXML(doc.Find(davproto.NS, "lockdiscovery").Find(davproto.NS, "activelock"))
		if err != nil {
			t.Fatal(err)
		}
		return al.Timeout
	}
	for i, h := range []string{"Second-4294967296", "Second-9300000000", "Second-18446744074", "Second-99999999999999999999999"} {
		url := dav.URL + "/doc" + strconv.Itoa(i)
		wantStatus(t, do(t, "PUT", url, nil, "v1"), 201)
		resp := do(t, "LOCK", url, map[string]string{"Timeout": h}, lockBody("exclusive"))
		tok := strings.Trim(resp.Header.Get("Lock-Token"), "<>")
		if got := granted(resp); got != ceiling {
			t.Errorf("LOCK with Timeout %s granted %v, want %v", h, got, ceiling)
		}
		refresh := do(t, "LOCK", url, map[string]string{"Timeout": h, "If": "(<" + tok + ">)"}, "")
		if got := granted(refresh); got != ceiling {
			t.Errorf("refresh with Timeout %s granted %v, want %v", h, got, ceiling)
		}
	}
	time.Sleep(400 * time.Millisecond) // past the ≈0.29 s a wrapped Second-18446744074 used to give
	for i := range 4 {
		wantStatus(t, do(t, "PUT", dav.URL+"/doc"+strconv.Itoa(i), nil, "v2"), 423)
	}
}
