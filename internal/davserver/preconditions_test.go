package davserver

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dbm"
	"repro/internal/store"
	"repro/internal/store/journal"
)

// FuzzETagListMatches: "*" matches whatever the ETag; a header naming
// the ETag matches, strong or weak; and whitespace around the header or
// a W/ on the stored ETag never changes the answer. ETags are
// entity-tags as RFC 7232 writes them, less the comma a list cannot
// carry unambiguously — the stores make "hex-hex".
func FuzzETagListMatches(f *testing.F) {
	for _, seed := range [][2]string{
		{`"5-1"`, `"5-1"`}, {`W/"5-1"`, `"5-1"`}, {`"a", "5-1"`, `W/"5-1"`},
		{`*`, `"x"`}, {` , "x" ,`, `"x"`}, {`"5-2"`, `"5-1"`}, {``, `""`},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, header, etag string) {
		strong := strings.TrimPrefix(etag, "W/")
		if len(strong) < 2 || strong[0] != '"' || strong[len(strong)-1] != '"' ||
			strings.ContainsFunc(strong[1:len(strong)-1], func(r rune) bool { return r <= ' ' || r == '"' || r == ',' || r == 0x7f }) {
			return
		}
		if !etagListMatches("*", etag) {
			t.Fatalf("* does not match %s", etag)
		}
		for _, h := range []string{etag, strong, "W/" + strong, " \t" + etag + " "} {
			if !etagListMatches(h, etag) {
				t.Fatalf("%q does not match %s", h, etag)
			}
		}
		m := etagListMatches(header, etag)
		if etagListMatches(" \t"+header+"\t ", etag) != m {
			t.Fatalf("whitespace around %q changes its match with %s", header, etag)
		}
		if etagListMatches(header, "W/"+strong) != m || etagListMatches(header, strong) != m {
			t.Fatalf("%q matches %s but not its other strength", header, etag)
		}
	})
}

func etagOf(t *testing.T, url string) string {
	t.Helper()
	resp := do(t, "HEAD", url, nil, "")
	wantStatus(t, resp, 200)
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on HEAD")
	}
	return etag
}

func TestPutIfMatch(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	url := srv.URL + "/doc.txt"
	wantStatus(t, do(t, "PUT", url, nil, "v1"), 201)
	etag := etagOf(t, url)

	// Matching If-Match: the write proceeds.
	wantStatus(t, do(t, "PUT", url, map[string]string{"If-Match": etag}, "v2"), 204)

	// The old ETag is now stale: a lost-update write is refused.
	resp := do(t, "PUT", url, map[string]string{"If-Match": etag}, "v3")
	wantStatus(t, resp, 412)
	if got := bodyOf(t, url); got != "v2" {
		t.Fatalf("412 PUT modified the resource: %q", got)
	}

	// If-Match lists try each candidate.
	fresh := etagOf(t, url)
	wantStatus(t, do(t, "PUT", url,
		map[string]string{"If-Match": etag + ", " + fresh}, "v4"), 204)

	// If-Match: * requires existence.
	wantStatus(t, do(t, "PUT", url, map[string]string{"If-Match": "*"}, "v5"), 204)
	wantStatus(t, do(t, "PUT", srv.URL+"/absent.txt",
		map[string]string{"If-Match": "*"}, "x"), 412)
}

func TestPutIfNoneMatch(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	url := srv.URL + "/doc.txt"

	// If-None-Match: * means "create only".
	wantStatus(t, do(t, "PUT", url, map[string]string{"If-None-Match": "*"}, "v1"), 201)
	resp := do(t, "PUT", url, map[string]string{"If-None-Match": "*"}, "v2")
	wantStatus(t, resp, 412)
	if got := bodyOf(t, url); got != "v1" {
		t.Fatalf("412 PUT modified the resource: %q", got)
	}

	// A specific non-matching ETag lets the write through.
	wantStatus(t, do(t, "PUT", url, map[string]string{"If-None-Match": `"nope"`}, "v3"), 204)
	// The current ETag blocks it.
	wantStatus(t, do(t, "PUT", url,
		map[string]string{"If-None-Match": etagOf(t, url)}, "v4"), 412)
}

func TestDeletePreconditions(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	url := srv.URL + "/doc.txt"
	wantStatus(t, do(t, "PUT", url, nil, "v1"), 201)
	etag := etagOf(t, url)

	// Stale ETag refuses the delete; resource survives.
	wantStatus(t, do(t, "PUT", url, nil, "v2"), 204)
	wantStatus(t, do(t, "DELETE", url, map[string]string{"If-Match": etag}, ""), 412)
	wantStatus(t, do(t, "HEAD", url, nil, ""), 200)

	// If-None-Match with the live ETag also refuses.
	wantStatus(t, do(t, "DELETE", url,
		map[string]string{"If-None-Match": etagOf(t, url)}, ""), 412)

	// Fresh ETag deletes.
	wantStatus(t, do(t, "DELETE", url, map[string]string{"If-Match": etagOf(t, url)}, ""), 204)
	wantStatus(t, do(t, "HEAD", url, nil, ""), 404)

	// If-Match against a now-missing resource: 412, not 404.
	wantStatus(t, do(t, "DELETE", url, map[string]string{"If-Match": "*"}, ""), 412)
}

// TestSameSizeOverwriteChangesETagOverHTTP exercises the strengthened
// document ETag end to end: the If-Match guard must actually catch a
// same-size overwrite.
func TestSameSizeOverwriteChangesETagOverHTTP(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	url := srv.URL + "/doc.txt"
	wantStatus(t, do(t, "PUT", url, nil, "aaaa"), 201)
	etag := etagOf(t, url)
	wantStatus(t, do(t, "PUT", url, nil, "bbbb"), 204)
	if again := etagOf(t, url); again == etag {
		t.Fatalf("same-size overwrite kept ETag %s", etag)
	}
	wantStatus(t, do(t, "PUT", url, map[string]string{"If-Match": etag}, "cccc"), 412)
}

// TestConditionalPutCheckAndWriteAtomic races conditional PUTs all
// carrying the same If-Match ETag. The handler's per-path write gate
// makes the precondition check and the store write one atomic sequence,
// so exactly one writer may win; every other must observe the winner's
// new ETag and fail with 412 instead of silently overwriting it (the
// lost update the precondition exists to prevent). Run with -race.
func TestConditionalPutCheckAndWriteAtomic(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	url := srv.URL + "/doc.txt"
	wantStatus(t, do(t, "PUT", url, nil, "v1"), 201)
	etag := etagOf(t, url)

	const writers = 8
	codes := make([]int, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequest("PUT", url, strings.NewReader(fmt.Sprintf("w%d", i)))
			if err != nil {
				errs[i] = err
				return
			}
			req.Header.Set("If-Match", etag)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs[i] = err
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()

	won, refused := 0, 0
	for i := 0; i < writers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		switch codes[i] {
		case http.StatusNoContent:
			won++
		case http.StatusPreconditionFailed:
			refused++
		default:
			t.Fatalf("writer %d: unexpected status %d", i, codes[i])
		}
	}
	if won != 1 || refused != writers-1 {
		t.Fatalf("lost update: %d writers passed the same If-Match (want 1), %d refused", won, refused)
	}
}

func bodyOf(t *testing.T, url string) string {
	t.Helper()
	resp := do(t, "GET", url, nil, "")
	wantStatus(t, resp, 200)
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPropfindDepth1UsesHandleCache is the server-level acceptance
// check for the batched PROPFIND seam: after a warm-up, a Depth:1
// PROPFIND over a populated collection opens no new property databases
// and costs exactly one batched store pass.
func TestPropfindDepth1UsesHandleCache(t *testing.T) {
	fs, err := store.NewFSStore(t.TempDir(), dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	h := NewHandler(fs, nil)
	srv := newServerOver(t, h)

	wantStatus(t, do(t, "MKCOL", srv.URL+"/d", nil, ""), 201)
	for _, n := range []string{"a", "b", "c"} {
		url := srv.URL + "/d/" + n + ".dat"
		wantStatus(t, do(t, "PUT", url, nil, "body"), 201)
		wantStatus(t, do(t, "PROPPATCH", url, nil,
			`<?xml version="1.0"?><D:propertyupdate xmlns:D="DAV:"><D:set><D:prop>`+
				`<k xmlns="ns:">v</k></D:prop></D:set></D:propertyupdate>`), 207)
	}

	propfind := func() {
		resp := do(t, "PROPFIND", srv.URL+"/d", map[string]string{"Depth": "1"},
			`<?xml version="1.0"?><D:propfind xmlns:D="DAV:"><D:allprop/></D:propfind>`)
		wantStatus(t, resp, 207)
	}
	propfind() // warm the cache
	before := fs.CacheStats()
	propfind()
	after := fs.CacheStats()
	if after.Misses != before.Misses {
		t.Fatalf("warm Depth:1 PROPFIND reopened databases: misses %d -> %d",
			before.Misses, after.Misses)
	}
	if after.Hits <= before.Hits {
		t.Fatal("warm Depth:1 PROPFIND recorded no cache hits")
	}
}

// TestTrackStoreExposesConcurrencyGauges checks the metrics wiring for
// the path-lock and handle-cache counters.
func TestTrackStoreExposesConcurrencyGauges(t *testing.T) {
	fs, err := store.NewFSStore(t.TempDir(), dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	m := NewMetrics(nil)
	m.TrackStore(fs)
	h := NewHandler(store.Instrument(fs, m.StoreObserver()), nil)
	srv := newServerOver(t, h)

	wantStatus(t, do(t, "PUT", srv.URL+"/doc.txt", nil, "x"), 201)
	wantStatus(t, do(t, "PROPPATCH", srv.URL+"/doc.txt", nil,
		`<?xml version="1.0"?><D:propertyupdate xmlns:D="DAV:"><D:set><D:prop>`+
			`<k xmlns="ns:">v</k></D:prop></D:set></D:propertyupdate>`), 207)

	scrape := scrapeMetrics(t, m)
	for _, want := range []string{
		"dav_pathlock_acquisitions_total",
		"dav_pathlock_contended_total",
		"dav_pathlock_wait_seconds_total",
		"dav_pathlock_held 0",
		"dav_dbm_cache_misses_total",
		"dav_dbm_cache_open",
		"dav_dbm_cache_bytes",
	} {
		if !strings.Contains(scrape, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, scrape)
		}
	}
}

// newServerOver serves an already-built handler.
func newServerOver(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// scrapeMetrics renders the registry's exposition text.
func scrapeMetrics(t *testing.T, m *Metrics) string {
	t.Helper()
	rr := httptest.NewRecorder()
	m.Registry.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rr.Body.String()
}

// doneWatcher reports, by closing waiting, the first time anything
// waits on the request's context: the write gate selects on Done while
// it queues a request, and nothing before the gate does.
type doneWatcher struct {
	context.Context
	once    *sync.Once
	waiting chan struct{}
}

func (c doneWatcher) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// A COPY onto a path, or a MOVE away from it, cannot land between a
// conditional PUT's check and its write. An interceptor holds the PUT's
// store Put, which it reaches only once its If-Match has passed, until
// the COPY or MOVE has either been answered or queued for the write
// gate; the PUT must then land first, and the COPY or MOVE after it.
func TestCopyMoveWaitForAConditionalPut(t *testing.T) {
	for _, tc := range []struct {
		method, src, dst string
		want             map[string]string // body per path at the end; "" is 404
		status           int               // the COPY's or MOVE's
	}{
		{"COPY", "/src", "/doc", map[string]string{"/doc": "copied", "/src": "copied"}, 204},
		{"MOVE", "/doc", "/moved", map[string]string{"/doc": "", "/moved": "put"}, 201},
	} {
		t.Run(tc.method, func(t *testing.T) {
			var armed atomic.Bool
			held, release := make(chan struct{}), make(chan struct{})
			s := store.Intercept(store.NewMemStore(), func(ctx context.Context, op store.Op, next func(context.Context) error) error {
				if op.Name == store.OpPut && armed.CompareAndSwap(true, false) {
					close(held)
					<-release
				}
				return next(ctx)
			})
			waiting := make(chan struct{})
			h := NewHandler(s, nil)
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == tc.method {
					r = r.WithContext(doneWatcher{r.Context(), new(sync.Once), waiting})
				}
				h.ServeHTTP(w, r)
			}))
			defer srv.Close()
			send := func(method, path string, headers map[string]string, body string) chan int {
				out := make(chan int, 1)
				go func() {
					req, _ := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
					for k, v := range headers {
						req.Header.Set(k, v)
					}
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Error(err)
						out <- 0
						return
					}
					resp.Body.Close()
					out <- resp.StatusCode
				}()
				return out
			}

			wantStatus(t, do(t, "PUT", srv.URL+"/src", nil, "copied"), 201)
			wantStatus(t, do(t, "PUT", srv.URL+"/doc", nil, "old"), 201)
			armed.Store(true)
			put := send("PUT", "/doc", map[string]string{"If-Match": etagOf(t, srv.URL+"/doc")}, "put")
			<-held
			moved := send(tc.method, tc.src, map[string]string{"Destination": srv.URL + tc.dst}, "")
			status := 0
			select {
			case <-waiting:
			case status = <-moved:
			}
			close(release)
			if got := <-put; got != 204 {
				t.Errorf("conditional PUT = %d, want 204", got)
			}
			if status == 0 {
				status = <-moved
			}
			if status != tc.status {
				t.Errorf("%s = %d, want %d", tc.method, status, tc.status)
			}
			for p, want := range tc.want {
				resp := do(t, "GET", srv.URL+p, nil, "")
				body, _ := io.ReadAll(resp.Body)
				if want == "" && resp.StatusCode != 404 || want != "" && string(body) != want {
					t.Errorf("GET %s = %d %q, want %q", p, resp.StatusCode, body, want)
				}
			}
		})
	}
}

// gateRace serves a Handler over a MemStore whose next store call named
// heldIn, once armed, waits in an interceptor until release is closed.
// A request of the watched method closes waiting once it queues for the
// write gate (doneWatcher).
type gateRace struct {
	url                    string
	armed                  atomic.Bool
	held, release, waiting chan struct{}
}

func newGateRace(t *testing.T, heldIn, watched string) *gateRace {
	g := &gateRace{held: make(chan struct{}), release: make(chan struct{}), waiting: make(chan struct{})}
	s := store.Intercept(store.NewMemStore(), func(ctx context.Context, op store.Op, next func(context.Context) error) error {
		if op.Name == heldIn && g.armed.CompareAndSwap(true, false) {
			close(g.held)
			<-g.release
		}
		return next(ctx)
	})
	h := NewHandler(s, nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == watched {
			r = r.WithContext(doneWatcher{r.Context(), new(sync.Once), g.waiting})
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	g.url = srv.URL
	return g
}

// raced is one request of a gateRace.
type raced struct {
	method, path, body string
	headers            map[string]string
}

// run sends first and, once it is held in its store call, second; it
// lets first go on once second has been answered or has queued for the
// gate. It reports both statuses, and whether second was answered while
// first was held instead of queueing behind it.
func (g *gateRace) run(t *testing.T, first, second raced) (firstStatus, secondStatus int, early bool) {
	send := func(q raced) chan int {
		out := make(chan int, 1)
		go func() {
			req, _ := http.NewRequest(q.method, g.url+q.path, strings.NewReader(q.body))
			for k, v := range q.headers {
				req.Header.Set(k, v)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				out <- 0
				return
			}
			resp.Body.Close()
			out <- resp.StatusCode
		}()
		return out
	}
	g.armed.Store(true)
	a := send(first)
	<-g.held
	b := send(second)
	select {
	case <-g.waiting:
	case secondStatus = <-b:
		early = true
	}
	close(g.release)
	firstStatus = <-a
	if !early {
		secondStatus = <-b
	}
	return firstStatus, secondStatus, early
}

// A LOCK of an unmapped URL, a VERSION-CONTROL and a COPY each hold the
// write gate for their whole sequence. An interceptor holds each inside
// its store write (the LOCK's create of the empty document, the
// VERSION-CONTROL's snapshot, the COPY's copy) until a PUT of the same
// path has been answered or queued for the gate. The PUT must then run
// after it: the lock the LOCK granted refuses it, it adds version 2 to
// the history the VERSION-CONTROL began with the old body, or it lands
// after the COPY, which holds its source shared and copies the old body.
func TestLockAndVersionControlHoldTheGate(t *testing.T) {
	for _, tc := range []struct {
		method, body string
		headers      map[string]string
		heldIn       string            // the store call the method is held in
		status, put  int               // the method's answer and the PUT's
		bodies       map[string]string // GET body per path at the end
		versions     []string
	}{
		{"LOCK", lockBody("exclusive"), nil, store.OpPut, 201, 423, map[string]string{"/doc": ""}, nil},
		{"VERSION-CONTROL", "", nil, store.OpCopyTree, 200, 204, map[string]string{"/doc": "put"}, []string{"old", "put"}},
		{"COPY", "", map[string]string{"Destination": "/copy"}, store.OpCopyTree, 201, 204,
			map[string]string{"/doc": "put", "/copy": "old"}, nil},
	} {
		t.Run(tc.method, func(t *testing.T) {
			g := newGateRace(t, tc.heldIn, "PUT")
			if tc.method != "LOCK" { // LOCK's URL is unmapped
				wantStatus(t, do(t, "PUT", g.url+"/doc", nil, "old"), 201)
			}
			status, put, early := g.run(t, raced{method: tc.method, path: "/doc", body: tc.body, headers: tc.headers},
				raced{method: "PUT", path: "/doc", body: "put"})
			if status != tc.status {
				t.Errorf("%s = %d, want %d", tc.method, status, tc.status)
			}
			if early || put != tc.put {
				t.Errorf("PUT = %d (answered while the %s was held: %v), want %d after it", put, tc.method, early, tc.put)
			}
			for p, want := range tc.bodies {
				if got := bodyOf(t, g.url+p); got != want {
					t.Errorf("GET %s = %q, want %q", p, got, want)
				}
			}
			if tc.versions == nil {
				return
			}
			hrefs := versionHrefs(t, g.url, "/doc")
			if len(hrefs) != len(tc.versions) {
				t.Fatalf("versions = %v, want %d", hrefs, len(tc.versions))
			}
			for i, href := range hrefs {
				if got := bodyOf(t, g.url+href); got != tc.versions[i] {
					t.Errorf("version %d = %q, want %q", i+1, got, tc.versions[i])
				}
			}
		})
	}
}

// A PROPPATCH and a MKCOL hold the write gate from their lock check to
// their last write, so no lock is granted in between. An interceptor
// holds each inside its store write (a PropPut, the Mkcol) until an
// exclusive LOCK of the document (of the new collection's parent, at
// Depth 0) has been answered or queued for the gate. The LOCK must
// queue, and be granted once the write has landed: a write never lands
// under another client's lock without its token.
func TestProppatchAndMkcolHoldTheGate(t *testing.T) {
	for _, tc := range []struct {
		write  raced
		heldIn string // the store call the write is held in
		locked string // the path the LOCK asks for
		status int    // the write's answer
	}{
		{raced{method: "PROPPATCH", path: "/c/doc", body: proppatchBody(map[string]string{"k": "v"})}, store.OpPropPut, "/c/doc", 207},
		{raced{method: "MKCOL", path: "/c/new"}, store.OpMkcol, "/c", 201},
	} {
		t.Run(tc.write.method, func(t *testing.T) {
			g := newGateRace(t, tc.heldIn, "LOCK")
			wantStatus(t, do(t, "MKCOL", g.url+"/c", nil, ""), 201)
			wantStatus(t, do(t, "PUT", g.url+"/c/doc", nil, "x"), 201)
			status, lock, early := g.run(t, tc.write,
				raced{method: "LOCK", path: tc.locked, body: lockBody("exclusive"), headers: map[string]string{"Depth": "0"}})
			if status != tc.status {
				t.Errorf("%s = %d, want %d", tc.write.method, status, tc.status)
			}
			if early || lock != 200 {
				t.Errorf("LOCK %s = %d (answered while the %s was held: %v), want 200 after it", tc.locked, lock, tc.write.method, early)
			}
		})
	}
}

// Every state-changing method evaluates If-Match and If-None-Match
// against its request-URI before it writes anything (RFC 7232 §3): a
// stale If-Match, an If-Match: * of a missing resource and an
// If-None-Match: * of an existing one each answer 412 and leave the
// store as it was.
func TestConditionalHeadersOnEveryWrite(t *testing.T) {
	for _, m := range []raced{
		{method: "PUT", body: "v3"},
		{method: "DELETE"},
		{method: "MKCOL"},
		{method: "COPY", headers: map[string]string{"Destination": "/copy"}},
		{method: "MOVE", headers: map[string]string{"Destination": "/moved"}},
		{method: "PROPPATCH", body: proppatchBody(map[string]string{"k": "v"})},
	} {
		t.Run(m.method, func(t *testing.T) {
			srv, _ := newTestServer(t, nil)
			wantStatus(t, do(t, "PUT", srv.URL+"/doc", nil, "v1"), 201)
			stale := etagOf(t, srv.URL+"/doc")
			wantStatus(t, do(t, "PUT", srv.URL+"/doc", nil, "v2"), 204)
			tree := func() string {
				resp := do(t, "PROPFIND", srv.URL+"/", map[string]string{"Depth": "infinity"}, "")
				wantStatus(t, resp, 207)
				b, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return string(b)
			}
			for _, c := range []struct{ path, header, value string }{
				{"/doc", "If-Match", stale},
				{"/absent", "If-Match", "*"},
				{"/doc", "If-None-Match", "*"},
			} {
				before := tree()
				headers := map[string]string{c.header: c.value}
				for k, v := range m.headers {
					headers[k] = v
				}
				if resp := do(t, m.method, srv.URL+c.path, headers, m.body); resp.StatusCode != 412 {
					t.Errorf("%s %s with %s: %s = %d, want 412", m.method, c.path, c.header, c.value, resp.StatusCode)
				}
				if after := tree(); after != before {
					t.Errorf("%s %s with %s: %s changed the store:\n%s\nafter:\n%s", m.method, c.path, c.header, c.value, before, after)
				}
			}
		})
	}
}

// A document whose property database cannot be read is not absent: a
// PUT or a PROPPATCH of it answers 500 before it writes anything, so a
// later GET serves the old body and the journal holds nothing.
func TestWritesOverAnUnreadablePropertyDatabaseChangeNothing(t *testing.T) {
	root := t.TempDir()
	s, err := store.NewFSStore(root, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(s, nil))
	wantStatus(t, do(t, "PUT", srv.URL+"/doc", nil, "old"), 201)
	wantStatus(t, do(t, "PROPPATCH", srv.URL+"/doc", nil, proppatchBody(map[string]string{"k": "v"})), 207)
	srv.Close()
	s.Close()
	if err := os.WriteFile(propsFileOf(t, root, "doc"), bytes.Repeat([]byte("garbage!"), 1024), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = store.NewFSStore(root, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv = httptest.NewServer(NewHandler(s, nil))
	defer srv.Close()
	jpath := filepath.Join(root, store.MetaDirName, store.JournalFileName)
	before, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, do(t, "PUT", srv.URL+"/doc", nil, "new"), 500)
	wantStatus(t, do(t, "PROPPATCH", srv.URL+"/doc", nil, proppatchBody(map[string]string{"k": "w"})), 500)
	if got := bodyOf(t, srv.URL+"/doc"); got != "old" {
		t.Errorf("GET after the failed writes = %q, want the old body", got)
	}
	if after, err := os.Stat(jpath); err != nil || after.Size() != before.Size() {
		t.Errorf("the failed writes grew the journal from %d bytes: %v, %v", before.Size(), after, err)
	}
	if pending, err := journal.ReadPending(jpath); err != nil || len(pending) != 0 {
		t.Errorf("journal holds %v, %v; want nothing", pending, err)
	}
}

// A path below a document names nothing: reading, deleting or patching
// it is 404, and a PUT or MKCOL there is 409, never a 500 for the
// filesystem's ENOTDIR. The PUT reads the target first, and only a
// missing one may go on to the store's Put.
func TestPathUnderADocument(t *testing.T) {
	srv, _, _, log := newLoggedFSServer(t, dbm.GDBM, "")
	wantStatus(t, do(t, "PUT", srv.URL+"/a", nil, "x"), 201)
	for _, tc := range []struct {
		method, body string
		want         int
	}{
		{"PUT", "y", 409},
		{"MKCOL", "", 409},
		{"GET", "", 404},
		{"PROPFIND", "", 404},
		{"PROPPATCH", proppatchBody(map[string]string{"k": "v"}), 404},
		{"DELETE", "", 404},
	} {
		resp := do(t, tc.method, srv.URL+"/a/b", map[string]string{"Depth": "0"}, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s /a/b = %d, want %d", tc.method, resp.StatusCode, tc.want)
		}
	}
	if log.Len() != 0 {
		t.Errorf("error log not empty:\n%s", log)
	}
}
