package davserver

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/dbm"
	"repro/internal/obs"
	"repro/internal/store"
)

func TestRecovererTurnsPanicInto500(t *testing.T) {
	var logged strings.Builder
	logger := obs.NewLogger(&logged, slog.LevelInfo)
	h := Harden(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}), HardenOptions{Logger: logger})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/x")
	if err != nil {
		t.Fatalf("panic killed the connection: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(logged.String(), "boom") {
		t.Fatal("panic not logged")
	}
	// The server must keep serving after the panic.
	resp2, err := http.Get(srv.URL + "/y")
	if err != nil {
		t.Fatalf("server dead after panic: %v", err)
	}
	resp2.Body.Close()
}

func TestBodyLimit(t *testing.T) {
	h := Harden(NewHandler(store.NewMemStore(), nil), HardenOptions{MaxBodyBytes: 10})
	srv := httptest.NewServer(h)
	defer srv.Close()

	small, err := http.NewRequest(http.MethodPut, srv.URL+"/ok", strings.NewReader("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(small)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("small PUT = %d, want 201", resp.StatusCode)
	}

	big, err := http.NewRequest(http.MethodPut, srv.URL+"/big", strings.NewReader(strings.Repeat("x", 100)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(big)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT = %d, want 413", resp.StatusCode)
	}
}

func TestBodyLimitWithoutContentLength(t *testing.T) {
	// Chunked uploads bypass the ContentLength fast path; the
	// MaxBytesReader must still stop them.
	h := Harden(NewHandler(store.NewMemStore(), nil), HardenOptions{MaxBodyBytes: 10})
	srv := httptest.NewServer(h)
	defer srv.Close()

	pr, pw := io.Pipe()
	go func() {
		pw.Write([]byte(strings.Repeat("y", 1000)))
		pw.Close()
	}()
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/chunked", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("chunked oversized PUT = %d, want 413", resp.StatusCode)
		}
	}
	// An error is also acceptable: the server may reset the stream
	// mid-upload. Either way the document must not exist complete.
}

func TestRequestTimeout(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(30 * time.Second):
		}
	})
	srv := httptest.NewServer(Harden(slow, HardenOptions{RequestTimeout: 50 * time.Millisecond}))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 from the timeout handler", resp.StatusCode)
	}
}

func TestHealthProbes(t *testing.T) {
	fs := chaos.NewFaultyStore(store.NewMemStore())
	health := NewHealth(fs, nil)
	mux := http.NewServeMux()
	health.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(p string) int {
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatalf("GET %s: %v", p, err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	if got := get("/healthz"); got != 200 {
		t.Fatalf("healthz = %d, want 200", got)
	}
	if got := get("/readyz"); got != 200 {
		t.Fatalf("readyz = %d, want 200", got)
	}

	// A failing store flips readiness but not liveness.
	fs.FailAll(chaos.OpStat)
	if got := get("/healthz"); got != 200 {
		t.Fatalf("healthz with broken store = %d, want 200", got)
	}
	if got := get("/readyz"); got != 503 {
		t.Fatalf("readyz with broken store = %d, want 503", got)
	}
	fs.Clear(chaos.OpStat)
	if got := get("/readyz"); got != 200 {
		t.Fatalf("readyz after recovery = %d, want 200", got)
	}

	// Draining reports 503 regardless of store health.
	health.SetDraining(true)
	if got := get("/readyz"); got != 503 {
		t.Fatalf("readyz while draining = %d, want 503", got)
	}
	health.SetDraining(false)
	if got := get("/readyz"); got != 200 {
		t.Fatalf("readyz after drain cleared = %d, want 200", got)
	}
}

// TestReadyzJSONShape pins the per-check JSON detail of /readyz,
// including the draining flag during graceful drain.
func TestReadyzJSONShape(t *testing.T) {
	health := NewHealth(store.NewMemStore(), nil)
	mux := http.NewServeMux()
	health.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	fetch := func() (int, ReadyStatus) {
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatalf("GET /readyz: %v", err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Fatalf("Content-Type = %q, want application/json", ct)
		}
		var st ReadyStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding /readyz body: %v", err)
		}
		return resp.StatusCode, st
	}

	code, st := fetch()
	if code != 200 || st.Status != "ready" || st.Draining {
		t.Fatalf("healthy readyz = %d %+v, want 200/ready", code, st)
	}
	probe, ok := st.Checks["store"]
	if !ok || !probe.OK || probe.LatencyMS < 0 {
		t.Fatalf("store check = %+v (present %v), want ok with non-negative latency", probe, ok)
	}

	// Graceful drain: same shape, 503, draining flag set, store check
	// still reported so operators can tell drain from store failure.
	health.SetDraining(true)
	code, st = fetch()
	if code != 503 || st.Status != "draining" || !st.Draining {
		t.Fatalf("draining readyz = %d %+v, want 503/draining", code, st)
	}
	if probe, ok := st.Checks["store"]; !ok || !probe.OK {
		t.Fatalf("store check during drain = %+v (present %v), want ok", probe, ok)
	}
	health.SetDraining(false)
	if code, _ := fetch(); code != 200 {
		t.Fatalf("readyz after drain cleared = %d, want 200", code)
	}
}

func TestHardenedStackServesDAV(t *testing.T) {
	// The full stack must stay transparent for well-behaved requests.
	s := store.NewMemStore()
	h := Harden(NewHandler(s, nil), HardenOptions{
		RequestTimeout: 10 * time.Second,
		MaxBodyBytes:   1 << 20,
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/doc", strings.NewReader("payload"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT through hardened stack = %d, want 201", resp.StatusCode)
	}
	got, err := http.Get(srv.URL + "/doc")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(got.Body)
	got.Body.Close()
	if string(body) != "payload" {
		t.Fatalf("GET through hardened stack = %q", body)
	}
}

// TestRecoveringStoreGatesWrites pins the crash recovery serving
// contract: while a store opened with deferred recovery has not
// finished its pass, mutations get 503 with a Retry-After header,
// reads keep working, and /readyz reports "recovering"; once Recover
// completes, writes flow and readiness returns.
func TestRecoveringStoreGatesWrites(t *testing.T) {
	fs, err := store.NewFSStoreWith(t.TempDir(), dbm.GDBM, store.FSOptions{DeferRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	health := NewHealth(fs, fs)
	mux := http.NewServeMux()
	health.Register(mux)
	mux.Handle("/", NewHandler(fs, nil))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	put := func() *http.Response {
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/doc.txt", strings.NewReader("data"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	resp := put()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("PUT during recovery = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Fatal("503 during recovery carries no Retry-After header")
	}

	// Reads are not gated: the tree is consistent for everything the
	// pending journal does not cover.
	pf, err := http.NewRequest("PROPFIND", srv.URL+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	pf.Header.Set("Depth", "0")
	pfResp, err := http.DefaultClient.Do(pf)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, pfResp.Body)
	pfResp.Body.Close()
	if pfResp.StatusCode != 207 {
		t.Fatalf("PROPFIND during recovery = %d, want 207", pfResp.StatusCode)
	}

	rdResp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rst ReadyStatus
	if err := json.NewDecoder(rdResp.Body).Decode(&rst); err != nil {
		t.Fatal(err)
	}
	rdResp.Body.Close()
	if rdResp.StatusCode != 503 || rst.Status != "recovering" || !rst.Recovering {
		t.Fatalf("readyz during recovery = %d %+v, want 503/recovering", rdResp.StatusCode, rst)
	}

	if _, err := fs.Recover(); err != nil {
		t.Fatal(err)
	}
	if resp := put(); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT after recovery = %d, want 201", resp.StatusCode)
	}
	if rdResp, err := http.Get(srv.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, rdResp.Body)
		rdResp.Body.Close()
		if rdResp.StatusCode != 200 {
			t.Fatalf("readyz after recovery = %d, want 200", rdResp.StatusCode)
		}
	}
}
