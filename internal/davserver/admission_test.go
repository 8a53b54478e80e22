package davserver

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/davclient"
)

// TestAdmissionHoldsItsLimit: two authors, each cycling under its own
// collection, are nowhere near -admit-limit 8, so no request waits in
// the admission queue and none is shed. A limit that cuts itself
// whenever the cycle's PUT/PROPFIND/COPY latencies spread — as the
// adaptive one this gate replaced did — queues them.
func TestAdmissionHoldsItsLimit(t *testing.T) {
	const authors, cycles = 2, 40
	cfg := DefaultConfig()
	cfg.Store = fsStoreCheckedAfterClose(t)
	cfg.AdmitLimit = 8
	dav, admin, _ := serveBuilt(t, cfg)
	newClient := func() *davclient.Client {
		c, err := davclient.New(davclient.Config{BaseURL: dav.URL, Persistent: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	if err := populateAuthor(newClient()); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for a := 0; a < authors; a++ {
		c, prefix := newClient(), fmt.Sprintf("/author/a%d", a)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Mkcol(prefix); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < cycles; i++ {
				if err := authorCycle(c, fmt.Sprintf("%s/w%03d", prefix, i)); err != nil {
					t.Errorf("%s cycle %d: %v", prefix, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	e := scrape(t, admin)
	for _, want := range []string{"dav_admit_wait_seconds_total 0\n", "dav_admit_shed_total 0\n"} {
		if !strings.Contains(e, "\n"+want) {
			t.Errorf("/metrics lacks %q: wait %v s, shed %v", want,
				gauge(e, "dav_admit_wait_seconds_total"), gauge(e, "dav_admit_shed_total"))
		}
	}
}

// TestDegradedPutStillVersions: a degraded server keeps writing
// history. An overwrite of a version-controlled document appends its
// version while the brownout bit is up, exactly as at rest.
func TestDegradedPutStillVersions(t *testing.T) {
	srv, _ := newTestServer(t, &Options{Degraded: func() bool { return true }})
	do(t, "PUT", srv.URL+"/doc.txt", nil, "v1")
	wantStatus(t, do(t, "VERSION-CONTROL", srv.URL+"/doc.txt", nil, ""), 200)

	wantStatus(t, do(t, "PUT", srv.URL+"/doc.txt", nil, "v2"), 204)
	if got := versionHrefs(t, srv.URL, "/doc.txt"); len(got) != 2 {
		t.Fatalf("versions while degraded = %v, want 2", got)
	}
	resp := do(t, "GET", srv.URL+"/doc.txt", nil, "")
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "v2" {
		t.Fatalf("live body = %q, want v2", body)
	}
}

// TestBrownoutCapsDeepPropfind: while degraded, Depth: infinity
// PROPFIND is refused the RFC 4918 way and bounded walks still serve;
// the first request after the bit falls is served in full, with no
// hold-down of the handler's own.
func TestBrownoutCapsDeepPropfind(t *testing.T) {
	var degraded atomic.Bool
	degraded.Store(true)
	srv, h := newTestServer(t, &Options{Degraded: degraded.Load})
	wantStatus(t, do(t, "MKCOL", srv.URL+"/proj", nil, ""), 201)
	do(t, "PUT", srv.URL+"/proj/a.txt", nil, "a")

	// Depth: infinity (explicit or defaulted) gets the RFC 4918
	// finite-depth precondition, with retry guidance.
	for _, depth := range []string{"infinity", ""} {
		headers := map[string]string{}
		if depth != "" {
			headers["Depth"] = depth
		}
		resp := do(t, "PROPFIND", srv.URL+"/", headers, "")
		wantStatus(t, resp, 403)
		body, _ := io.ReadAll(resp.Body)
		if !strings.Contains(string(body), "propfind-finite-depth") {
			t.Fatalf("Depth=%q body = %q, want propfind-finite-depth precondition", depth, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("Depth=%q refusal missing Retry-After", depth)
		}
	}
	if got := h.deepCapped.Load(); got != 2 {
		t.Fatalf("deep PROPFINDs capped = %d, want 2", got)
	}

	// Bounded walks still serve.
	wantStatus(t, do(t, "PROPFIND", srv.URL+"/proj", map[string]string{"Depth": "1"}, ""), 207)
	wantStatus(t, do(t, "PROPFIND", srv.URL+"/proj/a.txt", map[string]string{"Depth": "0"}, ""), 207)

	// The bit falls: the very next deep walk works again.
	degraded.Store(false)
	wantStatus(t, do(t, "PROPFIND", srv.URL+"/", map[string]string{"Depth": "infinity"}, ""), 207)
	if got := h.deepCapped.Load(); got != 2 {
		t.Fatalf("deep PROPFINDs capped after the bit fell = %d, want 2", got)
	}
}
