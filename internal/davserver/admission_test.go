package davserver

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/davclient"
	"repro/internal/davserver/admit"
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

// forcedBrownout builds a manual-tick controller pinned at the given
// level.
func forcedBrownout(level admit.Level) *admit.Brownout {
	degraded := true
	b := admit.NewBrownout(admit.BrownoutConfig{
		Probe:      func() bool { return degraded },
		Interval:   -1,
		EnterAfter: 1,
		ExitAfter:  1,
	})
	for b.Level() < level {
		b.Tick()
	}
	degraded = false
	return b
}

func TestBrownoutSkipsVersionSnapshots(t *testing.T) {
	b := forcedBrownout(admit.LevelNoSnapshots)
	srv, _ := newTestServer(t, &Options{Brownout: b})
	do(t, "PUT", srv.URL+"/doc.txt", nil, "v1")
	wantStatus(t, do(t, "VERSION-CONTROL", srv.URL+"/doc.txt", nil, ""), 200)

	// Browned out: the overwrite lands but no snapshot is appended.
	wantStatus(t, do(t, "PUT", srv.URL+"/doc.txt", nil, "v2"), 204)
	if got := versionHrefs(t, srv.URL, "/doc.txt"); len(got) != 1 {
		t.Fatalf("versions under brownout = %v, want the initial one only", got)
	}
	if got := b.Stats().SnapshotsSkipped; got != 1 {
		t.Fatalf("SnapshotsSkipped = %d, want 1", got)
	}
	resp := do(t, "GET", srv.URL+"/doc.txt", nil, "")
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "v2" {
		t.Fatalf("live body = %q: the write itself must not be shed", body)
	}

	// Restored: snapshots resume.
	for b.Level() > admit.LevelNone {
		b.Tick()
	}
	wantStatus(t, do(t, "PUT", srv.URL+"/doc.txt", nil, "v3"), 204)
	if got := versionHrefs(t, srv.URL, "/doc.txt"); len(got) != 2 {
		t.Fatalf("versions after restore = %v, want 2", got)
	}
}

func TestBrownoutCapsDeepPropfind(t *testing.T) {
	b := forcedBrownout(admit.LevelNoDeepPropfind)
	srv, _ := newTestServer(t, &Options{Brownout: b})
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
	if got := b.Stats().DeepCapped; got != 2 {
		t.Fatalf("DeepCapped = %d, want 2", got)
	}

	// Bounded walks still serve.
	wantStatus(t, do(t, "PROPFIND", srv.URL+"/proj", map[string]string{"Depth": "1"}, ""), 207)
	wantStatus(t, do(t, "PROPFIND", srv.URL+"/proj/a.txt", map[string]string{"Depth": "0"}, ""), 207)

	// Restored: the deep walk works again.
	for b.Level() > admit.LevelNone {
		b.Tick()
	}
	wantStatus(t, do(t, "PROPFIND", srv.URL+"/", map[string]string{"Depth": "infinity"}, ""), 207)
}
