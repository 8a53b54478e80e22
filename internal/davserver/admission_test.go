package davserver

import (
	"io"
	"strings"
	"testing"

	"repro/internal/davserver/admit"
)

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
