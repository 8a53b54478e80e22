package davserver

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dbm"
	"repro/internal/obs/ops"
	"repro/internal/store"
	"repro/internal/store/journal"
)

// TestInstrumentFeedsOpsTracker: every request through InstrumentWith
// lands in the workload tracker — hot-path table keyed by URL path,
// hot-op table keyed by method+Depth, and the SLO engine scoring
// good/bad against its threshold.
func TestInstrumentFeedsOpsTracker(t *testing.T) {
	slo := ops.NewSLO(ops.SLOConfig{
		Objectives: []ops.Objective{{
			Name:      "all<1s@0.99",
			Threshold: time.Second,
			Target:    0.99,
		}},
	})
	tr := ops.NewTracker(slo)

	s := store.NewMemStore()
	h := InstrumentWith(NewHandler(s, nil), InstrumentOptions{Ops: tr})
	srv := httptest.NewServer(h)
	defer srv.Close()

	put := func(p string) {
		req, _ := http.NewRequest(http.MethodPut, srv.URL+p, strings.NewReader("x"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	for i := 0; i < 3; i++ {
		put("/hot.txt")
	}
	put("/cold.txt")
	pf, _ := http.NewRequest("PROPFIND", srv.URL+"/", nil)
	pf.Header.Set("Depth", "1")
	resp, err := http.DefaultClient.Do(pf)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if got := tr.Observations(); got != 5 {
		t.Fatalf("tracker observations = %d, want 5", got)
	}
	paths := tr.HotPaths(1)
	if len(paths) != 1 || paths[0].Key != "/hot.txt" || paths[0].Count != 3 {
		t.Fatalf("hottest path = %+v, want /hot.txt x3", paths)
	}
	wantOp := "PROPFIND depth=1"
	found := false
	for _, e := range tr.HotOps(0) {
		if e.Key == wantOp && e.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("hot ops %+v missing %q", tr.HotOps(0), wantOp)
	}
	// All five requests were fast 2xx: the SLO saw only good events.
	snap := slo.Snapshot()
	if len(snap) != 1 || snap[0].Good != 5 || snap[0].Bad != 0 {
		t.Fatalf("SLO snapshot = %+v, want 5 good / 0 bad", snap)
	}
}

// TestReadyzDegradedBit: the SLO degraded probe surfaces on /readyz as
// an informational flag — the instance stays ready (200) because
// pulling a degraded-but-working instance out of rotation makes an
// overload worse.
func TestReadyzDegradedBit(t *testing.T) {
	health := NewHealth(store.NewMemStore(), nil)
	degraded := false
	health.SetDegraded(func() bool { return degraded })
	mux := http.NewServeMux()
	health.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	fetch := func() (int, ReadyStatus) {
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st ReadyStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, st
	}

	if code, st := fetch(); code != 200 || st.Degraded {
		t.Fatalf("healthy readyz = %d %+v, want 200 and not degraded", code, st)
	}
	degraded = true
	code, st := fetch()
	if code != 200 {
		t.Fatalf("degraded readyz = %d, want 200 (informational only)", code)
	}
	if !st.Degraded || st.Status != "ready" {
		t.Fatalf("degraded readyz body = %+v, want degraded=true status=ready", st)
	}
}

// TestReadyzRecoveryBacklog: while a crash-consistent store is still
// recovering, /readyz embeds the live journal backlog so operators can
// watch the drain; once recovery completes the section disappears.
func TestReadyzRecoveryBacklog(t *testing.T) {
	fs, err := store.NewFSStoreWith(t.TempDir(), dbm.GDBM, store.FSOptions{DeferRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	// Plant an unfinished intent so the backlog is nonzero: a begun,
	// never-committed MKCOL is exactly what a crash leaves behind.
	if _, err := fs.Journal().Begin(journal.Record{Op: journal.OpMkcol, Path: "/ghost"}); err != nil {
		t.Fatal(err)
	}

	health := NewHealth(fs, fs)
	mux := http.NewServeMux()
	health.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	fetch := func() (int, ReadyStatus) {
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st ReadyStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, st
	}

	code, st := fetch()
	if code != 503 || st.Status != "recovering" {
		t.Fatalf("readyz during recovery = %d %+v, want 503/recovering", code, st)
	}
	if st.Recovery == nil {
		t.Fatal("recovering readyz carries no recovery backlog section")
	}
	if st.Recovery.PendingIntents != 1 {
		t.Fatalf("pending intents = %d, want 1", st.Recovery.PendingIntents)
	}

	if _, err := fs.Recover(); err != nil {
		t.Fatal(err)
	}
	code, st = fetch()
	if code != 200 || st.Status != "ready" {
		t.Fatalf("readyz after recovery = %d %+v, want 200/ready", code, st)
	}
	if st.Recovery != nil {
		t.Fatalf("ready readyz still carries recovery section: %+v", st.Recovery)
	}
}

// TestTrackStoreJournalGauge: the pending-intent gauge reads the live
// journal length at scrape time.
func TestTrackStoreJournalGauge(t *testing.T) {
	fs, err := store.NewFSStoreWith(t.TempDir(), dbm.GDBM, store.FSOptions{DeferRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := fs.Journal().Begin(journal.Record{Op: journal.OpMkcol, Path: "/a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Journal().Begin(journal.Record{Op: journal.OpMkcol, Path: "/b"}); err != nil {
		t.Fatal(err)
	}

	m := NewMetrics(nil)
	m.TrackStore(fs)
	var b strings.Builder
	if err := m.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "dav_journal_pending_intents 2") {
		t.Fatalf("journal gauge missing or wrong:\n%s", b.String())
	}

	if _, err := fs.Recover(); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := m.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "dav_journal_pending_intents 0") {
		t.Fatalf("journal gauge did not drain after recovery:\n%s", b.String())
	}
}
