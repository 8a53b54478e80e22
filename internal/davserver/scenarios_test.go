package davserver

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dbm"
	"repro/internal/obs"
	"repro/internal/obs/ops"
	"repro/internal/store"
	"repro/internal/store/fsck"
	"repro/internal/store/journal"
	"repro/internal/store/pathlock"
)

// The three scenarios here are what the retired per-PR eccebench
// drivers asserted (DESIGN.md "Assertion map"), at small N over the
// chain davd ships.

// statsThrough lets Build's TrackStore see the FSStore's path-lock and
// journal gauges through a store.Intercept wrapper.
type statsThrough struct {
	store.Store
	fs *store.FSStore
}

func (s statsThrough) LockStats() pathlock.Stats { return s.fs.LockStats() }
func (s statsThrough) Journal() *journal.Journal { return s.fs.Journal() }

// fsStoreCheckedAfterClose opens an FSStore in a temp dir and requires a
// clean fsck of it once the test's server has closed it: the cleanup is
// registered before the caller's serveBuilt, so it runs after.
func fsStoreCheckedAfterClose(t *testing.T) *store.FSStore {
	t.Helper()
	dir := t.TempDir()
	fs, err := store.NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rep, err := fsck.Check(dir, dbm.GDBM)
		if err != nil {
			t.Errorf("fsck: %v", err)
		} else if !rep.Clean() {
			t.Errorf("fsck after close: %v", rep.Findings)
		}
	})
	return fs
}

// gauge sums every sample of family in a Prometheus exposition; an
// absent family is 0.
func gauge(exposition, family string) (sum float64) {
	for _, m := range regexp.MustCompile(`(?m)^`+family+`(?:\{[^}]*\})? (\S+)$`).FindAllStringSubmatch(exposition, -1) {
		v, _ := strconv.ParseFloat(m[1], 64)
		sum += v
	}
	return sum
}

// TestQueuedDeletesLeaveOnDisconnect: while one DELETE of /hot is held
// inside the store, 30 more queue behind it and their clients hang up.
// Every one of them must leave its queue (the write gate or the path
// lock, whichever it reached) without touching the store, and the
// survivor must finish on a store with nothing pending.
func TestQueuedDeletesLeaveOnDisconnect(t *testing.T) {
	const aborters = 30
	fs := fsStoreCheckedAfterClose(t)
	if _, err := fs.Put(context.Background(), "/hot", strings.NewReader("contended"), ""); err != nil {
		t.Fatal(err)
	}
	var deletes atomic.Int64
	parked, held := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(held) })
	cfg := DefaultConfig()
	cfg.Store = statsThrough{fs: fs, Store: store.Intercept(fs,
		func(ctx context.Context, op store.Op, next func(context.Context) error) error {
			if op.Name == store.OpDelete && deletes.Add(1) == 1 {
				close(parked)
				<-held
			}
			return next(ctx)
		})}
	dav, admin, _ := serveBuilt(t, cfg)
	t.Cleanup(release) // runs before the server's: a failed test must not leave Close waiting on a parked request

	survivor := make(chan int, 1)
	go func() {
		resp, err := http.DefaultClient.Do(newRequest(t, "DELETE", dav.URL+"/hot", nil))
		if err != nil {
			survivor <- 0
			return
		}
		resp.Body.Close()
		survivor <- resp.StatusCode
	}()
	<-parked

	impatient := &http.Client{Timeout: 50 * time.Millisecond}
	var wg sync.WaitGroup
	for i := 0; i < aborters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := impatient.Do(newRequest(t, "DELETE", dav.URL+"/hot", nil)); err == nil {
				resp.Body.Close()
				t.Errorf("a queued DELETE was answered %d while the path was held", resp.StatusCode)
			}
		}()
	}
	wg.Wait()

	cancelled := func() float64 {
		e := scrape(t, admin)
		return gauge(e, "dav_gate_cancelled_total") + gauge(e, "dav_pathlock_cancelled_total")
	}
	for deadline := time.Now().Add(10 * time.Second); cancelled() < aborters; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%v of %d abandoned waits left their queue", cancelled(), aborters)
		}
	}
	if n := deletes.Load(); n != 1 {
		t.Errorf("the store saw %d Deletes, want only the survivor's", n)
	}
	// The survivor holds the write gate while parked in the store, so
	// every aborter waited there first.
	e := scrape(t, admin)
	if n := gauge(e, "dav_gate_contended_total"); n < aborters {
		t.Errorf("dav_gate_contended_total = %v, want >= %d", n, aborters)
	}
	if s := gauge(e, "dav_gate_wait_seconds_total"); s <= 0 {
		t.Errorf("dav_gate_wait_seconds_total = %v after %d queued waits, want > 0", s, aborters)
	}

	release()
	if code := <-survivor; code != http.StatusNoContent {
		t.Errorf("surviving DELETE = %d, want 204", code)
	}
	if e := scrape(t, admin); !strings.Contains(e, "dav_journal_pending_intents 0\n") {
		t.Errorf("journal not empty at rest: dav_journal_pending_intents = %v", gauge(e, "dav_journal_pending_intents"))
	}
}

// TestOverloadShedsHonestly: a closed-loop fleet of nine times the
// admission limit against a store whose Get takes a few milliseconds.
// Some requests are served; every other one is refused with a 429 that
// says when to come back and why; nothing is a 5xx, and the liveness
// probe answers throughout. The admitted ones queued, and the time
// they spent there is on /metrics.
func TestOverloadShedsHonestly(t *testing.T) {
	const limit, clients, rounds, docs = 2, 18, 12, 4
	fs := fsStoreCheckedAfterClose(t)
	for i := 0; i < docs; i++ {
		if _, err := fs.Put(context.Background(), fmt.Sprintf("/doc%d", i), strings.NewReader("a document"), ""); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.AdmitLimit, cfg.AdmitQueue = limit, limit
	cfg.Store = store.Intercept(fs, func(ctx context.Context, op store.Op, next func(context.Context) error) error {
		if op.Name == store.OpGet {
			time.Sleep(3 * time.Millisecond)
		}
		return next(ctx)
	})
	dav, admin, _ := serveBuilt(t, cfg)

	var served, shed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				method, url, body := "GET", fmt.Sprintf("%s/doc%d", dav.URL, (c+i)%docs), io.Reader(nil)
				if i%4 == 3 {
					method, url, body = "PUT", fmt.Sprintf("%s/writer%d", dav.URL, c), strings.NewReader("payload")
				}
				req, _ := http.NewRequest(method, url, body)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("%s: %v", method, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				retryAfter, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
				switch {
				case resp.StatusCode/100 == 2:
					served.Add(1)
				case resp.StatusCode != http.StatusTooManyRequests:
					t.Errorf("%s under overload = %d, want 2xx or 429", method, resp.StatusCode)
				case retryAfter < 1 || resp.Header.Get("X-Admit-Shed") == "":
					t.Errorf("shed with Retry-After %q, X-Admit-Shed %q", resp.Header.Get("Retry-After"), resp.Header.Get("X-Admit-Shed"))
				default:
					shed.Add(1)
				}
			}
		}(c)
	}
	fleetDone := make(chan struct{})
	go func() { wg.Wait(); close(fleetDone) }()
	for probing := true; probing; {
		wantStatus(t, do(t, "GET", dav.URL+"/healthz", nil, ""), 200)
		select {
		case <-fleetDone:
			probing = false
		case <-time.After(5 * time.Millisecond):
		}
	}
	if served.Load() == 0 || shed.Load() == 0 {
		t.Errorf("served %d, shed %d of %d requests; want some of each", served.Load(), shed.Load(), clients*rounds)
	}
	if s := gauge(scrape(t, admin), "dav_admit_wait_seconds_total"); s <= 0 {
		t.Errorf("dav_admit_wait_seconds_total = %v after a saturated run, want > 0", s)
	}
}

// TestOpsConsoleOverBuiltServer: after a skewed workload, the admin
// surface of a default server carries the ops families in a well-formed
// exposition and ranks the hot document first in the status JSON.
func TestOpsConsoleOverBuiltServer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Store = fsStoreCheckedAfterClose(t)
	dav, admin, _ := serveBuilt(t, cfg)

	wantStatus(t, do(t, "MKCOL", dav.URL+"/smoke", nil, ""), 201)
	for i := 0; i < 12; i++ {
		p := "/smoke/hot.dat"
		if i%4 == 3 {
			p = fmt.Sprintf("/smoke/cold%d.dat", i)
		}
		if resp := do(t, "PUT", dav.URL+p, nil, "skewed"); resp.StatusCode >= 300 {
			t.Fatalf("PUT %s = %d", p, resp.StatusCode)
		}
	}

	exposition := scrape(t, admin)
	if err := obs.CheckExposition([]byte(exposition)); err != nil {
		t.Errorf("/metrics: %v", err)
	}
	for _, family := range []string{"dav_requests_total", "dav_hot_path_requests", "dav_slo_degraded",
		"dav_runtime_goroutines", "dav_journal_pending_intents"} {
		if !strings.Contains(exposition, "\n"+family) {
			t.Errorf("/metrics lacks %s", family)
		}
	}

	resp := do(t, "GET", admin.URL+"/debug/status?format=json", nil, "")
	wantStatus(t, resp, 200)
	var doc ops.StatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != ops.StatusSchema {
		t.Errorf("schema %q, want %q", doc.Schema, ops.StatusSchema)
	}
	if len(doc.HotPaths) == 0 || doc.HotPaths[0].Key != "/smoke/hot.dat" {
		t.Errorf("hot paths %+v, want /smoke/hot.dat first", doc.HotPaths)
	}
	if len(doc.SLO) == 0 {
		t.Error("status has no SLO section")
	}
}

// TestRuntimeIsReadWhenAsked: a default server reads the runtime when it
// is asked, so goroutines parked after Build are counted by the very
// next /metrics scrape and /debug/status document, with no wait.
func TestRuntimeIsReadWhenAsked(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Store = store.NewMemStore() // no background recovery to exit between the reads
	_, admin, _ := serveBuilt(t, cfg)
	goroutines := func() (scraped, status int) {
		resp := do(t, "GET", admin.URL+"/debug/status?format=json", nil, "")
		wantStatus(t, resp, 200)
		var doc ops.StatusDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return int(gauge(scrape(t, admin), "dav_runtime_goroutines")), doc.Runtime.Goroutines
	}
	scraped0, status0 := goroutines()

	const parked = 50
	release := make(chan struct{})
	defer close(release)
	var started sync.WaitGroup
	started.Add(parked)
	for i := 0; i < parked; i++ {
		go func() {
			started.Done()
			<-release
		}()
	}
	started.Wait()
	if scraped, status := goroutines(); scraped < scraped0+parked || status < status0+parked {
		t.Errorf("goroutines: /metrics %d → %d, /debug/status %d → %d; want both up by the %d parked",
			scraped0, scraped, status0, status, parked)
	}
}
