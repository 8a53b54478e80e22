package ops

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives("GET,PROPFIND:50ms:0.99;*:1s:0.9")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("parsed %d objectives, want 2", len(objs))
	}
	o := objs[0]
	if !o.Methods["GET"] || !o.Methods["PROPFIND"] || o.Methods["PUT"] {
		t.Errorf("methods = %v, want GET+PROPFIND only", o.Methods)
	}
	if o.Threshold != 50*time.Millisecond || o.Target != 0.99 {
		t.Errorf("threshold/target = %v/%v", o.Threshold, o.Target)
	}
	if objs[1].Methods != nil {
		t.Errorf("wildcard objective has method filter %v", objs[1].Methods)
	}

	for _, bad := range []string{"", "GET:50ms", "GET:xx:0.9", "GET:50ms:1.5", "GET:50ms:0", "GET:-1s:0.9",
		"GET:50ms:NaN", "GET:50ms:nan", "GET:50ms:+Inf", "GET:50ms:-Inf", "GET:Inf:0.9", "GET:NaNms:0.9"} {
		if _, err := ParseObjectives(bad); err == nil {
			t.Errorf("ParseObjectives(%q) accepted", bad)
		}
	}
}

// FuzzParseObjectives: the -slo grammar never panics, every objective
// it accepts has a positive threshold and a target in (0, 1), and an
// SLO built from it that sees only good requests is never degraded.
func FuzzParseObjectives(f *testing.F) {
	for _, seed := range []string{"GET,PROPFIND:50ms:0.99", "*:1ns:0.99", "GET:50ms:0.99;PUT:250ms:0.95",
		"GET:50ms:NaN", "GET:50ms:1e-300", ":1h:0.5", "get, ,put:1µs:.9;;", "GET:50ms:1.5"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		objs, err := ParseObjectives(spec)
		if err != nil {
			return
		}
		for _, o := range objs {
			if o.Threshold <= 0 || !(o.Target > 0 && o.Target < 1) {
				t.Fatalf("ParseObjectives(%q) accepted %+v", spec, o)
			}
		}
		e := NewSLO(SLOConfig{Objectives: objs})
		for _, o := range objs {
			method := "GET"
			for m := range o.Methods {
				method = m
			}
			for range 100 {
				e.Observe(method, 200, 0)
			}
		}
		if e.Degraded() {
			t.Fatalf("SLO from %q is degraded after only good requests: %+v", spec, e.Snapshot())
		}
	})
}

// fakeClock steps time manually for window arithmetic tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestSLO(t *testing.T) (*SLO, *fakeClock) {
	t.Helper()
	objs, err := ParseObjectives("GET:50ms:0.9")
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	return NewSLO(SLOConfig{Objectives: objs, Now: clk.now}), clk
}

// TestSLOGoodBadScoring: under-threshold non-5xx requests are good;
// slow or 5xx are bad; non-matching methods are ignored.
func TestSLOGoodBadScoring(t *testing.T) {
	e, _ := newTestSLO(t)
	e.Observe("GET", 200, 10*time.Millisecond)  // good
	e.Observe("GET", 200, 50*time.Millisecond)  // good: inclusive bound
	e.Observe("GET", 200, 100*time.Millisecond) // bad: slow
	e.Observe("GET", 503, 10*time.Millisecond)  // bad: server error
	e.Observe("PUT", 200, time.Second)          // ignored: method filter
	s := e.Snapshot()
	if len(s) != 1 {
		t.Fatalf("snapshot has %d objectives, want 1", len(s))
	}
	if s[0].Good != 2 || s[0].Bad != 2 {
		t.Fatalf("good/bad = %d/%d, want 2/2", s[0].Good, s[0].Bad)
	}
}

// TestSLOBurnRateWindows: burn = badFraction/(1-target); events age out
// of the short window (5m) but stay in the long one (1h).
func TestSLOBurnRateWindows(t *testing.T) {
	e, clk := newTestSLO(t)
	// 10 requests, 5 bad: bad fraction 0.5, budget 0.1 → burn 5.
	for i := 0; i < 5; i++ {
		e.Observe("GET", 200, time.Millisecond)
		e.Observe("GET", 200, time.Second)
	}
	s := e.Snapshot()[0]
	if got := s.Windows[0].BurnRate; got < 4.9 || got > 5.1 {
		t.Fatalf("5m burn = %v, want ~5", got)
	}
	if got := s.Windows[1].BurnRate; got < 4.9 || got > 5.1 {
		t.Fatalf("1h burn = %v, want ~5", got)
	}
	if !s.Degraded || !e.Degraded() {
		t.Fatal("burn 5 in both windows should be degraded")
	}

	// Four minutes later, with good requests still arriving, the burst
	// is still inside the 5m window: the bit holds. This is the
	// hold-down a brownout needs; nothing downstream adds another.
	clk.advance(4 * time.Minute)
	for i := 0; i < 5; i++ {
		e.Observe("GET", 200, time.Millisecond)
	}
	if !e.Degraded() {
		t.Fatalf("4m after the burst: 5m burn = %v, want still degraded", e.Snapshot()[0].Windows[0].BurnRate)
	}

	// Ten minutes after the burst it left the 5m window but not the
	// 1h one: short burn recovers, degraded clears.
	clk.advance(6 * time.Minute)
	e.Observe("GET", 200, time.Millisecond)
	s = e.Snapshot()[0]
	if got := s.Windows[0].BurnRate; got != 0 {
		t.Errorf("5m burn after recovery = %v, want 0", got)
	}
	if got := s.Windows[1].BurnRate; got < 3.1 || got > 3.15 {
		t.Errorf("1h burn = %v, want still elevated at ~3.1 (5 bad in 16)", got)
	}
	if s.Degraded || e.Degraded() {
		t.Error("recovered short window must clear the degraded bit")
	}

	// Two hours later everything aged out.
	clk.advance(2 * time.Hour)
	s = e.Snapshot()[0]
	if s.Windows[1].BurnRate != 0 {
		t.Errorf("1h burn after 2h idle = %v, want 0", s.Windows[1].BurnRate)
	}
	if s.Good != 11 || s.Bad != 5 {
		t.Errorf("cumulative good/bad = %d/%d, want 11/5 (totals never age out)", s.Good, s.Bad)
	}
}

// TestSLOGauges: the registered dav_slo_* families expose the same
// numbers the snapshot reports.
func TestSLOGauges(t *testing.T) {
	e, _ := newTestSLO(t)
	r := obs.NewRegistry()
	e.Register(r)
	for i := 0; i < 9; i++ {
		e.Observe("GET", 200, time.Millisecond)
	}
	e.Observe("GET", 200, time.Second)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"dav_slo_target", "dav_slo_threshold_seconds", "dav_slo_good_total",
		"dav_slo_bad_total", `window="5m"`, `window="1h"`, "dav_slo_degraded 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if err := obs.CheckExposition([]byte(out)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	// 1 bad in 10 with a 0.1 budget: burn exactly 1 — not degraded.
	snap := e.Snapshot()[0]
	if got := snap.Windows[0].BurnRate; got < 0.99 || got > 1.01 {
		t.Errorf("burn = %v, want ~1", got)
	}
}

func TestFmtWindow(t *testing.T) {
	cases := map[time.Duration]string{
		5 * time.Minute:         "5m",
		time.Hour:               "1h",
		90 * time.Second:        "90s",
		1500 * time.Millisecond: "1.5s",
	}
	for d, want := range cases {
		if got := fmtWindow(d); got != want {
			t.Errorf("fmtWindow(%v) = %q, want %q", d, got, want)
		}
	}
}

// TestSLONilSafety: a nil engine ignores observations and reports
// healthy, so call sites need no guards.
func TestSLONilSafety(t *testing.T) {
	var e *SLO
	e.Observe("GET", 200, time.Second)
	if e.Degraded() {
		t.Fatal("nil SLO reports degraded")
	}
	if s := e.Snapshot(); s != nil {
		t.Fatalf("nil SLO snapshot = %v", s)
	}
}
