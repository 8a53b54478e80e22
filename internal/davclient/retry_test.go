package davclient

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/davproto"
	"repro/internal/davserver"
	"repro/internal/store"
)

// instantSleep records requested backoffs without waiting, keeping the
// retry tests deterministic and sleep-free.
type instantSleep struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (s *instantSleep) sleep(ctx context.Context, d time.Duration) error {
	s.mu.Lock()
	s.delays = append(s.delays, d)
	s.mu.Unlock()
	return ctx.Err()
}

// newChaosPair starts a DAV server and a client whose transport is
// wrapped in the given chaos injector.
func newChaosPair(t *testing.T, in *chaos.Injector, retry *RetryPolicy) *Client {
	t.Helper()
	srv := httptest.NewServer(davserver.NewHandler(store.NewMemStore(), nil))
	t.Cleanup(srv.Close)
	base := &http.Transport{MaxIdleConnsPerHost: 8}
	t.Cleanup(base.CloseIdleConnections)
	c, err := New(Config{
		BaseURL:   srv.URL,
		Retry:     retry,
		Transport: &chaos.Transport{Base: base, Injector: in},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// chaosWorkload runs the acceptance workload: iterations rounds of PUT
// then PROPFIND, returning how many client-visible errors occurred.
func chaosWorkload(t *testing.T, c *Client, iterations int) int {
	t.Helper()
	errs := 0
	for i := 0; i < iterations; i++ {
		p := fmt.Sprintf("/doc%03d", i%20)
		if _, err := c.PutBytes(p, []byte(strings.Repeat("x", 512)), "text/plain"); err != nil {
			errs++
			continue
		}
		if _, err := c.PropFindAll(p, davproto.Depth0); err != nil {
			errs++
		}
	}
	return errs
}

// TestChaosWorkloadSurvivesWithRetries is the acceptance criterion: a
// 200-iteration PUT+PROPFIND workload against a transport injecting
// 10 % connection resets and 5 % 503s completes with zero
// client-visible errors under the default RetryPolicy, and with
// errors when retries are disabled. Faults are seeded and sleeps are
// stubbed, so the test is deterministic.
func TestChaosWorkloadSurvivesWithRetries(t *testing.T) {
	plan := chaos.Plan{
		Seed:        7,
		Rates:       map[chaos.Kind]float64{chaos.Reset: 0.10, chaos.Err5xx: 0.05},
		StatusCodes: []int{503},
	}
	const iterations = 200

	sleeper := &instantSleep{}
	pol := DefaultRetryPolicy()
	pol.Seed = 1
	pol.Sleep = sleeper.sleep
	withRetries := newChaosPair(t, chaos.NewInjector(plan), pol)
	if errs := chaosWorkload(t, withRetries, iterations); errs != 0 {
		t.Fatalf("with retries: %d client-visible errors, want 0", errs)
	}
	if withRetries.RetryCount() == 0 {
		t.Fatal("with retries: no retries performed despite injected faults")
	}

	noRetries := newChaosPair(t, chaos.NewInjector(plan), nil)
	if errs := chaosWorkload(t, noRetries, iterations); errs == 0 {
		t.Fatal("without retries: workload saw no errors despite injected faults")
	}
	if noRetries.RetryCount() != 0 {
		t.Fatal("retry count must stay zero without a policy")
	}
}

func TestPutRetryRewindsBody(t *testing.T) {
	// The first attempt dies on an injected reset; the retry must
	// resend the body from its original offset, not the leftovers.
	var mu sync.Mutex
	var bodies []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, string(b))
		mu.Unlock()
		w.WriteHeader(http.StatusCreated)
	}))
	defer srv.Close()

	in := chaos.NewInjector(chaos.Plan{Nth: map[chaos.Kind]int{chaos.Reset: 1}, MaxFaults: 1})
	pol := DefaultRetryPolicy()
	pol.Sleep = (&instantSleep{}).sleep
	c, err := New(Config{BaseURL: srv.URL, Retry: pol, Transport: &chaos.Transport{Injector: in}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Start mid-reader: the rewind must return to this offset, not 0.
	r := strings.NewReader("skip-this-part|the real payload")
	if _, err := io.CopyN(io.Discard, r, int64(len("skip-this-part|"))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("/doc", r, "text/plain"); err != nil {
		t.Fatalf("Put with retry: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 1 || bodies[0] != "the real payload" {
		t.Fatalf("server saw bodies %q, want exactly one full payload", bodies)
	}
	if c.RetryCount() != 1 {
		t.Fatalf("RetryCount = %d, want 1", c.RetryCount())
	}
}

func TestNonSeekableBodyIsNotRetried(t *testing.T) {
	in := chaos.NewInjector(chaos.Plan{Nth: map[chaos.Kind]int{chaos.Reset: 1}})
	pol := DefaultRetryPolicy()
	pol.Sleep = (&instantSleep{}).sleep
	c := newChaosPair(t, in, pol)

	// An io.Reader that cannot seek: one attempt only.
	body := io.LimitReader(strings.NewReader("data"), 4)
	if _, err := c.Put("/doc", body, ""); err == nil {
		t.Fatal("expected the injected reset to surface")
	}
	if got := c.RequestCount(); got != 1 {
		t.Fatalf("RequestCount = %d, want 1 (no retry of unrewindable body)", got)
	}
}

func TestLockRefreshIsNeverRetried(t *testing.T) {
	in := chaos.NewInjector(chaos.Plan{Nth: map[chaos.Kind]int{chaos.Reset: 1}})
	pol := DefaultRetryPolicy()
	pol.Sleep = (&instantSleep{}).sleep
	c := newChaosPair(t, in, pol)

	_, err := c.RefreshLock("/doc", "opaquelocktoken:abc", time.Minute)
	if err == nil {
		t.Fatal("expected the injected reset to surface")
	}
	if got := c.RequestCount(); got != 1 {
		t.Fatalf("RequestCount = %d, want 1 (LOCK must not be replayed)", got)
	}
	if c.RetryCount() != 0 {
		t.Fatalf("RetryCount = %d, want 0", c.RetryCount())
	}
}

func TestRetryAfterHonored(t *testing.T) {
	in := chaos.NewInjector(chaos.Plan{
		Nth:           map[chaos.Kind]int{chaos.Err5xx: 1},
		MaxFaults:     1,
		StatusCodes:   []int{503},
		RetryAfterSec: 1, // under the 2 s cap
	})
	sleeper := &instantSleep{}
	pol := DefaultRetryPolicy()
	pol.Sleep = sleeper.sleep
	c := newChaosPair(t, in, pol)

	if _, err := c.PutBytes("/doc", []byte("x"), ""); err != nil {
		t.Fatalf("Put: %v", err)
	}
	sleeper.mu.Lock()
	defer sleeper.mu.Unlock()
	if len(sleeper.delays) != 1 || sleeper.delays[0] != time.Second {
		t.Fatalf("delays = %v, want exactly the server's 1s Retry-After", sleeper.delays)
	}
}

func TestRetryAfterCappedAtMaxDelay(t *testing.T) {
	in := chaos.NewInjector(chaos.Plan{
		Nth:           map[chaos.Kind]int{chaos.Err5xx: 1},
		MaxFaults:     1,
		StatusCodes:   []int{503},
		RetryAfterSec: 3600,
	})
	sleeper := &instantSleep{}
	pol := DefaultRetryPolicy() // maxDelay 2s
	pol.Sleep = sleeper.sleep
	c := newChaosPair(t, in, pol)
	if _, err := c.PutBytes("/doc", []byte("x"), ""); err != nil {
		t.Fatalf("Put: %v", err)
	}
	sleeper.mu.Lock()
	defer sleeper.mu.Unlock()
	if len(sleeper.delays) != 1 || sleeper.delays[0] != 2*time.Second {
		t.Fatalf("delays = %v, want the 2s maxDelay cap", sleeper.delays)
	}
}

// TestDefaultClientsJitterApart: two clients on the default policy
// seed their jitter apart, so after one outage they do not retry in
// step.
func TestDefaultClientsJitterApart(t *testing.T) {
	first := func() time.Duration {
		c, err := New(Config{BaseURL: "http://127.0.0.1:1", Retry: DefaultRetryPolicy()})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		return c.retry.delay(1, errors.New("connection reset"))
	}
	if a, b := first(), first(); a == b {
		t.Fatalf("two default clients both drew %v for their first backoff", a)
	}
}

// TestEveryRequestGetsFourAttempts: a request that always fails
// transiently is tried four times, with backoff ceilings of 50, 100 and
// 200 ms between the tries.
func TestEveryRequestGetsFourAttempts(t *testing.T) {
	in := chaos.NewInjector(chaos.Plan{Rates: map[chaos.Kind]float64{chaos.Reset: 1}})
	sleeper := &instantSleep{}
	pol := DefaultRetryPolicy()
	pol.Sleep = sleeper.sleep
	c := newChaosPair(t, in, pol)
	if _, err := c.Get("/a"); err == nil {
		t.Fatal("expected failure")
	}
	if got := c.RequestCount(); got != 4 {
		t.Fatalf("RequestCount = %d, want 4", got)
	}
	sleeper.mu.Lock()
	defer sleeper.mu.Unlock()
	if len(sleeper.delays) != 3 {
		t.Fatalf("delays = %v, want 3", sleeper.delays)
	}
	for i, d := range sleeper.delays {
		if ceil := 50 * time.Millisecond << i; d < 0 || d >= ceil {
			t.Errorf("delay %d = %v, want in [0, %v)", i+1, d, ceil)
		}
	}
}

func TestStatusErrorWrapping(t *testing.T) {
	base := &StatusError{Method: "GET", Path: "/x", Code: 404}
	wrapped := fmt.Errorf("giving up after 4 attempts: %w", base)
	if !IsStatus(wrapped, 404) {
		t.Fatal("IsStatus must see through wrapping")
	}
	if IsStatus(wrapped, 503) {
		t.Fatal("IsStatus matched the wrong code")
	}
	if !errors.Is(wrapped, &StatusError{Code: 404}) {
		t.Fatal("errors.Is must match StatusError by code")
	}
	var se *StatusError
	if !errors.As(wrapped, &se) || se.Path != "/x" {
		t.Fatalf("errors.As lost the original error: %+v", se)
	}
}

func TestWithContextCancelsRetries(t *testing.T) {
	in := chaos.NewInjector(chaos.Plan{Rates: map[chaos.Kind]float64{chaos.Reset: 1}})
	pol := DefaultRetryPolicy() // real ctx-aware sleep: must abort instantly
	c := newChaosPair(t, in, pol)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := c.WithContext(ctx).Get("/doc")
	if err == nil {
		t.Fatal("expected failure under cancelled context")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled request took %v; backoff ignored cancellation", elapsed)
	}
	// The parent client is unaffected by the child's context.
	if c.ctx != nil {
		t.Fatal("WithContext mutated the parent client")
	}
}

func TestTransientStatusRetriedToSuccess(t *testing.T) {
	// A two-503 burst followed by recovery: the default policy (4
	// attempts) absorbs it.
	in := chaos.NewInjector(chaos.Plan{
		Rates:       map[chaos.Kind]float64{chaos.Err5xx: 1},
		MaxFaults:   2,
		StatusCodes: []int{503, 502},
	})
	pol := DefaultRetryPolicy()
	pol.Sleep = (&instantSleep{}).sleep
	c := newChaosPair(t, in, pol)
	if _, err := c.PutBytes("/doc", []byte("x"), ""); err != nil {
		t.Fatalf("Put through 5xx burst: %v", err)
	}
	if got := c.RequestCount(); got != 3 {
		t.Fatalf("RequestCount = %d, want 3 (503, 502, success)", got)
	}
}
