package davclient

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// shedServer answers the first n requests with status and a Retry-After
// before succeeding.
type shedServer struct {
	mu       sync.Mutex
	sheds    int
	status   int
	retrySec string
}

func (s *shedServer) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		shed := s.sheds > 0
		if shed {
			s.sheds--
		}
		s.mu.Unlock()
		if shed {
			w.Header().Set("Retry-After", s.retrySec)
			w.WriteHeader(s.status)
			return
		}
		if r.Method == http.MethodPut {
			io.Copy(io.Discard, r.Body)
			w.WriteHeader(http.StatusCreated)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
}

func newShedClient(t *testing.T, srv *httptest.Server, sleeper *instantSleep, reg *obs.Registry) *Client {
	t.Helper()
	pol := DefaultRetryPolicy()
	pol.Sleep = sleeper.sleep
	c, err := New(Config{BaseURL: srv.URL, Retry: pol, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestShed429HonorsRetryAfterAndCounts(t *testing.T) {
	ss := &shedServer{sheds: 1, status: http.StatusTooManyRequests, retrySec: "1"}
	srv := httptest.NewServer(ss.handler())
	defer srv.Close()
	sleeper := &instantSleep{}
	reg := obs.NewRegistry()
	c := newShedClient(t, srv, sleeper, reg)

	if _, err := c.Get("/doc"); err != nil {
		t.Fatalf("Get after one shed: %v", err)
	}
	// The 429's Retry-After is the backoff, exactly as for 503.
	sleeper.mu.Lock()
	if len(sleeper.delays) != 1 || sleeper.delays[0] != time.Second {
		t.Fatalf("delays = %v, want the server's 1s Retry-After", sleeper.delays)
	}
	sleeper.mu.Unlock()
	// The shed is counted apart from failures.
	if got := reg.Counter("dav_client_shed_total", "", nil).Value(); got != 1 {
		t.Fatalf("dav_client_shed_total = %d, want 1", got)
	}
}

func TestShed429NeverRetriesNonRewindableBody(t *testing.T) {
	ss := &shedServer{sheds: 10, status: http.StatusTooManyRequests, retrySec: "1"}
	srv := httptest.NewServer(ss.handler())
	defer srv.Close()
	c := newShedClient(t, srv, &instantSleep{}, nil)

	// io.LimitReader cannot seek: the body would be half-consumed on a
	// replay, so the client must surface the 429 after one attempt.
	body := io.LimitReader(strings.NewReader("data"), 4)
	_, err := c.Put("/doc", body, "")
	if !IsStatus(err, http.StatusTooManyRequests) {
		t.Fatalf("err = %v, want 429 StatusError", err)
	}
	if got := c.RequestCount(); got != 1 {
		t.Fatalf("RequestCount = %d, want 1 (no retry of unrewindable body)", got)
	}
}

func TestShed503WithRetryAfterCounts(t *testing.T) {
	ss := &shedServer{sheds: 1, status: http.StatusServiceUnavailable, retrySec: "2"}
	srv := httptest.NewServer(ss.handler())
	defer srv.Close()
	reg := obs.NewRegistry()
	c := newShedClient(t, srv, &instantSleep{}, reg)

	if _, err := c.Get("/doc"); err != nil {
		t.Fatalf("Get after one shed: %v", err)
	}
	if got := reg.Counter("dav_client_shed_total", "", nil).Value(); got != 1 {
		t.Fatalf("dav_client_shed_total = %d, want 1 for 503+Retry-After", got)
	}
}
