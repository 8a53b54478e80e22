package davclient

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// instantPolicy retries immediately so tests don't sleep.
func instantPolicy() *RetryPolicy {
	return &RetryPolicy{Sleep: func(context.Context, time.Duration) error { return nil }}
}

func TestClientMetricsCountRetries(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	c, err := New(Config{BaseURL: srv.URL, Retry: instantPolicy(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Get("/x"); err != nil {
		t.Fatalf("Get after two 503s: %v", err)
	}

	if got := reg.Counter("davclient_requests_total", "", nil).Value(); got != 3 {
		t.Errorf("davclient_requests_total = %d, want 3 (two failures + success)", got)
	}
	if got := reg.Counter("davclient_retries_total", "", nil).Value(); got != 2 {
		t.Errorf("davclient_retries_total = %d, want 2", got)
	}
	if got := reg.Histogram("davclient_backoff_seconds", "", nil, obs.DefBuckets).Count(); got != 2 {
		t.Errorf("davclient_backoff_seconds count = %d, want 2 sleeps", got)
	}
}

func TestClientMetricsNilRegistryIsFree(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	c, err := New(Config{BaseURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Get("/x"); err != nil {
		t.Fatalf("unmetered client broken: %v", err)
	}
}
