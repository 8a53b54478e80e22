package admit

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
)

// saturated holds the single slot of l (limit 1); calling the returned
// release frees it.
func saturated(t *testing.T, l *Limiter) func() {
	t.Helper()
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("saturate: %v", err)
	}
	return release
}

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
}

func TestMiddlewareShedsWithRetryAfter(t *testing.T) {
	l := NewLimiter(1, 0)
	release := saturated(t, l)
	defer release()
	h := l.Middleware(okHandler())

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/doc", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", rec.Header().Get("Retry-After"))
	}
	if got := rec.Header().Get(ShedReasonHeader); got != "queue-full" {
		t.Fatalf("%s = %q, want queue-full", ShedReasonHeader, got)
	}
}

func TestMiddlewareQueuedThenAdmitted(t *testing.T) {
	l := NewLimiter(1, 12)
	release := saturated(t, l)
	h := l.Middleware(okHandler())

	var wg sync.WaitGroup
	wg.Add(1)
	var code int
	go func() {
		defer wg.Done()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/doc", nil))
		code = rec.Code
	}()
	// Wait until the request is visibly queued, then free the slot.
	waitFor(t, func() bool { return l.Stats().Queued == 1 })
	release()
	wg.Wait()
	if code != http.StatusOK {
		t.Fatalf("queued request finished %d, want 200", code)
	}
}

func TestMiddlewareCancelledWaiterGets499(t *testing.T) {
	l := NewLimiter(1, 12)
	release := saturated(t, l)
	defer release()
	h := l.Middleware(okHandler())

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/doc", nil).WithContext(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	var code int
	go func() {
		defer wg.Done()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		code = rec.Code
	}()
	waitFor(t, func() bool { return l.Stats().Queued == 1 })
	cancel()
	wg.Wait()
	if code != statusClientClosedRequest {
		t.Fatalf("cancelled waiter finished %d, want %d", code, statusClientClosedRequest)
	}
}

// TestMiddlewareGrantsInArrivalOrder: one queue, whatever the method. A
// GET that queued behind a PUT is admitted after it.
func TestMiddlewareGrantsInArrivalOrder(t *testing.T) {
	l := NewLimiter(1, 12)
	release := saturated(t, l)
	order := make(chan string, 2)
	h := l.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		order <- r.Method
	}))

	var wg sync.WaitGroup
	for i, method := range []string{"PUT", "GET"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, "/doc", nil))
		}()
		waitFor(t, func() bool { return l.Stats().Queued == i+1 })
	}
	release()
	wg.Wait()
	if first, second := <-order, <-order; first != "PUT" || second != "GET" {
		t.Fatalf("granted %s then %s, want PUT then GET", first, second)
	}
}
