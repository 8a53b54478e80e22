package chaos

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/store"
)

func TestInjectorDeterminism(t *testing.T) {
	plan := Plan{Seed: 42, Rates: map[Kind]float64{Reset: 0.1, Err5xx: 0.05}}
	seq := func() []Kind {
		in := NewInjector(plan)
		out := make([]Kind, 500)
		for i := range out {
			out[i] = in.Next()
		}
		return out
	}
	a, b := seq(), seq()
	faults := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs: %v vs %v", i, a[i], b[i])
		}
		if a[i] != None {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("no faults injected at 15% combined rate over 500 calls")
	}
	// A different seed must give a different sequence.
	plan.Seed = 43
	c := seq()
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed change did not change the fault sequence")
	}
}

func TestInjectorNthCall(t *testing.T) {
	in := NewInjector(Plan{Nth: map[Kind]int{Reset: 3}})
	var got []int
	for i := 1; i <= 10; i++ {
		if in.Next() == Reset {
			got = append(got, i)
		}
	}
	want := []int{3, 6, 9}
	if len(got) != len(want) {
		t.Fatalf("reset calls = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reset calls = %v, want %v", got, want)
		}
	}
	if in.Injected(Reset) != 3 || in.Calls() != 10 || in.Total() != 3 {
		t.Fatalf("counters: injected=%d calls=%d total=%d",
			in.Injected(Reset), in.Calls(), in.Total())
	}
}

func TestInjectorMaxFaults(t *testing.T) {
	in := NewInjector(Plan{Nth: map[Kind]int{Err5xx: 1}, MaxFaults: 2})
	n := 0
	for i := 0; i < 10; i++ {
		if in.Next() != None {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("injected %d faults, want burst capped at 2", n)
	}
}

func newBackend(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Length", "5")
		io.WriteString(w, "hello")
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestTransportReset(t *testing.T) {
	srv := newBackend(t)
	tr := &Transport{Injector: NewInjector(Plan{Nth: map[Kind]int{Reset: 2}})}
	client := &http.Client{Transport: tr}

	if _, err := client.Get(srv.URL); err != nil {
		t.Fatalf("first call should pass: %v", err)
	}
	_, err := client.Get(srv.URL)
	if err == nil {
		t.Fatal("second call should see an injected reset")
	}
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("reset error = %v, want ECONNRESET in chain", err)
	}
}

func TestTransport5xxWithRetryAfter(t *testing.T) {
	srv := newBackend(t)
	tr := &Transport{Injector: NewInjector(Plan{
		Nth: map[Kind]int{Err5xx: 1}, StatusCodes: []int{503}, RetryAfterSec: 7,
	})}
	resp, err := (&http.Client{Transport: tr}).Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want 7", ra)
	}
}

func TestTransportTruncate(t *testing.T) {
	srv := newBackend(t)
	tr := &Transport{Injector: NewInjector(Plan{
		Nth: map[Kind]int{Truncate: 1}, TruncateAfter: 2,
	})}
	resp, err := (&http.Client{Transport: tr}).Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if string(body) != "he" {
		t.Fatalf("truncated body = %q, want \"he\"", body)
	}
	// The Content-Length promised 5 bytes; a length-checking reader
	// (like net/http's own) reports the mismatch. Here we just confirm
	// the stream ended early.
	if resp.ContentLength != 5 {
		t.Fatalf("ContentLength = %d, want untouched 5", resp.ContentLength)
	}
	_ = err
}

func TestTransportStall(t *testing.T) {
	srv := newBackend(t)
	tr := &Transport{Injector: NewInjector(Plan{Nth: map[Kind]int{Stall: 1}})}
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadAll(resp.Body)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("stalled read returned no error after cancel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled read did not unblock on context cancel")
	}
}

func TestTransportLatencyUsesSleeper(t *testing.T) {
	srv := newBackend(t)
	in := NewInjector(Plan{Nth: map[Kind]int{Latency: 1}, Latency: time.Hour})
	var slept time.Duration
	in.SetSleep(func(d time.Duration) { slept = d })
	if _, err := (&http.Client{Transport: &Transport{Injector: in}}).Get(srv.URL); err != nil {
		t.Fatal(err)
	}
	if slept != time.Hour {
		t.Fatalf("slept = %v, want the configured hour via the stub", slept)
	}
}

func TestFaultyStoreTriggers(t *testing.T) {
	fs := NewFaultyStore(store.NewMemStore())
	if _, err := fs.Put(context.Background(), "/a", strings.NewReader("x"), ""); err != nil {
		t.Fatal(err)
	}

	// Nth: the 2nd Stat from arming fails, others pass.
	fs.FailNth(OpStat, 2)
	if _, err := fs.Stat(context.Background(), "/a"); err != nil {
		t.Fatalf("1st stat: %v", err)
	}
	if _, err := fs.Stat(context.Background(), "/a"); !errors.Is(err, ErrInjected) {
		t.Fatalf("2nd stat = %v, want ErrInjected", err)
	}
	if _, err := fs.Stat(context.Background(), "/a"); err != nil {
		t.Fatalf("3rd stat: %v", err)
	}

	// All: every Get fails until cleared.
	fs.FailAll(OpGet)
	if _, _, err := fs.Get(context.Background(), "/a"); !errors.Is(err, ErrInjected) {
		t.Fatalf("get = %v, want ErrInjected", err)
	}
	fs.Clear(OpGet)
	rc, _, err := fs.Get(context.Background(), "/a")
	if err != nil {
		t.Fatalf("get after clear: %v", err)
	}
	rc.Close()

	// The batched, atomic and rename operations fault like the rest.
	for _, tc := range []struct {
		op   string
		call func() error
	}{
		{OpStatWithProps, func() error { _, _, err := fs.StatWithProps(context.Background(), "/a"); return err }},
		{OpListWithProps, func() error { _, err := fs.ListWithProps(context.Background(), "/"); return err }},
		{OpCopyTree, func() error { return fs.CopyTreeAtomic(context.Background(), "/a", "/b", store.CopyOptions{}) }},
		{OpRename, func() error { return fs.Rename(context.Background(), "/b", "/c") }},
	} {
		fs.FailNth(tc.op, 1)
		if err := tc.call(); !errors.Is(err, ErrInjected) {
			t.Fatalf("armed %s = %v, want ErrInjected", tc.op, err)
		}
		if err := tc.call(); err != nil {
			t.Fatalf("%s after its fault: %v", tc.op, err)
		}
	}

	// Rate: seeded coin flips, deterministic count.
	fs.FailRate(OpListWithProps, 0.5, 7)
	fails := 0
	for i := 0; i < 100; i++ {
		if _, err := fs.ListWithProps(context.Background(), "/"); err != nil {
			fails++
		}
	}
	if fails == 0 || fails == 100 {
		t.Fatalf("rate trigger fails = %d, want partial", fails)
	}
	if fs.Faults() < int64(fails) {
		t.Fatalf("Faults() = %d, want >= %d", fs.Faults(), fails)
	}
}
