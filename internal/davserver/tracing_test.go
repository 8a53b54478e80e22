package davserver

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/davclient"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/store"
)

// newTracedServer boots the full traced stack — recorder, tracer,
// instrumented store, DAV handler, tracing middleware — with client and
// server sharing one recorder, as the in-process benchmarks do.
func newTracedServer(t *testing.T, slow time.Duration) (*httptest.Server, *trace.Recorder, *syncWriter) {
	t.Helper()
	rec := trace.NewRecorder(trace.RecorderConfig{SampleRate: 1, SlowThreshold: -1})
	tr := trace.New(trace.Config{Recorder: rec})
	s := store.Instrument(store.NewMemStore(), func(string, time.Duration, error) {})
	h := NewHandler(s, nil)
	logw := &syncWriter{}
	srv := httptest.NewServer(InstrumentWith(h, InstrumentOptions{
		AccessLog:     obs.NewLogger(logw, slog.LevelInfo),
		Tracer:        tr,
		SlowThreshold: slow,
	}))
	t.Cleanup(srv.Close)
	return srv, rec, logw
}

// tracedPut PUTs p the way a traced caller does: it opens a root span
// on a tracer sharing the server's recorder and hands it to the client
// through WithContext, whose traceparent header carries the trace to
// the server, so the caller's root, the server span and the store spans
// land in one trace.
func tracedPut(t *testing.T, srv *httptest.Server, rec *trace.Recorder, p string) {
	t.Helper()
	c, err := davclient.New(davclient.Config{BaseURL: srv.URL, Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tr := trace.New(trace.Config{Recorder: rec})
	ctx, root := tr.Start(context.Background(), "caller")
	_, err = c.WithContext(ctx).PutBytes(p, []byte("payload"), "text/plain")
	root.EndErr(err)
	if err != nil {
		t.Fatal(err)
	}
}

// spanDepth walks the parent chain of sp inside spans.
func spanDepth(spans []trace.SpanData, sp trace.SpanData) int {
	byID := map[trace.SpanID]trace.SpanData{}
	for _, s := range spans {
		byID[s.SpanID] = s
	}
	depth := 1
	for cur := sp; cur.HasParent(); depth++ {
		parent, ok := byID[cur.Parent]
		if !ok {
			break
		}
		cur = parent
	}
	return depth
}

// TestTracedRequestSpansThreeLevels drives one PUT through the shared
// tracer and asserts the retained trace nests caller → server → store
// (the acceptance bar: at least three span levels in a single trace).
func TestTracedRequestSpansThreeLevels(t *testing.T) {
	srv, rec, logw := newTracedServer(t, 0)
	tracedPut(t, srv, rec, "/traced-doc")
	if rec.Len() != 1 {
		t.Fatalf("retained %d traces, want 1", rec.Len())
	}
	tc := rec.Traces()[0]
	if tc.Root.Name != "caller" {
		t.Fatalf("trace root = %q, want the caller's root", tc.Root.Name)
	}
	names := map[string]trace.SpanData{}
	for _, s := range tc.Spans {
		names[s.Name] = s
	}
	for _, want := range []string{"caller", "dav.server PUT", "store.put"} {
		if _, ok := names[want]; !ok {
			t.Fatalf("trace missing span %q (have %d spans)", want, len(tc.Spans))
		}
	}
	if d := spanDepth(tc.Spans, names["store.put"]); d < 3 {
		t.Fatalf("store.put sits at depth %d, want >= 3 levels", d)
	}
	if !names["dav.server PUT"].Remote {
		t.Fatal("server span did not continue the propagated trace")
	}
	// The trace ID joins the access log to /debug/traces.
	if !strings.Contains(logw.String(), "trace="+tc.ID.String()) {
		t.Fatalf("access log missing trace id %s:\n%s", tc.ID, logw.String())
	}
	// The flight-recorder UI serves the same trace.
	ui := httptest.NewRecorder()
	rec.Handler().ServeHTTP(ui, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if !strings.Contains(ui.Body.String(), tc.ID.String()) {
		t.Fatal("/debug/traces does not list the retained trace")
	}
}

// TestSlowRequestWarnsWithTraceID sets a threshold every request beats
// and asserts the WARN line carries the trace ID and threshold.
func TestSlowRequestWarnsWithTraceID(t *testing.T) {
	srv, rec, logw := newTracedServer(t, time.Nanosecond)
	tracedPut(t, srv, rec, "/slow-doc")
	log := logw.String()
	var warn string
	for _, line := range strings.Split(log, "\n") {
		if strings.Contains(line, "slow request") {
			warn = line
		}
	}
	if warn == "" {
		t.Fatalf("no slow-request warning logged:\n%s", log)
	}
	for _, want := range []string{"level=WARN", "threshold=1ns", "trace=" + rec.Traces()[0].ID.String()} {
		if !strings.Contains(warn, want) {
			t.Errorf("slow warning missing %q: %s", want, warn)
		}
	}
}

// TestMalformedTraceParentStartsFreshTrace sends attacker-shaped
// traceparent and X-Request-ID headers and asserts the server discards
// both: the request gets a fresh trace whose ID becomes the request ID.
func TestMalformedTraceParentStartsFreshTrace(t *testing.T) {
	srv, rec, _ := newTracedServer(t, 0)

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/", nil)
	req.Header.Set(trace.TraceParentHeader, "00-zzzz-not-a-trace-01")
	req.Header.Set(obs.RequestIDHeader, "bad id with spaces")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	id := resp.Header.Get(obs.RequestIDHeader)
	if id == "" || strings.ContainsAny(id, " \n") {
		t.Fatalf("malformed inbound id echoed or mangled: %q", id)
	}
	if rec.Len() != 1 {
		t.Fatalf("retained %d traces, want 1", rec.Len())
	}
	tc := rec.Traces()[0]
	if tc.Root.Remote {
		t.Fatal("server continued a malformed traceparent")
	}
	// With no usable inbound ID the request ID is minted from the trace
	// ID, so the response header itself locates the trace.
	if id != tc.ID.String() {
		t.Fatalf("request id %q != trace id %s", id, tc.ID)
	}
}

// TestValidTraceParentIsContinued is the positive counterpart: a
// well-formed inbound header joins the server span to the caller's
// trace even without the in-process client.
func TestValidTraceParentIsContinued(t *testing.T) {
	srv, rec, _ := newTracedServer(t, 0)

	const parent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/", nil)
	req.Header.Set(trace.TraceParentHeader, parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rec.Len() != 1 {
		t.Fatalf("retained %d traces, want 1", rec.Len())
	}
	tc := rec.Traces()[0]
	if got := tc.ID.String(); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("server minted trace %s instead of continuing the caller's", got)
	}
	if !tc.Root.Remote {
		t.Fatal("continued root not marked remote")
	}
}
