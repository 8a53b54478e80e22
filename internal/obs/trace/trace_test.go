package trace

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// stepClock returns a deterministic clock advancing by step per call.
func stepClock(start time.Time, step time.Duration) func() time.Time {
	var mu sync.Mutex
	n := 0
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t := start.Add(step * time.Duration(n))
		n++
		return t
	}
}

// seqReader yields a deterministic byte sequence for golden IDs.
type seqReader struct {
	mu sync.Mutex
	b  byte
}

func (r *seqReader) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range p {
		r.b++
		p[i] = r.b
	}
	return len(p), nil
}

var epoch = time.Date(2001, 7, 1, 12, 0, 0, 0, time.UTC)

func TestNilTracerAndSpanAreInert(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.Start(context.Background(), "op")
	if sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("nil tracer installed a span in the context")
	}
	// Every span method must be a no-op on nil.
	sp.SetAttr(Str("k", "v"))
	sp.SetError(errors.New("x"))
	if d := sp.EndErr(errors.New("x")); d != 0 {
		t.Fatalf("nil span duration = %v, want 0", d)
	}
	if !sp.TraceID().IsZero() || !sp.SpanID().IsZero() || sp.Name() != "" {
		t.Fatal("nil span leaked identity")
	}
	if tr.Now().IsZero() {
		t.Fatal("nil tracer clock returned zero time")
	}
	if tr.Recorder() != nil {
		t.Fatal("nil tracer has a recorder")
	}
}

func TestSpanParentage(t *testing.T) {
	tr := New(Config{Clock: stepClock(epoch, time.Millisecond), IDSource: &seqReader{}})
	ctx, root := tr.Start(context.Background(), "root")
	if root.TraceID().IsZero() || root.SpanID().IsZero() {
		t.Fatal("root IDs not minted")
	}
	ctx2, child := Child(ctx, "child")
	if child.TraceID() != root.TraceID() {
		t.Fatalf("child trace %s != root trace %s", child.TraceID(), root.TraceID())
	}
	if child.SpanID() == root.SpanID() {
		t.Fatal("child reused the root span ID")
	}
	_, grand := Child(ctx2, "grandchild")
	if grand.TraceID() != root.TraceID() {
		t.Fatal("grandchild left the trace")
	}
	// Child of a bare context is inert.
	if _, orphan := Child(context.Background(), "orphan"); orphan != nil {
		t.Fatal("Child without a parent span should be nil")
	}
}

func TestEndDurationOnTracerClock(t *testing.T) {
	tr := New(Config{Clock: stepClock(epoch, 10*time.Millisecond), IDSource: &seqReader{}})
	_, sp := tr.Start(context.Background(), "op") // clock: start=0ms
	if d := sp.End(); d != 10*time.Millisecond {  // clock: end=10ms
		t.Fatalf("duration = %v, want 10ms", d)
	}
	if d := sp.End(); d != 0 {
		t.Fatalf("second End = %v, want 0 (no double delivery)", d)
	}
}

func TestRegionFallsBackWithoutTrace(t *testing.T) {
	_, end := Region(context.Background(), "untraced")
	if d := end(nil); d < 0 {
		t.Fatalf("fallback duration negative: %v", d)
	}
}

func TestRegionSharesMeasurement(t *testing.T) {
	rec := NewRecorder(RecorderConfig{SampleRate: 1, Seed: 1})
	tr := New(Config{Clock: stepClock(epoch, 5*time.Millisecond), IDSource: &seqReader{}, Recorder: rec})
	ctx, root := tr.Start(context.Background(), "root") // t=0
	_, end := Region(ctx, "store.get")                  // t=5
	got := end(nil)                                     // t=10
	if got != 5*time.Millisecond {
		t.Fatalf("region duration = %v, want 5ms", got)
	}
	root.End() // t=15 -> trace decided
	tr2 := rec.Traces()
	if len(tr2) != 1 {
		t.Fatalf("retained %d traces, want 1", len(tr2))
	}
	for _, s := range tr2[0].Spans {
		if s.Name == "store.get" && s.Duration != got {
			t.Fatalf("span recorded %v but caller saw %v", s.Duration, got)
		}
	}
}

func TestConcurrentSpans(t *testing.T) {
	// Exercised under -race in CI: many goroutines starting, annotating
	// and finishing spans against one tracer and recorder.
	rec := NewRecorder(RecorderConfig{SampleRate: 1, Seed: 42})
	tr := New(Config{Recorder: rec})
	const workers = 16
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ctx, root := tr.Start(context.Background(), "root", Int("worker", int64(w)))
				_, child := Child(ctx, "child")
				child.SetAttr(Int("i", int64(i)))
				if i%5 == 0 {
					child.SetError(errors.New("synthetic"))
				}
				child.End()
				root.End()
			}
		}(w)
	}
	wg.Wait()
	st := rec.Stats()
	if st.Decided != workers*perWorker {
		t.Fatalf("decided %d traces, want %d", st.Decided, workers*perWorker)
	}
	if st.Kept != workers*perWorker {
		t.Fatalf("kept %d traces, want %d (SampleRate 1)", st.Kept, workers*perWorker)
	}
	if st.Active != 0 {
		t.Fatalf("%d traces still active after all roots ended", st.Active)
	}
}

func TestSharedTracerClientServerRoots(t *testing.T) {
	// In-process benchmarks run client and server on one tracer: the
	// client root and the server's remote-continued root both count as
	// local roots, and the decision must wait for the last of them.
	rec := NewRecorder(RecorderConfig{SampleRate: 1, Seed: 1})
	tr := New(Config{Clock: stepClock(epoch, time.Millisecond), IDSource: &seqReader{}, Recorder: rec})

	ctx, clientRoot := tr.Start(context.Background(), "dav.client PUT")
	// Simulate the wire hop: the server sees only the remote span context.
	serverCtx := ContextWithRemote(context.Background(), SpanContext{
		TraceID: clientRoot.TraceID(), SpanID: clientRoot.SpanID(), Sampled: true,
	})
	serverCtx, serverSpan := tr.Start(serverCtx, "dav.server PUT")
	_, storeSpan := Child(serverCtx, "store.put")
	storeSpan.End()
	serverSpan.End()
	if rec.Len() != 0 {
		t.Fatal("trace decided before the client root ended")
	}
	_ = ctx
	clientRoot.End()
	if rec.Len() != 1 {
		t.Fatalf("retained %d traces, want 1", rec.Len())
	}
	got := rec.Traces()[0]
	if got.Root.Name != "dav.client PUT" {
		t.Fatalf("decision root = %q, want the parentless client root", got.Root.Name)
	}
	if len(got.Spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(got.Spans))
	}
}
