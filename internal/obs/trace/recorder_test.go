package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestTailDecisionRules(t *testing.T) {
	// Slow traces are always kept; errored traces are kept; fast clean
	// traces are dropped when SampleRate is 0.
	rec := NewRecorder(RecorderConfig{SlowThreshold: 40 * time.Millisecond})
	tr := New(Config{Clock: stepClock(epoch, 10*time.Millisecond), IDSource: &seqReader{}, Recorder: rec})

	_, fast := tr.Start(context.Background(), "fast") // dur 10ms < 40ms
	fast.End()
	_, slow := tr.Start(context.Background(), "slow")
	tr.Now() // burn clock ticks: start .. +3 ticks
	tr.Now()
	tr.Now()
	slow.End() // dur 40ms >= threshold
	_, errd := tr.Start(context.Background(), "errored")
	errd.EndErr(errors.New("boom")) // dur 10ms but errored

	if rec.Len() != 2 {
		t.Fatalf("retained %d, want 2 (slow + errored)", rec.Len())
	}
	reasons := map[string]string{}
	for _, tc := range rec.Traces() {
		reasons[tc.Root.Name] = tc.Reason
	}
	if reasons["slow"] != ReasonSlow {
		t.Fatalf("slow trace reason = %q", reasons["slow"])
	}
	if reasons["errored"] != ReasonError {
		t.Fatalf("errored trace reason = %q", reasons["errored"])
	}
	st := rec.Stats()
	if st.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (the fast trace)", st.Dropped)
	}
}

func TestNegativeSlowThresholdDisablesSlowRule(t *testing.T) {
	rec := NewRecorder(RecorderConfig{SlowThreshold: -1})
	tr := New(Config{Clock: stepClock(epoch, time.Hour), IDSource: &seqReader{}, Recorder: rec})
	_, sp := tr.Start(context.Background(), "glacial")
	sp.End() // one hour long, but the slow rule is off and SampleRate is 0
	if rec.Len() != 0 {
		t.Fatal("slow rule fired despite negative threshold")
	}
}

// TestRecorderEvictionAtCapacity: the ring keeps the newest 256 kept
// traces; the 257th evicts the oldest. Trace IDs are random:
// seqReader's repeat every 32 traces.
func TestRecorderEvictionAtCapacity(t *testing.T) {
	rec := NewRecorder(RecorderConfig{SampleRate: 1, Seed: 7})
	tr := New(Config{Clock: stepClock(epoch, time.Millisecond), Recorder: rec})
	var ids []string
	for i := 0; i < 257; i++ {
		_, sp := tr.Start(context.Background(), fmt.Sprintf("op%d", i))
		ids = append(ids, sp.TraceID().String())
		sp.End()
	}
	if rec.Len() != 256 {
		t.Fatalf("retained %d, want capacity 256", rec.Len())
	}
	if rec.Find(ids[0]) != nil {
		t.Fatalf("evicted trace %s still retained", ids[0])
	}
	for _, fresh := range ids[1:] {
		if rec.Find(fresh) == nil {
			t.Fatalf("fresh trace %s missing", fresh)
		}
	}
	if got := rec.Traces()[0].Root.Name; got != "op256" {
		t.Fatalf("newest retained trace is %q, want op256", got)
	}
}

// TestActiveTraceCapEvictsUndecided: at most 1,024 traces buffer
// undecided; the 1,025th open root evicts the oldest. Trace IDs are
// random, as in TestRecorderEvictionAtCapacity.
func TestActiveTraceCapEvictsUndecided(t *testing.T) {
	rec := NewRecorder(RecorderConfig{SampleRate: 1, Seed: 1})
	tr := New(Config{Clock: stepClock(epoch, time.Millisecond), Recorder: rec})
	// 1,025 roots open concurrently: the first must be evicted undecided.
	roots := make([]*Span, 1025)
	for i := range roots {
		_, roots[i] = tr.Start(context.Background(), fmt.Sprintf("r%d", i))
	}
	for _, sp := range roots {
		sp.End() // roots[0]'s buffer is gone; its span arrives late
	}
	st := rec.Stats()
	if st.Evicted != 1 {
		t.Fatalf("evicted = %d, want 1", st.Evicted)
	}
	if st.LateSpans != 1 {
		t.Fatalf("late spans = %d, want 1 (root r0 ended after eviction)", st.LateSpans)
	}
	if st.Kept != 1024 {
		t.Fatalf("kept %d, want 1,024 (every root but r0)", st.Kept)
	}
}

// TestMaxSpansPerTraceTruncates: a trace stores at most 512 spans; the
// 513th is counted, not stored.
func TestMaxSpansPerTraceTruncates(t *testing.T) {
	rec := NewRecorder(RecorderConfig{SampleRate: 1, Seed: 1})
	tr := New(Config{Clock: stepClock(epoch, time.Millisecond), IDSource: &seqReader{}, Recorder: rec})
	ctx, root := tr.Start(context.Background(), "root")
	for i := 0; i < 512; i++ {
		_, sp := Child(ctx, fmt.Sprintf("child%d", i))
		sp.End()
	}
	root.End()
	got := rec.Traces()[0]
	if len(got.Spans) != 512 {
		t.Fatalf("stored %d spans, want 512", len(got.Spans))
	}
	if got.Truncated != 1 {
		// 512 children + 1 root = 513 finished spans; 512 stored, the
		// root dropped.
		t.Fatalf("truncated = %d, want 1", got.Truncated)
	}
}

// TestGoldenJSONLExport locks the JSONL span-tree format: deterministic
// clock and ID source, one trace, exact expected output.
func TestGoldenJSONLExport(t *testing.T) {
	rec := NewRecorder(RecorderConfig{SampleRate: 1, Seed: 1})
	tr := New(Config{Clock: stepClock(epoch, 10*time.Millisecond), IDSource: &seqReader{}, Recorder: rec})

	ctx, root := tr.Start(context.Background(), "dav.client PUT", Str("path", "/d/x")) // t=0
	cctx, child := Child(ctx, "store.put")                                             // t=10ms
	_, grand := Child(cctx, "dbm.put")                                                 // t=20ms
	grand.End()                                                                        // t=30ms, dur 10ms
	child.EndErr(errors.New("disk full"))                                              // t=40ms, dur 30ms
	root.End()                                                                         // t=50ms, dur 50ms

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	const want = `{"trace_id":"0102030405060708090a0b0c0d0e0f10","root":"dav.client PUT","start":"2001-07-01T12:00:00Z","duration_us":50000,"reason":"error","span_count":3,"spans":[{"name":"dav.client PUT","span_id":"1112131415161718","start_us":0,"duration_us":50000,"attrs":{"path":"/d/x"},"children":[{"name":"store.put","span_id":"191a1b1c1d1e1f20","parent_id":"1112131415161718","start_us":10000,"duration_us":30000,"error":"disk full","children":[{"name":"dbm.put","span_id":"2122232425262728","parent_id":"191a1b1c1d1e1f20","start_us":20000,"duration_us":10000}]}]}]}` + "\n"
	if got != want {
		t.Fatalf("JSONL mismatch:\n got: %s\nwant: %s", got, want)
	}
	// The export must stay parseable line by line.
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		var decoded map[string]any
		if err := json.Unmarshal([]byte(line), &decoded); err != nil {
			t.Fatalf("line not valid JSON: %v\n%s", err, line)
		}
	}
}
