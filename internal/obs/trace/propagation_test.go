package trace

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTraceParentRoundTrip(t *testing.T) {
	sc := SpanContext{
		TraceID: TraceID{0x0a, 0xf7, 0x65, 0x19, 0x16, 0xcd, 0x43, 0xdd, 0x84, 0x48, 0xeb, 0x21, 0x1c, 0x80, 0x31, 0x9c},
		SpanID:  SpanID{0xb7, 0xad, 0x6b, 0x71, 0x69, 0x20, 0x33, 0x31},
		Sampled: true,
	}
	h := FormatTraceParent(sc)
	if h != "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01" {
		t.Fatalf("formatted %q", h)
	}
	got, err := ParseTraceParent(h)
	if err != nil {
		t.Fatal(err)
	}
	if got != sc {
		t.Fatalf("round trip changed the context: %+v", got)
	}
}

func TestParseTraceParentRejectsMalformed(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	for _, bad := range []string{
		"",
		"garbage",
		valid + "0",                         // too long
		valid[:len(valid)-1],                // too short
		"01" + valid[2:],                    // unknown version
		strings.ToUpper(valid),              // uppercase hex is invalid per W3C
		strings.Replace(valid, "-", "_", 1), // wrong separator
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace ID
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero span ID
		"00-0af7651916cd43dd8448eb211cg0319c-b7ad6b7169203331-01", // non-hex byte
	} {
		if _, err := ParseTraceParent(bad); err == nil {
			t.Errorf("ParseTraceParent(%q) accepted malformed input", bad)
		}
	}
}

// FuzzParseTraceParent: a traceparent never panics the parser, and an
// accepted one has two non-zero IDs, round-trips, and is formatted back
// byte for byte except the flags, which become 01 or 00 by bit 0.
func FuzzParseTraceParent(f *testing.F) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	for _, seed := range []string{valid, valid[:53] + "00", valid[:53] + "ff", valid[:53] + "fe",
		strings.ToUpper(valid), "00-00000000000000000000000000000000-b7ad6b7169203331-01", "", "garbage"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		sc, err := ParseTraceParent(v)
		if err != nil {
			return
		}
		if sc.TraceID.IsZero() || sc.SpanID.IsZero() {
			t.Fatalf("ParseTraceParent(%q) accepted a zero ID: %+v", v, sc)
		}
		formatted := FormatTraceParent(sc)
		if again, err := ParseTraceParent(formatted); err != nil || again != sc {
			t.Fatalf("%q → %+v → %q → %+v, %v", v, sc, formatted, again, err)
		}
		flags := "00"
		if strings.IndexByte("13579bdf", v[54]) >= 0 {
			flags = "01"
		}
		if want := v[:53] + flags; formatted != want {
			t.Fatalf("ParseTraceParent(%q) formats back as %q, want %q", v, formatted, want)
		}
	})
}

func TestExtractDiscardsMalformedHeader(t *testing.T) {
	r := httptest.NewRequest("GET", "/x", nil)
	r.Header.Set(TraceParentHeader, "00-INVALID-HEADER-01")
	ctx, ok := Extract(context.Background(), r)
	if ok {
		t.Fatal("Extract accepted a malformed traceparent")
	}
	if !RemoteFromContext(ctx).TraceID.IsZero() {
		t.Fatal("malformed header leaked a remote span context")
	}

	// Absent header: same, no remote context.
	r2 := httptest.NewRequest("GET", "/x", nil)
	if _, ok := Extract(context.Background(), r2); ok {
		t.Fatal("Extract reported success with no header")
	}
}

func TestInjectExtractAcrossHop(t *testing.T) {
	tr := New(Config{Clock: stepClock(epoch, time.Millisecond), IDSource: &seqReader{}})
	ctx, sp := tr.Start(context.Background(), "client op")
	r := httptest.NewRequest("PUT", "/doc", nil)
	Inject(ctx, r.Header)
	h := r.Header.Get(TraceParentHeader)
	if h == "" {
		t.Fatal("Inject wrote no header")
	}
	serverCtx, ok := Extract(context.Background(), r)
	if !ok {
		t.Fatalf("Extract rejected injected header %q", h)
	}
	rc := RemoteFromContext(serverCtx)
	if rc.TraceID != sp.TraceID() || rc.SpanID != sp.SpanID() {
		t.Fatalf("hop changed identity: got %s/%s want %s/%s",
			rc.TraceID, rc.SpanID, sp.TraceID(), sp.SpanID())
	}
	if !rc.Sampled {
		t.Fatal("active span must propagate as sampled")
	}
	// A nil-span context injects nothing.
	r2 := httptest.NewRequest("PUT", "/doc", nil)
	Inject(context.Background(), r2.Header)
	if r2.Header.Get(TraceParentHeader) != "" {
		t.Fatal("Inject stamped a header without an active span")
	}
}
