package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestNewRequestIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		if len(id) != 16 {
			t.Fatalf("id %q has length %d, want 16", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestEnsureRequestIDPrecedence(t *testing.T) {
	// Inbound header wins.
	r := httptest.NewRequest("GET", "/x", nil)
	r.Header.Set(RequestIDHeader, "abc")
	r2, id := EnsureRequestID(r)
	if id != "abc" || RequestIDFrom(r2.Context()) != "abc" {
		t.Fatalf("header id = %q (ctx %q), want abc", id, RequestIDFrom(r2.Context()))
	}

	// Context is next: a client that stamped its operation's ID into
	// the context keeps it across the hop.
	r = httptest.NewRequest("GET", "/x", nil)
	r = r.WithContext(WithRequestID(r.Context(), "ctxid"))
	_, id = EnsureRequestID(r)
	if id != "ctxid" {
		t.Fatalf("ctx id = %q, want ctxid", id)
	}

	// Nothing present: generated.
	r = httptest.NewRequest("GET", "/x", nil)
	_, id = EnsureRequestID(r)
	if id == "" {
		t.Fatal("no id generated")
	}
}

func TestEnsureRequestIDSanitizes(t *testing.T) {
	// Malformed inbound IDs are rejected outright and a fresh ID is
	// minted — no attacker-controlled bytes are echoed, not even a
	// "clean" prefix of them.
	for _, bad := range []string{
		"ok\x07evil",                 // control byte
		strings.Repeat("z", 200),     // oversized
		"with space",                 // forbidden charset
		"semi;colon",                 // header-injection material
		"new\nline",                  // CRLF injection
		"\"quoted\"",                 // log-forgery material
		"ünïcode",                    // non-ASCII
		"0af7651916cd43dd8448eb211c", // fine, see below
	} {
		r := httptest.NewRequest("GET", "/x", nil)
		r.Header.Set(RequestIDHeader, bad)
		_, id := EnsureRequestID(r)
		if bad == "0af7651916cd43dd8448eb211c" {
			if id != bad {
				t.Fatalf("well-formed id %q rejected (got %q)", bad, id)
			}
			continue
		}
		if len(id) != 16 {
			t.Fatalf("replacement for %q is %q, want a fresh 16-hex id", bad, id)
		}
		if strings.Contains(bad, id) {
			t.Fatalf("replacement %q echoes part of malformed input %q", id, bad)
		}
	}
}

func TestCleanRequestIDPolicy(t *testing.T) {
	for in, want := range map[string]string{
		"abc123":                "abc123",
		"A-b_c.9":               "A-b_c.9",
		"  padded  ":            "padded", // surrounding whitespace is not identity
		"":                      "",
		"has space":             "",
		"a\x00b":                "",
		"trailing\r":            "trailing", // outer whitespace trimmed, like padded
		"inner\rcr":             "",
		strings.Repeat("x", 64): strings.Repeat("x", 64),
		strings.Repeat("x", 65): "",
	} {
		if got := CleanRequestID(in); got != want {
			t.Errorf("CleanRequestID(%q) = %q, want %q", in, got, want)
		}
	}
}
