package xmldom

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// scanTextByteLoop is scanText without its word-at-a-time fast path: the
// byte loop it had alone, kept as the reference the fast path must agree
// with.
func scanTextByteLoop(b []byte, i int, kind textKind) (end int, rewrite, ok bool) {
	start := i
	for {
		for i < len(b) && plainText[b[i]] {
			i++
		}
		if i == len(b) {
			return i, rewrite, true
		}
		switch c := b[i]; {
		case c == byte(kind) && kind != textCDATA:
			return i, rewrite, true
		case kind == textCDATA && (c == '<' || c == '&'), c == '"', c == '\'':
			i++
		case c == '<':
			return i, false, false
		case c == '&':
			_, next, ok := scanReference(b, i+1)
			if !ok {
				return i, false, false
			}
			i, rewrite = next, true
		case c == '>':
			if kind == textContent && i-start >= 2 && b[i-1] == ']' && b[i-2] == ']' {
				return i, false, false
			}
			i++
		case c == '\r':
			i, rewrite = i+1, true
		case c < utf8.RuneSelf:
			return i, false, false
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 || !inCharacterRange(r) {
				return i, false, false
			}
			i += size
		}
	}
}

// textKinds are the places character data stands: content, each quote
// of an attribute value, and a CDATA section.
var textKinds = []textKind{textContent, '"', '\'', textCDATA}

func agreesWithByteLoop(t *testing.T, b []byte, start int, kind textKind) {
	t.Helper()
	end, rewrite, ok := scanText(b, start, kind)
	wantEnd, wantRewrite, wantOK := scanTextByteLoop(b, start, kind)
	if end != wantEnd || rewrite != wantRewrite || ok != wantOK {
		t.Fatalf("scanText(%q, %d, %q) = %d, %v, %v; the byte loop says %d, %v, %v",
			b, start, byte(kind), end, rewrite, ok, wantEnd, wantRewrite, wantOK)
	}
}

// Every byte value at every offset of an otherwise plain 18-byte run —
// two words and a tail from the first start, other splits from the
// others — under every text kind: the word scan stops wherever the byte
// loop has something to decide.
func TestScanTextAgreesWithByteLoop(t *testing.T) {
	const plain = "abcdefghijklmnopqr"
	b := []byte(plain)
	for _, kind := range textKinds {
		for off := range b {
			for c := 0; c < 256; c++ {
				b[off] = byte(c)
				for start := 0; start < 8; start++ {
					agreesWithByteLoop(t, b, start, kind)
				}
			}
			b[off] = plain[off]
		}
	}
	// Sequences the byte loop reads together: "]]>" split by a word edge,
	// line ends, a reference, and multi-byte characters of every length.
	for _, s := range []string{"]]>", "]]", "\t", "\n", "\r", "\r\n", "&amp;", "&#x41;", "é", "€", "\U0001d11e"} {
		for off := 0; off+len(s) <= len(plain); off++ {
			b := []byte(plain[:off] + s + plain[off+len(s):])
			for _, kind := range textKinds {
				for start := 0; start < 8; start++ {
					agreesWithByteLoop(t, b, start, kind)
				}
			}
		}
	}
}

// FuzzScanTextAgreesWithByteLoop holds the word scan to the byte loop on
// arbitrary bytes, starts and text kinds.
func FuzzScanTextAgreesWithByteLoop(f *testing.F) {
	for _, tc := range fragmentCases {
		f.Add([]byte(tc.in), uint8(3), uint8(0))
	}
	f.Add([]byte("1234567]]>"), uint8(0), uint8(0))
	f.Add([]byte(`1234567"8`), uint8(0), uint8(1))
	f.Add([]byte("12345678'"), uint8(1), uint8(2))
	f.Add([]byte("1234567<&]]>é"), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, b []byte, start, kind uint8) {
		agreesWithByteLoop(t, b, int(start)%(len(b)+1), textKinds[int(kind)%len(textKinds)])
	})
}

// table1Value is one stored value of the paper's Table 1 row: a
// namespaced element around 1 KiB of alphanumerics, the fragment
// PROPFIND checks before it splices it.
func table1Value() []byte {
	const alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	text := strings.Repeat(alnum, 1024/len(alnum)+1)[:1024]
	return []byte(`<ns0:prop00 xmlns:ns0="urn:ecce">` + text + `</ns0:prop00>`)
}

func BenchmarkWellFormedFragment(b *testing.B) {
	v := table1Value()
	if !WellFormedFragment(v) {
		b.Fatal("rejected")
	}
	b.SetBytes(int64(len(v)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WellFormedFragment(v)
	}
}
