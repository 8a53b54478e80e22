package davproto

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/xmldom"
)

// The request parsers take bytes from the network: they must not panic,
// and what they accept must survive the client-side Marshal and a
// second parse unchanged, or a server could store what it cannot serve.

func FuzzParsePropfind(f *testing.F) {
	for _, s := range []string{
		``, ` `,
		`<D:propfind xmlns:D="DAV:"><D:allprop/></D:propfind>`,
		`<propfind xmlns="DAV:"><propname/></propfind>`,
		`<D:propfind xmlns:D="DAV:"><D:prop><D:getetag/><e:formula xmlns:e="urn:ecce"/><bare/><p:undeclared/></D:prop></D:propfind>`,
		`<D:propfind xmlns:D="DAV:"><D:prop/></D:propfind>`,
		`<D:propfind xmlns:D="DAV:"><D:prop><a: xmlns="x"/><:b/></D:prop></D:propfind>`,
		`<D:propfind xmlns:D="DAV:"/>`,
		`<D:propertyupdate xmlns:D="DAV:"/>`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		pf, err := ParsePropfind(bytes.NewReader(b))
		if err != nil {
			return
		}
		again, err := ParsePropfind(bytes.NewReader(MarshalPropfind(pf)))
		if err != nil || !reflect.DeepEqual(again, pf) {
			t.Fatalf("%q parses to %+v, which marshals to %s and reparses to %+v, %v", b, pf, MarshalPropfind(pf), again, err)
		}
	})
}

func FuzzParseProppatch(f *testing.F) {
	for _, s := range []string{
		`<D:propertyupdate xmlns:D="DAV:"><D:set><D:prop><e:formula xmlns:e="urn:ecce">H2O</e:formula></D:prop></D:set></D:propertyupdate>`,
		`<D:propertyupdate xmlns:D="DAV:" xmlns:e="urn:ecce"><D:remove><D:prop><e:a/></D:prop></D:remove><D:set><D:prop><e:b e:unit="&#34;Å&#34;" xml:lang="en">1<e:c>2</e:c>3&#13;</e:b><bare/></D:prop></D:set></D:propertyupdate>`,
		`<propertyupdate xmlns="DAV:"><set><prop><x xmlns="">text &lt;&amp;</x></prop></set></propertyupdate>`,
		`<D:propertyupdate xmlns:D="DAV:"><D:set/></D:propertyupdate>`,
		`<D:propertyupdate xmlns:D="DAV:"><D:set><D:prop><v><:b xmlns="x" :c="1"/></v></D:prop></D:set></D:propertyupdate>`,
		`<D:propertyupdate xmlns:D="DAV:"><D:other/></D:propertyupdate>`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ops, err := ParseProppatch(bytes.NewReader(b))
		if err != nil {
			return
		}
		body := MarshalProppatch(ops)
		again, err := ParseProppatch(bytes.NewReader(body))
		if err != nil || len(again) != len(ops) {
			t.Fatalf("%q parses to %d operations, which marshal to %s and reparse to %d, %v", b, len(ops), body, len(again), err)
		}
		for i, op := range ops {
			want := op.Prop.Encode()
			if op.Remove { // only the name travels
				want = xmldom.Marshal(xmldom.NewElement(op.Prop.Name().Space, op.Prop.Name().Local))
			}
			if got := again[i].Prop.Encode(); again[i].Remove != op.Remove || !bytes.Equal(got, want) {
				t.Fatalf("%q: operation %d is %s (remove=%v), after a round trip %s (remove=%v)", b, i, want, op.Remove, got, again[i].Remove)
			}
		}
	})
}

// Every token the If header yields is an opaquelocktoken URI cut at its
// delimiter, and the tokens are disjoint pieces of the header, in the
// order it carries them.
func FuzzParseIfTokens(f *testing.F) {
	for _, s := range []string{"", "(<opaquelocktoken:a-b>)",
		"</doc> (<opaquelocktoken:1> [\"e\"]) (Not <opaquelocktoken:2>)",
		"opaquelocktoken:opaquelocktoken:x", "<opaquelocktoken:\t>", "(<opaquelocktoken:y"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, h string) {
		rest := h
		for _, tok := range ParseIfTokens(h) {
			if !strings.HasPrefix(tok, "opaquelocktoken:") || strings.ContainsAny(tok, ">) \t") {
				t.Fatalf("ParseIfTokens(%q) yields %q", h, tok)
			}
			i := strings.Index(rest, tok)
			if i < 0 {
				t.Fatalf("ParseIfTokens(%q) yields %q, which is not in what follows the tokens before it", h, tok)
			}
			rest = rest[i+len(tok):]
		}
	})
}

// A Depth header the parser accepts formats back to itself; one it
// rejects leaves the caller's default.
func FuzzParseDepth(f *testing.F) {
	for _, s := range []string{"", "0", "1", "infinity", " Infinity ", "2", "-1", "infinit"} {
		f.Add(s, uint8(DepthInfinity))
	}
	f.Fuzz(func(t *testing.T, h string, def uint8) {
		dflt := Depth(def % 3)
		d, err := ParseDepth(h, dflt)
		if err != nil {
			if d != dflt {
				t.Fatalf("ParseDepth(%q, %v) rejects it with %v, not the default", h, dflt, d)
			}
			return
		}
		if again, err := ParseDepth(d.String(), dflt); err != nil || again != d {
			t.Fatalf("ParseDepth(%q) = %v, formats to %q, reparses to (%v, %v)", h, d, d.String(), again, err)
		}
	})
}

// A Timeout header or lockinfo element must never parse to a duration
// outside [0, 2³²−1 s]: a wrapped value would make LockManager grant a
// never-expiring or sub-second lock.
func FuzzParseTimeout(f *testing.F) {
	for _, s := range []string{"Second-600", "Infinite", "", "Second-3600, Infinite",
		"Second-4294967296", "Second-9300000000", "Second-18446744074", "Second-x"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, h string) {
		d, err := ParseTimeout(h)
		if err != nil {
			return
		}
		if d < 0 || d > maxTimeoutSeconds*time.Second {
			t.Fatalf("ParseTimeout(%q) = %v, outside [0, %v]", h, d, maxTimeoutSeconds*time.Second)
		}
		if again, err := ParseTimeout(FormatTimeout(d)); err != nil || again != d {
			t.Fatalf("ParseTimeout(%q) = %v, formats to %q, reparses to (%v, %v)", h, d, FormatTimeout(d), again, err)
		}
	})
}

// A blank LOCK body is a refresh; any other body is a lockinfo or an
// error, never both and never neither, and what is accepted is what
// the client's MarshalLockInfo would send for it.
func FuzzParseLockInfo(f *testing.F) {
	for _, s := range []string{"", " \r\n\t",
		`<D:lockinfo xmlns:D="DAV:"><D:lockscope><D:exclusive/></D:lockscope><D:locktype><D:write/></D:locktype></D:lockinfo>`,
		`<lockinfo xmlns="DAV:"><lockscope><shared/></lockscope><owner><href xmlns="DAV:">mailto:a@b</href> x </owner></lockinfo>`,
		`<D:lockinfo xmlns:D="DAV:"><D:owner>a &amp; b&#13;&#x85;</D:owner></D:lockinfo>`,
		`<D:lockinfo xmlns:D="DAV:"><D:lockscope/><D:owner/></D:lockinfo>`,
		`<D:propfind xmlns:D="DAV:"/>`,
		`<D:lockinfo xmlns:D="DAV:">`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		li, ok, err := ParseLockInfo(bytes.NewReader(b))
		if len(strings.TrimSpace(string(b))) == 0 {
			if li != (LockInfo{}) || ok || err != nil {
				t.Fatalf("blank %q parses to %+v, %v, %v; want a refresh", b, li, ok, err)
			}
			return
		}
		if ok != (err == nil) {
			t.Fatalf("%q parses to %+v, ok=%v, err=%v", b, li, ok, err)
		}
		if !ok {
			return
		}
		body := MarshalLockInfo(li)
		again, ok, err := ParseLockInfo(bytes.NewReader(body))
		if !ok || err != nil || again != li {
			t.Fatalf("%q parses to %+v, which marshals to %s and reparses to %+v, %v, %v", b, li, body, again, ok, err)
		}
	})
}

// A SEARCH body the server accepts is one the client's MarshalSearch
// would send for it: the where tree, select list, scope and depth all
// survive the round trip.
func FuzzParseSearch(f *testing.F) {
	for _, s := range []string{
		`<D:searchrequest xmlns:D="DAV:"><D:basicsearch><D:select><D:prop><e:formula xmlns:e="ecce:"/></D:prop></D:select><D:from><D:scope><D:href>/chem</D:href><D:depth>1</D:depth></D:scope></D:from></D:basicsearch></D:searchrequest>`,
		`<D:searchrequest xmlns:D="DAV:" xmlns:e="ecce:"><D:basicsearch><D:select><D:prop><D:getetag/></D:prop></D:select><D:from><D:scope><D:href>/</D:href></D:scope></D:from><D:where><D:and><D:not><D:is-defined><D:prop><e:charge/></D:prop></D:is-defined></D:not><D:or><D:gte><D:prop><e:charge/></D:prop><D:literal>2</D:literal></D:gte><D:is-defined><D:prop><e:formula/></D:prop></D:is-defined></D:or></D:and></D:where></D:basicsearch></D:searchrequest>`,
		`<searchrequest xmlns="DAV:"><basicsearch><select><prop/></select><from><scope><href> /calc runs </href><depth>infinity</depth></scope></from><where><like><prop><title xmlns="ecce:"/></prop><literal> water %  dimer% </literal></like></where></basicsearch></searchrequest>`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		bs, err := ParseSearch(bytes.NewReader(b))
		if err != nil {
			return
		}
		body := MarshalSearch(bs)
		again, err := ParseSearch(bytes.NewReader(body))
		if err != nil || !reflect.DeepEqual(again, bs) {
			t.Fatalf("%q parses to %+v, which marshals to %s and reparses to %+v, %v", b, bs, body, again, err)
		}
	})
}
