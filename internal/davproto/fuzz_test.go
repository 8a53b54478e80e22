package davproto

import (
	"bytes"
	"reflect"
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
			want := xmldom.Marshal(op.Prop.XML)
			if op.Remove { // only the name travels
				want = xmldom.Marshal(xmldom.NewElement(op.Prop.Name().Space, op.Prop.Name().Local))
			}
			if got := xmldom.Marshal(again[i].Prop.XML); again[i].Remove != op.Remove || !bytes.Equal(got, want) {
				t.Fatalf("%q: operation %d is %s (remove=%v), after a round trip %s (remove=%v)", b, i, want, op.Remove, got, again[i].Remove)
			}
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
