package davserver

import (
	"bytes"
	"encoding/xml"
	"net/url"
	"path"
	"sort"
	"strings"
	"testing"

	"repro/internal/davclient"
	"repro/internal/davproto"
	"repro/internal/dbm"
	"repro/internal/store"
)

// hrefNames need escaping in a URL, each in its own way.
var hrefNames = []string{"a b", "a%41", "c#d", "e?f", "g&h", "é", "100%", "%2F"}

// TestNamesRoundTripThroughHrefs: names davclient sends percent-encoded
// are stored under themselves, decoded once; a Depth-1 PROPFIND lists
// each under an href that PathOf turns back into the name, and a GET of
// that path serves it. A COPY's Destination and a SEARCH's scope are
// decoded once as well. With and without a path prefix.
func TestNamesRoundTripThroughHrefs(t *testing.T) {
	for _, prefix := range []string{"", "/dav"} {
		fs, err := store.NewFSStore(t.TempDir(), dbm.GDBM)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Store, cfg.Prefix, cfg.NoAccessLog = fs, prefix, true
		dav, _, _ := serveBuilt(t, cfg)
		c, err := davclient.New(davclient.Config{BaseURL: dav.URL + prefix, Persistent: true})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		const col = "/c%41 d"
		if err := c.Mkcol(col); err != nil {
			t.Fatal(err)
		}
		for _, name := range hrefNames {
			if _, err := c.PutBytes(col+"/"+name, []byte(name), "text/plain"); err != nil {
				t.Fatalf("prefix %q: PUT %q: %v", prefix, name, err)
			}
		}
		ms, err := c.PropFindSelected(col, davproto.Depth1, davproto.PropGetContentLength)
		if err != nil {
			t.Fatal(err)
		}
		var listed []string
		for _, r := range ms.Responses {
			p := c.PathOf(r.Href)
			if p == col {
				continue
			}
			if path.Dir(p) != col {
				t.Errorf("prefix %q: href %q names %q, not a member of %q", prefix, r.Href, p, col)
				continue
			}
			listed = append(listed, path.Base(p))
			if body, err := c.Get(p); err != nil || string(body) != path.Base(p) {
				t.Errorf("prefix %q: GET %q = %q, %v", prefix, p, body, err)
			}
		}
		want := append([]string(nil), hrefNames...)
		sort.Strings(want)
		sort.Strings(listed)
		if strings.Join(listed, "|") != strings.Join(want, "|") {
			t.Errorf("prefix %q: listed %q, want %q", prefix, listed, want)
		}

		if err := c.Copy(col+"/a%41", col+"/b%42", davproto.Depth0, false); err != nil {
			t.Fatal(err)
		}
		if body, err := c.Get(col + "/b%42"); err != nil || string(body) != "a%41" {
			t.Errorf("prefix %q: GET of the COPY's Destination = %q, %v", prefix, body, err)
		}
		if ok, err := c.Exists(col + "/bB"); ok || err != nil {
			t.Errorf("prefix %q: the Destination was decoded twice (%v)", prefix, err)
		}

		hits, err := c.Search(davproto.BasicSearch{
			Select: []xml.Name{davproto.PropGetContentLength}, Scope: col, Depth: davproto.Depth1,
			Where: davproto.IsDefinedExpr{Prop: davproto.PropGetContentLength},
		})
		if err != nil || len(hits.Responses) != len(hrefNames)+1 {
			t.Errorf("prefix %q: SEARCH of %q = %d hits, %v; want %d", prefix, col, len(hits.Responses), err, len(hrefNames)+1)
		}
	}
}

// hrefOf is what writeHref writes for p, without the element's tags.
func hrefOf(h *Handler, p string) string {
	var buf bytes.Buffer
	h.writeHref(&buf, p)
	return strings.TrimSuffix(strings.TrimPrefix(buf.String(), "<D:href>"), "</D:href>")
}

// TestPlainHrefAllocatesNothing: a path of unreserved bytes and '/' is
// written as it is, without an allocation.
func TestPlainHrefAllocatesNothing(t *testing.T) {
	h := NewHandler(store.NewMemStore(), &Options{Prefix: "/dav"})
	if got := hrefOf(h, "/data/doc01.dat"); got != "/dav/data/doc01.dat" {
		t.Errorf("href %q", got)
	}
	var buf bytes.Buffer
	buf.Grow(256)
	if n := testing.AllocsPerRun(100, func() {
		buf.Reset()
		h.writeHref(&buf, "/data/doc01.dat")
	}); n != 0 {
		t.Errorf("writeHref of a plain path allocated %v times", n)
	}
}

// FuzzHrefRoundTrip: for any clean path p, under no prefix and under
// /dav, the href writeHref writes is a URI reference whose path is p's,
// with no query or fragment and nothing XML must escape, and PathOf
// gives back p.
func FuzzHrefRoundTrip(f *testing.F) {
	for _, name := range append(hrefNames, "", "/", "a/b/c", "é/ü", "a:b", "~user/.x", "..", "\xff\x00") {
		f.Add("/" + name)
	}
	type side struct {
		h *Handler
		c *davclient.Client
	}
	var sides []side
	for _, prefix := range []string{"", "/dav"} {
		c, err := davclient.New(davclient.Config{BaseURL: "http://example.test" + prefix})
		if err != nil {
			f.Fatal(err)
		}
		sides = append(sides, side{NewHandler(store.NewMemStore(), &Options{Prefix: prefix}), c})
	}
	f.Fuzz(func(t *testing.T, p string) {
		p, err := store.CleanPath(p)
		if err != nil {
			return
		}
		for _, s := range sides {
			href := hrefOf(s.h, p)
			if strings.ContainsAny(href, "<>&'\"") {
				t.Fatalf("href %q of %q needs XML escaping", href, p)
			}
			u, err := url.Parse(href)
			if err != nil || u.Path != s.h.opts.Prefix+p || u.RawQuery != "" || u.Fragment != "" || u.Host != "" {
				t.Fatalf("href %q of %q parses as %+v, %v", href, p, u, err)
			}
			if got := s.c.PathOf(href); got != p {
				t.Fatalf("PathOf(%q) = %q, want %q", href, got, p)
			}
		}
	})
}
