package davclient

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/davproto"
	"repro/internal/davserver"
	"repro/internal/store"
	"repro/internal/xmldom"
)

// The streaming reader accepts and refuses exactly the bodies
// davproto.ParseMultistatus does, and reads the same hrefs, statuses and
// properties out of every one it accepts. Seeds are the 207s davd
// writes and the shapes other servers write that davd does not.
func FuzzParseMultistatus(f *testing.F) {
	for _, b := range serverMultistatuses(f) {
		f.Add(b)
	}
	for _, s := range foreignMultistatuses {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		dom, errDOM := davproto.ParseMultistatus(bytes.NewReader(b))
		sax, errSAX := parseMultistatusSAX(bytes.NewReader(b))
		if (errDOM == nil) != (errSAX == nil) {
			t.Fatalf("%q: DOM error %v, streaming reader error %v", b, errDOM, errSAX)
		}
		if errDOM == nil {
			if diff := multistatusDiff(dom, sax); diff != "" {
				t.Fatalf("%q: %s", b, diff)
			}
		}
	})
}

// PathOf reads hrefs straight off the network. It never panics, and
// for every resource path without a '%' it inverts hrefFor in both the
// path and the absolute-URI form, under a base URL with and without a
// path. (A '%' is escaped by a server that encodes its hrefs and left
// as it is by davd, which does not; TestPathOf covers both.)
func FuzzPathOf(f *testing.F) {
	for _, tc := range []string{
		"/", "/p/c/molecule", "/p/my calc & co/molecule", "/p/calc #3?/basis",
		"/dav", "/dav/p", "/davx/p", "/a:/b", "p/../q", "http://h/dav/p",
		"/p/my%20calc", "/p/100%/job", "%zz", "://", "",
	} {
		f.Add(tc)
	}
	clients := map[string]*Client{}
	for _, base := range []string{"", "/dav"} {
		c, err := New(Config{BaseURL: "http://h" + base})
		if err != nil {
			f.Fatal(err)
		}
		clients[base] = c
	}
	f.Fuzz(func(t *testing.T, s string) {
		for base, c := range clients {
			c.PathOf(s) // any href
			p, err := store.CleanPath(s)
			if err != nil || strings.Contains(p, "%") {
				continue
			}
			href := c.hrefFor(p)
			for _, h := range []string{href, "http://h" + href} {
				if got := c.PathOf(h); got != p {
					t.Fatalf("base %q: PathOf(%q) = %q, want %q", base, h, got, p)
				}
			}
		}
	})
}

// foreignMultistatuses are 207 shapes a third-party server may send.
var foreignMultistatuses = []string{
	// Every prefix declared once, on the root.
	`<?xml version="1.0"?><d:multistatus xmlns:d="DAV:" xmlns:e="ecce:"><d:response><d:href>/a</d:href>` +
		`<d:propstat><d:prop><e:formula>H2O</e:formula><d:getcontentlength>12</d:getcontentlength></d:prop>` +
		`<d:status>HTTP/1.1 200 OK</d:status></d:propstat></d:response></d:multistatus>`,
	// Mixed content, and DAV: as the default namespace.
	`<multistatus xmlns="DAV:"><response><href> /m </href><propstat><prop>` +
		`<geometry xmlns="ecce:">center<atom>U</atom>tail<atom/></geometry></prop>` +
		`<status>HTTP/1.1 200 OK</status></propstat></response></multistatus>`,
	// An attribute on a property element, one on a value's child.
	`<D:multistatus xmlns:D="DAV:"><D:response><D:href>/a</D:href><D:propstat><D:prop>` +
		`<e:formula xmlns:e="ecce:" e:unit="g" xml:lang="en">H2O</e:formula>` +
		`<e:basis xmlns:e="ecce:"><e:set name="6-31G"/></e:basis></D:prop>` +
		`<D:status>HTTP/1.1 200 OK</D:status></D:propstat></D:response></D:multistatus>`,
	// Entity and character references in a value and an href.
	`<D:multistatus xmlns:D="DAV:"><D:response><D:href>/a&amp;b</D:href><D:propstat><D:prop>` +
		`<e:note xmlns:e="ecce:">a &lt; b &amp;&#x20;&#62; &quot;q&apos;<![CDATA[<raw>]]></e:note></D:prop>` +
		`<D:status>HTTP/1.1 200 OK</D:status></D:propstat></D:response></D:multistatus>`,
	// CRLF line ends, inside values too, and pretty-printing.
	"<?xml version=\"1.0\" encoding=\"utf-8\"?>\r\n<D:multistatus xmlns:D=\"DAV:\">\r\n <D:response>\r\n" +
		"  <D:href>/a</D:href>\r\n  <D:propstat>\r\n   <D:prop>\r\n    <e:deck xmlns:e=\"ecce:\">line 1\r\nline 2\r</e:deck>\r\n" +
		"   </D:prop>\r\n   <D:status>HTTP/1.1 200 OK</D:status>\r\n  </D:propstat>\r\n </D:response>\r\n</D:multistatus>\r\n",
	// An empty resourcetype beside a collection's, and a 404 propstat.
	`<D:multistatus xmlns:D="DAV:"><D:response><D:href>/f</D:href><D:propstat><D:prop><D:resourcetype/>` +
		`</D:prop><D:status>HTTP/1.1 200 OK</D:status></D:propstat><D:propstat><D:prop><D:getetag/></D:prop>` +
		`<D:status>HTTP/1.1 404 Not Found</D:status></D:propstat></D:response><D:response><D:href>/c/</D:href>` +
		`<D:propstat><D:prop><D:resourcetype><D:collection/></D:resourcetype></D:prop>` +
		`<D:status>HTTP/1.1 200 OK</D:status></D:propstat></D:response></D:multistatus>`,
	// A response-level status, as a DELETE or COPY failure reports it.
	`<D:multistatus xmlns:D="DAV:"><D:response><D:href>/locked</D:href>` +
		`<D:status>HTTP/1.1 423 Locked</D:status></D:response></D:multistatus>`,
	// What the DOM reads past: a second href, status and prop, a status
	// beside propstats, markup in an href, a response off the root.
	`<D:multistatus xmlns:D="DAV:"><D:response><D:href>/a<D:x>b</D:x>c</D:href><D:href>/z</D:href>` +
		`<D:status>bad</D:status><D:propstat><D:prop><e:p xmlns:e="ecce:">1</e:p></D:prop><D:prop><e:q xmlns:e="ecce:"/></D:prop>` +
		`<D:status>HTTP/1.1 200 OK</D:status><D:status>bad</D:status></D:propstat></D:response>` +
		`<D:other><D:response><D:href>/hidden</D:href></D:response></D:other></D:multistatus>`,
}

// serverMultistatuses returns 207s as davd writes them: PROPFIND
// allprop and a selection with a 404 propstat, a PROPPATCH answered
// 409/424, a version-tree REPORT and a SEARCH.
func serverMultistatuses(tb testing.TB) [][]byte {
	srv := httptest.NewServer(davserver.NewHandler(store.NewMemStore(), nil))
	defer srv.Close()
	c, err := New(Config{BaseURL: srv.URL})
	if err != nil {
		tb.Fatal(err)
	}
	defer c.Close()
	put := func(p, body string) error {
		_, err := c.PutBytes(p, []byte(body), "")
		return err
	}
	geom := xmldom.NewTextElement("ecce:", "geometry", "center")
	geom.Add("ecce:", "atom").SetAttr("", "sym", "U")
	for _, err := range []error{
		c.Mkcol("/m"),
		put("/m/a", "v1"),
		c.SetProps("/m/a", davproto.NewTextProperty("ecce:", "formula", "UO2 & <H2O>"), davproto.NewNodeProperty(geom)),
		c.VersionControl("/m/a"),
		put("/m/a", "v2"),
	} {
		if err != nil {
			tb.Fatal(err)
		}
	}
	raw := func(method, p string, body []byte) []byte {
		req, err := http.NewRequest(method, srv.URL+p, bytes.NewReader(body))
		if err != nil {
			tb.Fatal(err)
		}
		req.Header.Set("Depth", "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			tb.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusMultiStatus {
			tb.Fatalf("%s %s: %d %s %v", method, p, resp.StatusCode, b, err)
		}
		return b
	}
	selected := davproto.Propfind{Kind: davproto.PropfindProps,
		Props: []xml.Name{eccName("formula"), eccName("absent"), davproto.PropResourceType, eccName("geometry")}}
	return [][]byte{
		raw("PROPFIND", "/m", nil),
		raw("PROPFIND", "/m", davproto.MarshalPropfind(selected)),
		raw("PROPPATCH", "/m/a", davproto.MarshalProppatch([]davproto.PatchOp{
			{Prop: davproto.NewTextProperty(davproto.NS, "getetag", "x")},
			{Prop: davproto.NewTextProperty("ecce:", "charge", "2")},
		})),
		raw("REPORT", "/m/a", xmldom.MarshalDocument(xmldom.NewElement(davproto.NS, "version-tree"))),
		raw("SEARCH", "/m", davproto.MarshalSearch(davproto.BasicSearch{
			Select: []xml.Name{eccName("formula")}, Scope: "/m", Depth: davproto.DepthInfinity})),
	}
}

// multistatusDiff describes the first difference between two parsed
// 207s in hrefs, statuses, or a property's name, text or encoding; ""
// when there is none.
func multistatusDiff(a, b davproto.Multistatus) string {
	if len(a.Responses) != len(b.Responses) {
		return fmt.Sprintf("%d responses against %d", len(a.Responses), len(b.Responses))
	}
	for i, ra := range a.Responses {
		rb := b.Responses[i]
		if ra.Href != rb.Href || ra.Status != rb.Status || len(ra.Propstats) != len(rb.Propstats) {
			return fmt.Sprintf("response %d: (%q, %d, %d propstats) against (%q, %d, %d propstats)",
				i, ra.Href, ra.Status, len(ra.Propstats), rb.Href, rb.Status, len(rb.Propstats))
		}
		for j, pa := range ra.Propstats {
			pb := rb.Propstats[j]
			if pa.Status != pb.Status || len(pa.Props) != len(pb.Props) {
				return fmt.Sprintf("response %d propstat %d: (%d, %d props) against (%d, %d props)",
					i, j, pa.Status, len(pa.Props), pb.Status, len(pb.Props))
			}
			for k, x := range pa.Props {
				y := pb.Props[k]
				if x.Name() != y.Name() || x.Text() != y.Text() || !bytes.Equal(x.Encode(), y.Encode()) {
					return fmt.Sprintf("response %d propstat %d property %d: %s against %s", i, j, k, x.Encode(), y.Encode())
				}
			}
		}
	}
	return ""
}

// BenchmarkParseMultistatus reads propfind_sweep's 207 (5 of 50
// properties of 1 KiB on a collection and its 50 documents, as davd
// writes it) and looks up the 5 values of each response as the
// benchmark's check does: the streaming reader against the DOM arm.
func BenchmarkParseMultistatus(b *testing.B) {
	srv := httptest.NewServer(davserver.NewHandler(store.NewMemStore(), nil))
	defer srv.Close()
	c, err := New(Config{BaseURL: srv.URL})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	c.Mkcol("/data")
	for r := 0; r <= 50; r++ {
		href := "/data"
		if r > 0 {
			href = fmt.Sprintf("/data/doc%02d.dat", r-1)
			c.PutBytes(href, []byte("b"), "")
		}
		props := make([]davproto.Property, 50)
		for p := range props {
			v := strings.Repeat(alnum[(r+p)%len(alnum):]+alnum, 17)[:1024]
			props[p] = davproto.NewTextProperty("bench:", fmt.Sprintf("p%02d", p), v)
		}
		if err := c.SetProps(href, props...); err != nil {
			b.Fatal(err)
		}
	}
	var names []xml.Name
	for _, p := range []int{3, 11, 17, 29, 42} {
		names = append(names, xml.Name{Space: "bench:", Local: fmt.Sprintf("p%02d", p)})
	}
	req, _ := http.NewRequest("PROPFIND", srv.URL+"/data", bytes.NewReader(davproto.MarshalPropfind(
		davproto.Propfind{Kind: davproto.PropfindProps, Props: names})))
	req.Header.Set("Depth", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, arm := range []struct {
		name  string
		parse func(io.Reader) (davproto.Multistatus, error)
	}{{"SAX", parseMultistatusSAX}, {"DOM", davproto.ParseMultistatus}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				ms, err := arm.parse(bytes.NewReader(body))
				if err != nil || len(ms.Responses) != 51 {
					b.Fatalf("%d responses, %v", len(ms.Responses), err)
				}
				for _, r := range ms.Responses {
					props := davproto.PropsByName(r.Propstats)
					for _, n := range names {
						if len(props[n].Text()) != 1024 {
							b.Fatalf("%s: %v is %q", r.Href, n, props[n].Text())
						}
					}
				}
			}
		})
	}
}
