package davclient

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/auth"
	"repro/internal/davproto"
	"repro/internal/davserver"
	"repro/internal/store"
	"repro/internal/xmldom"
)

// newPair spins up an in-memory DAV server and a client against it.
func newPair(t *testing.T, cfg Config) *Client {
	t.Helper()
	h := davserver.NewHandler(store.NewMemStore(), nil)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	cfg.BaseURL = srv.URL
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// eachParser runs the test under both multistatus parsers.
func eachParser(t *testing.T, fn func(t *testing.T, c *Client)) {
	t.Helper()
	t.Run("DOM", func(t *testing.T) { fn(t, newPair(t, Config{Parser: ParserDOM, Persistent: true})) })
	t.Run("SAX", func(t *testing.T) { fn(t, newPair(t, Config{Parser: ParserSAX, Persistent: true})) })
}

func eccName(local string) xml.Name { return xml.Name{Space: "ecce:", Local: local} }

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{BaseURL: "not a url ::"}); err == nil {
		t.Fatal("bad URL accepted")
	}
	if _, err := New(Config{BaseURL: "/relative"}); err == nil {
		t.Fatal("relative URL accepted")
	}
}

func TestOptions(t *testing.T) {
	c := newPair(t, Config{})
	dav, err := c.Options("/")
	if err != nil || !strings.HasPrefix(dav, "1,2") {
		t.Fatalf("Options = (%q, %v)", dav, err)
	}
}

func TestPutGetDeleteRoundTrip(t *testing.T) {
	c := newPair(t, Config{})
	created, err := c.PutBytes("/doc.txt", []byte("hello"), "text/plain")
	if err != nil || !created {
		t.Fatalf("Put = (%v, %v)", created, err)
	}
	created, err = c.PutBytes("/doc.txt", []byte("bye"), "")
	if err != nil || created {
		t.Fatalf("replace Put = (%v, %v)", created, err)
	}
	body, err := c.Get("/doc.txt")
	if err != nil || string(body) != "bye" {
		t.Fatalf("Get = (%q, %v)", body, err)
	}
	ok, err := c.Exists("/doc.txt")
	if err != nil || !ok {
		t.Fatalf("Exists = (%v, %v)", ok, err)
	}
	if err := c.Delete("/doc.txt"); err != nil {
		t.Fatal(err)
	}
	ok, err = c.Exists("/doc.txt")
	if err != nil || ok {
		t.Fatalf("Exists after delete = (%v, %v)", ok, err)
	}
	if _, err := c.Get("/doc.txt"); !IsStatus(err, http.StatusNotFound) {
		t.Fatalf("Get deleted = %v", err)
	}
}

// fillBody is a response body of left bytes that fills every slice it
// is given.
type fillBody struct{ left int }

func (b *fillBody) Read(p []byte) (int, error) {
	if b.left == 0 {
		return 0, io.EOF
	}
	n := min(len(p), b.left)
	b.left -= n
	return n, nil
}

func (b *fillBody) Close() error { return nil }

// fillTransport answers every request 200 with a fillBody of its size.
type fillTransport int

func (n fillTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: &fillBody{left: int(n)}, Request: req}, nil
}

// writeCounter counts Write calls; it has no ReadFrom.
type writeCounter struct{ writes, bytes int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// TestGetToReadsInLargeSteps: GetTo hands a writer without ReadFrom the
// body in getBufSize steps (io.Copy's would be 32 KiB), and a writer
// with one, as Get's buffer, still gets the whole body through it.
func TestGetToReadsInLargeSteps(t *testing.T) {
	const n = 8 << 20
	c, err := New(Config{BaseURL: "http://stub.test", Transport: fillTransport(n)})
	if err != nil {
		t.Fatal(err)
	}
	var w writeCounter
	if got, err := c.GetTo("/doc", &w); err != nil || got != n || w.bytes != n {
		t.Fatalf("GetTo = (%d, %v), writer saw %d bytes, want %d", got, err, w.bytes, n)
	}
	if want := (n + getBufSize - 1) / getBufSize; w.writes != want {
		t.Errorf("%d-byte GetTo made %d Writes, want %d", n, w.writes, want)
	}
	if body, err := c.Get("/doc"); err != nil || len(body) != n {
		t.Fatalf("Get = (%d bytes, %v), want %d", len(body), err, n)
	}
}

// TestGetETag: GetETag returns the body and the ETag it was served
// under, which an overwrite of the same size changes, and Get the same
// body; a failed GET is its StatusError.
func TestGetETag(t *testing.T) {
	c := newPair(t, Config{Persistent: true})
	var etags []string
	for _, body := range []string{"version one", "version two"} {
		if _, err := c.PutBytes("/doc", []byte(body), ""); err != nil {
			t.Fatal(err)
		}
		got, etag, err := c.GetETag("/doc")
		if err != nil || string(got) != body || etag == "" {
			t.Fatalf("GetETag = %q, %q, %v; want %q under an ETag", got, etag, err, body)
		}
		if plain, err := c.Get("/doc"); err != nil || string(plain) != body {
			t.Fatalf("Get = %q, %v", plain, err)
		}
		etags = append(etags, etag)
	}
	if etags[0] == etags[1] {
		t.Errorf("both bodies were served under %s", etags[0])
	}
	if _, _, err := c.GetETag("/missing"); !IsStatus(err, http.StatusNotFound) {
		t.Errorf("GetETag of a missing document: %v, want 404", err)
	}
}

func TestMkcolAll(t *testing.T) {
	c := newPair(t, Config{})
	if err := c.MkcolAll("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/a", "/a/b", "/a/b/c"} {
		if ok, _ := c.Exists(p); !ok {
			t.Fatalf("%s missing", p)
		}
	}
	// Idempotent.
	if err := c.MkcolAll("/a/b/c"); err != nil {
		t.Fatal(err)
	}
}

func TestSetGetProps(t *testing.T) {
	eachParser(t, func(t *testing.T, c *Client) {
		c.PutBytes("/m.xyz", []byte("geom"), "")
		err := c.SetProps("/m.xyz",
			davproto.NewTextProperty("ecce:", "formula", "UO2H30O15"),
			davproto.NewTextProperty("ecce:", "charge", "2"))
		if err != nil {
			t.Fatal(err)
		}
		p, ok, err := c.GetProp("/m.xyz", eccName("formula"))
		if err != nil || !ok || p.Text() != "UO2H30O15" {
			t.Fatalf("GetProp = (%v, %v, %v)", p, ok, err)
		}
		_, ok, err = c.GetProp("/m.xyz", eccName("nothere"))
		if err != nil || ok {
			t.Fatalf("missing prop = (%v, %v)", ok, err)
		}
		if err := c.RemoveProps("/m.xyz", eccName("charge")); err != nil {
			t.Fatal(err)
		}
		_, ok, _ = c.GetProp("/m.xyz", eccName("charge"))
		if ok {
			t.Fatal("removed prop still present")
		}
	})
}

func TestComplexPropertyValueRoundTrip(t *testing.T) {
	eachParser(t, func(t *testing.T, c *Client) {
		c.PutBytes("/mol", []byte("x"), "")
		// Build <ecce:geometry>center<ecce:atom sym="U"/><ecce:atom sym="O"/></ecce:geometry>
		geom := xmldom.NewTextElement("ecce:", "geometry", "center")
		geom.Add("ecce:", "atom").SetAttr("", "sym", "U")
		geom.Add("ecce:", "atom").SetAttr("", "sym", "O")
		if err := c.SetProps("/mol", davproto.NewNodeProperty(geom)); err != nil {
			t.Fatal(err)
		}
		got, ok, err := c.GetProp("/mol", eccName("geometry"))
		if err != nil || !ok {
			t.Fatalf("GetProp: ok=%v err=%v", ok, err)
		}
		atoms := got.Node().FindAll("ecce:", "atom")
		if len(atoms) != 2 {
			t.Fatalf("atoms = %d", len(atoms))
		}
		if sym, _ := atoms[0].Attr("", "sym"); sym != "U" {
			t.Fatalf("atom[0] sym = %q", sym)
		}
		if !strings.Contains(got.Text(), "center") {
			t.Fatalf("mixed text lost: %q", got.Text())
		}
	})
}

func TestPropFindDepth1(t *testing.T) {
	eachParser(t, func(t *testing.T, c *Client) {
		c.Mkcol("/col")
		for i := 0; i < 5; i++ {
			p := fmt.Sprintf("/col/doc%d", i)
			c.PutBytes(p, []byte("x"), "")
			c.SetProps(p, davproto.NewTextProperty("ecce:", "idx", fmt.Sprint(i)))
		}
		ms, err := c.PropFindSelected("/col", davproto.Depth1, eccName("idx"))
		if err != nil {
			t.Fatal(err)
		}
		if len(ms.Responses) != 6 {
			t.Fatalf("responses = %d, want 6", len(ms.Responses))
		}
		found := 0
		for _, r := range ms.Responses {
			if p, ok := davproto.PropsByName(r.Propstats)[eccName("idx")]; ok {
				found++
				if p.Text() == "" {
					t.Fatalf("empty idx on %s", r.Href)
				}
			}
		}
		if found != 5 {
			t.Fatalf("found idx on %d resources, want 5", found)
		}
	})
}

func TestPropFindNames(t *testing.T) {
	eachParser(t, func(t *testing.T, c *Client) {
		c.PutBytes("/n", []byte("x"), "")
		c.SetProps("/n", davproto.NewTextProperty("ecce:", "alpha", "1"))
		ms, err := c.PropFindNames("/n", davproto.Depth0)
		if err != nil {
			t.Fatal(err)
		}
		props := davproto.PropsByName(ms.Responses[0].Propstats)
		if _, ok := props[eccName("alpha")]; !ok {
			t.Fatal("propname missing alpha")
		}
	})
}

func TestParserEquivalence(t *testing.T) {
	// DOM and SAX must produce identical structures for the same
	// server state.
	h := davserver.NewHandler(store.NewMemStore(), nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	dom, _ := New(Config{BaseURL: srv.URL, Parser: ParserDOM})
	sax, _ := New(Config{BaseURL: srv.URL, Parser: ParserSAX})
	defer dom.Close()
	defer sax.Close()

	dom.Mkcol("/eq")
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf("/eq/d%d", i)
		dom.PutBytes(p, bytes.Repeat([]byte{'x'}, i*10), "")
		dom.SetProps(p,
			davproto.NewTextProperty("ecce:", "idx", fmt.Sprint(i)),
			davproto.NewTextProperty("ecce:", "sq", fmt.Sprint(i*i)))
	}
	msDOM, err := dom.PropFindSelected("/eq", davproto.Depth1, eccName("idx"), eccName("sq"), eccName("absent"))
	if err != nil {
		t.Fatal(err)
	}
	msSAX, err := sax.PropFindSelected("/eq", davproto.Depth1, eccName("idx"), eccName("sq"), eccName("absent"))
	if err != nil {
		t.Fatal(err)
	}
	if len(msDOM.Responses) != len(msSAX.Responses) {
		t.Fatalf("response counts differ: %d vs %d", len(msDOM.Responses), len(msSAX.Responses))
	}
	for i := range msDOM.Responses {
		d, s := msDOM.Responses[i], msSAX.Responses[i]
		if d.Href != s.Href || len(d.Propstats) != len(s.Propstats) {
			t.Fatalf("response %d differs: %+v vs %+v", i, d, s)
		}
		for j := range d.Propstats {
			dp, sp := d.Propstats[j], s.Propstats[j]
			if dp.Status != sp.Status || len(dp.Props) != len(sp.Props) {
				t.Fatalf("propstat %d/%d differs", i, j)
			}
			for k := range dp.Props {
				if dp.Props[k].Name() != sp.Props[k].Name() ||
					strings.TrimSpace(dp.Props[k].Text()) != strings.TrimSpace(sp.Props[k].Text()) {
					t.Fatalf("prop %v differs: %q vs %q",
						dp.Props[k].Name(), dp.Props[k].Text(), sp.Props[k].Text())
				}
			}
		}
	}
}

func TestCopyMove(t *testing.T) {
	c := newPair(t, Config{})
	c.Mkcol("/src")
	c.PutBytes("/src/a", []byte("1"), "")
	if err := c.Copy("/src", "/cp", davproto.DepthInfinity, false); err != nil {
		t.Fatal(err)
	}
	if b, _ := c.Get("/cp/a"); string(b) != "1" {
		t.Fatal("copy lost body")
	}
	// Copy without overwrite onto an existing target fails with 412.
	if err := c.Copy("/src", "/cp", davproto.DepthInfinity, false); !IsStatus(err, http.StatusPreconditionFailed) {
		t.Fatalf("copy no-overwrite = %v", err)
	}
	if err := c.Move("/src", "/mv", false); err != nil {
		t.Fatal(err)
	}
	if ok, _ := c.Exists("/src"); ok {
		t.Fatal("move left source")
	}
	if b, _ := c.Get("/mv/a"); string(b) != "1" {
		t.Fatal("move lost body")
	}
}

func TestLockWorkflow(t *testing.T) {
	c := newPair(t, Config{})
	c.PutBytes("/locked", []byte("v1"), "")
	al, err := c.Lock("/locked", davproto.LockExclusive, davproto.Depth0, "tester", 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if al.Token == "" || al.Timeout != 60*time.Second {
		t.Fatalf("activelock = %+v", al)
	}
	// Unauthorized write fails.
	if _, err := c.PutBytes("/locked", []byte("v2"), ""); !IsStatus(err, http.StatusLocked) {
		t.Fatalf("unauthorized put = %v", err)
	}
	// Authorized via LockedClient.
	lc := c.WithIf(al.Token)
	if _, err := lc.Put("/locked", strings.NewReader("v2"), ""); err != nil {
		t.Fatal(err)
	}
	if err := lc.SetProps("/locked", davproto.NewTextProperty("ecce:", "k", "v")); err != nil {
		t.Fatal(err)
	}
	// Refresh.
	al2, err := c.RefreshLock("/locked", al.Token, 120*time.Second)
	if err != nil || al2.Timeout != 120*time.Second {
		t.Fatalf("refresh = (%+v, %v)", al2, err)
	}
	// Unlock.
	if err := c.Unlock("/locked", al.Token); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PutBytes("/locked", []byte("v3"), ""); err != nil {
		t.Fatalf("put after unlock: %v", err)
	}
}

func TestStatLiveProps(t *testing.T) {
	c := newPair(t, Config{})
	c.PutBytes("/s.txt", []byte("12345"), "text/plain")
	props, err := c.Stat("/s.txt")
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := props[davproto.PropGetContentLength]; !ok || p.Text() != "5" {
		t.Fatalf("getcontentlength = %+v, ok=%v", p, ok)
	}
}

func TestBasicAuthClient(t *testing.T) {
	users := auth.NewUsers()
	users.Set("eric", "pw")
	h := auth.Basic(davserver.NewHandler(store.NewMemStore(), nil), "Ecce", users)
	srv := httptest.NewServer(h)
	defer srv.Close()

	good, _ := New(Config{BaseURL: srv.URL, Username: "eric", Password: "pw"})
	defer good.Close()
	if _, err := good.PutBytes("/ok", []byte("x"), ""); err != nil {
		t.Fatalf("authenticated put: %v", err)
	}
	bad, _ := New(Config{BaseURL: srv.URL, Username: "eric", Password: "nope"})
	defer bad.Close()
	if _, err := bad.PutBytes("/no", []byte("x"), ""); !IsStatus(err, http.StatusUnauthorized) {
		t.Fatalf("bad credentials = %v", err)
	}
}

func TestRequestCountAndConnectionPolicies(t *testing.T) {
	for _, persistent := range []bool{true, false} {
		c := newPair(t, Config{Persistent: persistent})
		c.PutBytes("/r1", []byte("x"), "")
		c.Get("/r1")
		c.Delete("/r1")
		if got := c.RequestCount(); got != 3 {
			t.Fatalf("persistent=%v RequestCount = %d, want 3", persistent, got)
		}
	}
}

func TestBaseURLWithPathPrefix(t *testing.T) {
	h := davserver.NewHandler(store.NewMemStore(), &davserver.Options{Prefix: "/dav"})
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, err := New(Config{BaseURL: srv.URL + "/dav/"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.PutBytes("/doc", []byte("x"), ""); err != nil {
		t.Fatal(err)
	}
	b, err := c.Get("/doc")
	if err != nil || string(b) != "x" {
		t.Fatalf("prefixed Get = (%q, %v)", b, err)
	}
}

// TestPathOf: an href of a 207, as Apache or davd may write it, maps
// back to the path a caller requests the resource by.
func TestPathOf(t *testing.T) {
	for _, tc := range []struct{ base, href, want string }{
		{"http://h", "/p/c/molecule", "/p/c/molecule"},
		{"http://h", "/", "/"},
		{"http://h/dav/", "/dav/p/c", "/p/c"},
		{"http://h/dav", "/dav", "/"},
		{"http://h/dav", "/dav/", "/"},
		{"http://h/dav", "/davx/p", "/davx/p"},
		{"http://h/dav", "/other/p", "/other/p"},
		{"http://h", "/p/my%20calc/molecule", "/p/my calc/molecule"},
		{"http://h/my%20dav", "/my%20dav/p/r%C3%A9sum%C3%A9", "/p/résumé"},
		{"http://h/dav", "http://h/dav/p/c/basis", "/p/c/basis"},
		{"http://h/dav", "https://mirror:8443/dav/p/a%26b", "/p/a&b"},
		{"http://h/dav", "http://h", "/"},
		// davd writes its hrefs unencoded.
		{"http://h", "/p/my calc & co/molecule", "/p/my calc & co/molecule"},
		{"http://h", "/p/calc #3?/basis", "/p/calc #3?/basis"},
		{"http://h", "/p/100%/job", "/p/100%/job"},
	} {
		c, err := New(Config{BaseURL: tc.base})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.PathOf(tc.href); got != tc.want {
			t.Errorf("base %s: PathOf(%q) = %q, want %q", tc.base, tc.href, got, tc.want)
		}
		c.Close()
	}
}

// TestQuickSAXParserMatchesDOM feeds both parsers random multistatus
// documents and requires identical results.
func TestQuickSAXParserMatchesDOM(t *testing.T) {
	statuses := []int{200, 404, 423}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ms davproto.Multistatus
		for i := rng.Intn(4) + 1; i > 0; i-- {
			r := davproto.Response{Href: fmt.Sprintf("/r%d", rng.Intn(100))}
			for j := rng.Intn(3); j > 0; j-- {
				ps := davproto.Propstat{Status: statuses[rng.Intn(len(statuses))]}
				for k := rng.Intn(3) + 1; k > 0; k-- {
					n := xmldom.NewTextElement("ecce:", fmt.Sprintf("p%d", k), fmt.Sprintf("v%d", rng.Intn(50)))
					if rng.Intn(3) == 0 {
						n.AddText("ecce:", "child", "nested")
					}
					ps.Props = append(ps.Props, davproto.NewNodeProperty(n))
				}
				r.Propstats = append(r.Propstats, ps)
			}
			if len(r.Propstats) == 0 {
				r.Status = statuses[rng.Intn(len(statuses))]
			}
			ms.Responses = append(ms.Responses, r)
		}
		doc := ms.Marshal()
		gotDOM, err1 := davproto.ParseMultistatus(bytes.NewReader(doc))
		gotSAX, err2 := parseMultistatusSAX(bytes.NewReader(doc))
		if err1 != nil || err2 != nil {
			t.Logf("parse errors: %v / %v", err1, err2)
			return false
		}
		if diff := multistatusDiff(gotDOM, gotSAX); diff != "" {
			t.Log(diff)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
