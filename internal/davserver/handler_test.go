package davserver

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/auth"
	"repro/internal/davproto"
	"repro/internal/dbm"
	"repro/internal/store"
	"repro/internal/xmldom"
)

// newTestServer returns an httptest server over a fresh store.
func newTestServer(t *testing.T, opts *Options) (*httptest.Server, *Handler) {
	t.Helper()
	s, err := store.NewFSStore(t.TempDir(), dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(s, opts)
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return srv, h
}

// do issues a raw DAV request.
func do(t *testing.T, method, url string, headers map[string]string, body string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func wantStatus(t *testing.T, resp *http.Response, want int) {
	t.Helper()
	if resp.StatusCode != want {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s %s = %d, want %d\nbody: %s",
			resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, want, b)
	}
}

func TestOptionsAdvertisesDAV(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	resp := do(t, "OPTIONS", srv.URL+"/", nil, "")
	wantStatus(t, resp, 200)
	if dav := resp.Header.Get("DAV"); !strings.HasPrefix(dav, "1,2") {
		t.Fatalf("DAV header = %q", dav)
	}
	for _, m := range []string{"PROPFIND", "PROPPATCH", "LOCK", "COPY"} {
		if !strings.Contains(resp.Header.Get("Allow"), m) {
			t.Fatalf("Allow missing %s: %q", m, resp.Header.Get("Allow"))
		}
	}
}

func TestPutGetDeleteCycle(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	resp := do(t, "PUT", srv.URL+"/doc.txt", map[string]string{"Content-Type": "text/plain"}, "hello dav")
	wantStatus(t, resp, 201)

	resp = do(t, "PUT", srv.URL+"/doc.txt", nil, "updated")
	wantStatus(t, resp, 204)

	resp = do(t, "GET", srv.URL+"/doc.txt", nil, "")
	wantStatus(t, resp, 200)
	b, _ := io.ReadAll(resp.Body)
	if string(b) != "updated" {
		t.Fatalf("GET body = %q", b)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if resp.Header.Get("ETag") == "" || resp.Header.Get("Last-Modified") == "" {
		t.Fatal("missing caching headers")
	}

	resp = do(t, "DELETE", srv.URL+"/doc.txt", nil, "")
	wantStatus(t, resp, 204)
	resp = do(t, "GET", srv.URL+"/doc.txt", nil, "")
	wantStatus(t, resp, 404)
	resp = do(t, "DELETE", srv.URL+"/doc.txt", nil, "")
	wantStatus(t, resp, 404)
}

func TestHeadMatchesGet(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "PUT", srv.URL+"/h.bin", nil, "12345")
	resp := do(t, "HEAD", srv.URL+"/h.bin", nil, "")
	wantStatus(t, resp, 200)
	if cl := resp.Header.Get("Content-Length"); cl != "5" {
		t.Fatalf("HEAD Content-Length = %q", cl)
	}
	b, _ := io.ReadAll(resp.Body)
	if len(b) != 0 {
		t.Fatalf("HEAD body = %q", b)
	}
}

// TestIfNoneMatch: GET and HEAD parse If-None-Match the way PUT and
// DELETE do — lists, "*" and weak validators — and a 304 carries the
// ETag it matched.
func TestIfNoneMatch(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	url := srv.URL + "/e.txt"
	do(t, "PUT", url, nil, "etag me")
	etag := etagOf(t, url)
	cases := []struct {
		name, header string
		want         int
	}{
		{"single", etag, 304},
		{"list", `"a", ` + etag + `, "b"`, 304},
		{"star", "*", 304},
		{"weak", "W/" + etag, 304},
		{"mismatch", `"nope"`, 200},
		{"mismatched list", `"a", W/"b"`, 200},
	}
	for _, method := range []string{"GET", "HEAD"} {
		for _, tc := range cases {
			resp := do(t, method, url, map[string]string{"If-None-Match": tc.header}, "")
			if resp.StatusCode != tc.want {
				t.Errorf("%s If-None-Match %s (%s): status %d, want %d",
					method, tc.name, tc.header, resp.StatusCode, tc.want)
			}
			if got := resp.Header.Get("ETag"); got != etag {
				t.Errorf("%s If-None-Match %s: ETag %q on the %d, want %q",
					method, tc.name, got, resp.StatusCode, etag)
			}
		}
	}
}

func TestPutConflictWithoutParent(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	resp := do(t, "PUT", srv.URL+"/no/parent/doc", nil, "x")
	wantStatus(t, resp, 409)
}

func TestMkcolSemanticsHTTP(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	wantStatus(t, do(t, "MKCOL", srv.URL+"/proj", nil, ""), 201)
	wantStatus(t, do(t, "MKCOL", srv.URL+"/proj", nil, ""), 405)
	wantStatus(t, do(t, "MKCOL", srv.URL+"/a/b/c", nil, ""), 409)
	wantStatus(t, do(t, "MKCOL", srv.URL+"/body", nil, "<x/>"), 415)
	// PUT into the new collection works.
	wantStatus(t, do(t, "PUT", srv.URL+"/proj/doc", nil, "d"), 201)
	// GET on a collection returns an HTML index.
	resp := do(t, "GET", srv.URL+"/proj", nil, "")
	wantStatus(t, resp, 200)
	b, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(b), "doc") {
		t.Fatalf("index missing member: %s", b)
	}
}

func TestDeleteCollectionRecursive(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "MKCOL", srv.URL+"/tree", nil, "")
	do(t, "MKCOL", srv.URL+"/tree/sub", nil, "")
	do(t, "PUT", srv.URL+"/tree/sub/leaf", nil, "x")
	wantStatus(t, do(t, "DELETE", srv.URL+"/tree", nil, ""), 204)
	wantStatus(t, do(t, "GET", srv.URL+"/tree/sub/leaf", nil, ""), 404)
	wantStatus(t, do(t, "DELETE", srv.URL+"/", nil, ""), 403)
}

func proppatchBody(sets map[string]string) string {
	var ops []davproto.PatchOp
	for k, v := range sets {
		ops = append(ops, davproto.PatchOp{Prop: davproto.NewTextProperty("ecce:", k, v)})
	}
	return string(davproto.MarshalProppatch(ops))
}

func propfindBody(names ...string) string {
	pf := davproto.Propfind{Kind: davproto.PropfindProps}
	for _, n := range names {
		pf.Props = append(pf.Props, xml.Name{Space: "ecce:", Local: n})
	}
	return string(davproto.MarshalPropfind(pf))
}

func parseMS(t *testing.T, resp *http.Response) davproto.Multistatus {
	t.Helper()
	ms, err := davproto.ParseMultistatus(resp.Body)
	if err != nil {
		t.Fatalf("parse multistatus: %v", err)
	}
	return ms
}

func TestProppatchAndPropfind(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "PUT", srv.URL+"/m.xyz", nil, "geometry")

	resp := do(t, "PROPPATCH", srv.URL+"/m.xyz", nil,
		proppatchBody(map[string]string{"formula": "UO2H30O15", "charge": "2"}))
	wantStatus(t, resp, 207)
	ms := parseMS(t, resp)
	if len(ms.Responses) != 1 || ms.Responses[0].Propstats[0].Status != 200 {
		t.Fatalf("proppatch ms = %+v", ms)
	}

	resp = do(t, "PROPFIND", srv.URL+"/m.xyz", map[string]string{"Depth": "0"},
		propfindBody("formula", "missing"))
	wantStatus(t, resp, 207)
	ms = parseMS(t, resp)
	if len(ms.Responses) != 1 {
		t.Fatalf("responses = %d", len(ms.Responses))
	}
	found := davproto.PropsByName(ms.Responses[0].Propstats)
	if p, ok := found[xml.Name{Space: "ecce:", Local: "formula"}]; !ok || p.Text() != "UO2H30O15" {
		t.Fatalf("formula = %+v, ok=%v", p, ok)
	}
	// The missing property must be reported under a 404 propstat.
	saw404 := false
	for _, ps := range ms.Responses[0].Propstats {
		if ps.Status == 404 {
			saw404 = true
			if len(ps.Props) != 1 || ps.Props[0].Name().Local != "missing" {
				t.Fatalf("404 propstat = %+v", ps)
			}
		}
	}
	if !saw404 {
		t.Fatal("missing property not reported as 404")
	}
}

func TestProppatchRemove(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "PUT", srv.URL+"/r.txt", nil, "x")
	do(t, "PROPPATCH", srv.URL+"/r.txt", nil, proppatchBody(map[string]string{"k": "v"}))
	body := string(davproto.MarshalProppatch([]davproto.PatchOp{
		{Remove: true, Prop: davproto.NewTextProperty("ecce:", "k", "")},
	}))
	resp := do(t, "PROPPATCH", srv.URL+"/r.txt", nil, body)
	wantStatus(t, resp, 207)
	resp = do(t, "PROPFIND", srv.URL+"/r.txt", map[string]string{"Depth": "0"}, propfindBody("k"))
	ms := parseMS(t, resp)
	if ms.Responses[0].Propstats[0].Status != 404 {
		t.Fatalf("removed property still present: %+v", ms.Responses[0])
	}
}

func TestProppatchAtomicity(t *testing.T) {
	// A PROPPATCH containing a protected-property write must apply
	// nothing; valid ops report 424.
	srv, _ := newTestServer(t, nil)
	do(t, "PUT", srv.URL+"/a.txt", nil, "x")
	ops := []davproto.PatchOp{
		{Prop: davproto.NewTextProperty("ecce:", "good", "v")},
		{Prop: davproto.NewTextProperty(davproto.NS, "getcontentlength", "999")},
	}
	resp := do(t, "PROPPATCH", srv.URL+"/a.txt", nil, string(davproto.MarshalProppatch(ops)))
	wantStatus(t, resp, 207)
	ms := parseMS(t, resp)
	statuses := map[string]int{}
	for _, ps := range ms.Responses[0].Propstats {
		for _, p := range ps.Props {
			statuses[p.Name().Local] = ps.Status
		}
	}
	if statuses["good"] != 424 {
		t.Fatalf("good prop status = %d, want 424", statuses["good"])
	}
	if statuses["getcontentlength"] != 409 {
		t.Fatalf("protected prop status = %d, want 409", statuses["getcontentlength"])
	}
	// Nothing was applied.
	resp = do(t, "PROPFIND", srv.URL+"/a.txt", map[string]string{"Depth": "0"}, propfindBody("good"))
	ms = parseMS(t, resp)
	if ms.Responses[0].Propstats[0].Status != 404 {
		t.Fatal("atomicity violated: good was applied")
	}
}

func TestProppatchSizeLimit(t *testing.T) {
	// The paper's configurable 10 MB property cap, tested with a small
	// limit.
	srv, _ := newTestServer(t, &Options{MaxPropBytes: 256})
	do(t, "PUT", srv.URL+"/cap.txt", nil, "x")
	big := strings.Repeat("v", 1024)
	resp := do(t, "PROPPATCH", srv.URL+"/cap.txt", nil,
		proppatchBody(map[string]string{"big": big}))
	wantStatus(t, resp, 207)
	ms := parseMS(t, resp)
	if ms.Responses[0].Propstats[0].Status != http.StatusInsufficientStorage {
		t.Fatalf("oversized prop status = %d, want 507", ms.Responses[0].Propstats[0].Status)
	}
	// Under the limit is fine.
	resp = do(t, "PROPPATCH", srv.URL+"/cap.txt", nil,
		proppatchBody(map[string]string{"small": "ok"}))
	ms = parseMS(t, resp)
	if ms.Responses[0].Propstats[0].Status != 200 {
		t.Fatalf("small prop status = %d", ms.Responses[0].Propstats[0].Status)
	}
}

func TestPropfindDepths(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "MKCOL", srv.URL+"/c", nil, "")
	do(t, "PUT", srv.URL+"/c/one", nil, "1")
	do(t, "MKCOL", srv.URL+"/c/sub", nil, "")
	do(t, "PUT", srv.URL+"/c/sub/two", nil, "2")

	count := func(depth string) int {
		resp := do(t, "PROPFIND", srv.URL+"/c", map[string]string{"Depth": depth}, "")
		wantStatus(t, resp, 207)
		return len(parseMS(t, resp).Responses)
	}
	if n := count("0"); n != 1 {
		t.Fatalf("depth 0 = %d responses, want 1", n)
	}
	if n := count("1"); n != 3 {
		t.Fatalf("depth 1 = %d responses, want 3", n)
	}
	if n := count("infinity"); n != 4 {
		t.Fatalf("depth infinity = %d responses, want 4", n)
	}
	resp := do(t, "PROPFIND", srv.URL+"/c", map[string]string{"Depth": "bogus"}, "")
	wantStatus(t, resp, 400)
}

func TestPropfindAllpropIncludesLiveAndDead(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "PUT", srv.URL+"/al.txt", map[string]string{"Content-Type": "chemical/x-xyz"}, "atoms")
	do(t, "PROPPATCH", srv.URL+"/al.txt", nil, proppatchBody(map[string]string{"formula": "H2O"}))

	resp := do(t, "PROPFIND", srv.URL+"/al.txt", map[string]string{"Depth": "0"}, "")
	wantStatus(t, resp, 207)
	ms := parseMS(t, resp)
	props := davproto.PropsByName(ms.Responses[0].Propstats)
	if p, ok := props[davproto.PropGetContentLength]; !ok || p.Text() != "5" {
		t.Fatalf("getcontentlength = %+v ok=%v", p, ok)
	}
	if p, ok := props[davproto.PropGetContentType]; !ok || p.Text() != "chemical/x-xyz" {
		t.Fatalf("getcontenttype = %+v ok=%v", p, ok)
	}
	if p, ok := props[xml.Name{Space: "ecce:", Local: "formula"}]; !ok || p.Text() != "H2O" {
		t.Fatalf("formula = %+v ok=%v", p, ok)
	}
	if _, ok := props[davproto.PropResourceType]; !ok {
		t.Fatal("resourcetype missing")
	}
}

func TestPropfindResourceTypeCollection(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "MKCOL", srv.URL+"/col", nil, "")
	resp := do(t, "PROPFIND", srv.URL+"/col", map[string]string{"Depth": "0"}, "")
	ms := parseMS(t, resp)
	props := davproto.PropsByName(ms.Responses[0].Propstats)
	rt, ok := props[davproto.PropResourceType]
	if !ok || rt.XML.Find(davproto.NS, "collection") == nil {
		t.Fatalf("resourcetype = %+v", rt)
	}
	// Collections carry no getcontentlength.
	if _, ok := props[davproto.PropGetContentLength]; ok {
		t.Fatal("collection should not report getcontentlength")
	}
}

func TestPropfindPropname(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "PUT", srv.URL+"/pn.txt", nil, "x")
	do(t, "PROPPATCH", srv.URL+"/pn.txt", nil, proppatchBody(map[string]string{"formula": "H2O"}))
	body := `<D:propfind xmlns:D="DAV:"><D:propname/></D:propfind>`
	resp := do(t, "PROPFIND", srv.URL+"/pn.txt", map[string]string{"Depth": "0"}, body)
	ms := parseMS(t, resp)
	props := davproto.PropsByName(ms.Responses[0].Propstats)
	p, ok := props[xml.Name{Space: "ecce:", Local: "formula"}]
	if !ok {
		t.Fatal("propname missing formula")
	}
	if p.Text() != "" {
		t.Fatalf("propname leaked value %q", p.Text())
	}
}

func TestPropfindMissingResource(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	wantStatus(t, do(t, "PROPFIND", srv.URL+"/nope", map[string]string{"Depth": "0"}, ""), 404)
}

func TestCopySemantics(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "PUT", srv.URL+"/src.txt", nil, "payload")
	do(t, "PROPPATCH", srv.URL+"/src.txt", nil, proppatchBody(map[string]string{"k": "v"}))

	resp := do(t, "COPY", srv.URL+"/src.txt", map[string]string{"Destination": srv.URL + "/dst.txt"}, "")
	wantStatus(t, resp, 201)
	resp = do(t, "GET", srv.URL+"/dst.txt", nil, "")
	b, _ := io.ReadAll(resp.Body)
	if string(b) != "payload" {
		t.Fatalf("copied body = %q", b)
	}
	// Properties travel with the copy.
	resp = do(t, "PROPFIND", srv.URL+"/dst.txt", map[string]string{"Depth": "0"}, propfindBody("k"))
	ms := parseMS(t, resp)
	if ms.Responses[0].Propstats[0].Status != 200 {
		t.Fatal("property lost in copy")
	}
	// Overwrite: F on an existing destination.
	resp = do(t, "COPY", srv.URL+"/src.txt",
		map[string]string{"Destination": srv.URL + "/dst.txt", "Overwrite": "F"}, "")
	wantStatus(t, resp, 412)
	// Overwrite: T replaces and answers 204.
	resp = do(t, "COPY", srv.URL+"/src.txt",
		map[string]string{"Destination": srv.URL + "/dst.txt", "Overwrite": "T"}, "")
	wantStatus(t, resp, 204)
	// Missing Destination header.
	wantStatus(t, do(t, "COPY", srv.URL+"/src.txt", nil, ""), 400)
	// Copy onto itself.
	resp = do(t, "COPY", srv.URL+"/src.txt", map[string]string{"Destination": srv.URL + "/src.txt"}, "")
	wantStatus(t, resp, 403)
	// Destination parent missing.
	resp = do(t, "COPY", srv.URL+"/src.txt", map[string]string{"Destination": srv.URL + "/no/dst"}, "")
	wantStatus(t, resp, 409)
}

func TestCopyCollectionDepth(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "MKCOL", srv.URL+"/cc", nil, "")
	do(t, "PUT", srv.URL+"/cc/in", nil, "x")

	resp := do(t, "COPY", srv.URL+"/cc",
		map[string]string{"Destination": srv.URL + "/deep", "Depth": "infinity"}, "")
	wantStatus(t, resp, 201)
	wantStatus(t, do(t, "GET", srv.URL+"/deep/in", nil, ""), 200)

	resp = do(t, "COPY", srv.URL+"/cc",
		map[string]string{"Destination": srv.URL + "/shallow", "Depth": "0"}, "")
	wantStatus(t, resp, 201)
	wantStatus(t, do(t, "GET", srv.URL+"/shallow/in", nil, ""), 404)

	resp = do(t, "COPY", srv.URL+"/cc",
		map[string]string{"Destination": srv.URL + "/bad", "Depth": "1"}, "")
	wantStatus(t, resp, 400)

	// Copy into own subtree is forbidden.
	resp = do(t, "COPY", srv.URL+"/cc",
		map[string]string{"Destination": srv.URL + "/cc/inside"}, "")
	wantStatus(t, resp, 403)
}

func TestMoveSemantics(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "MKCOL", srv.URL+"/mv", nil, "")
	do(t, "PUT", srv.URL+"/mv/doc", nil, "data")
	resp := do(t, "MOVE", srv.URL+"/mv", map[string]string{"Destination": srv.URL + "/moved"}, "")
	wantStatus(t, resp, 201)
	wantStatus(t, do(t, "GET", srv.URL+"/mv/doc", nil, ""), 404)
	wantStatus(t, do(t, "GET", srv.URL+"/moved/doc", nil, ""), 200)
	// MOVE with Depth 0 is invalid.
	do(t, "PUT", srv.URL+"/single", nil, "x")
	resp = do(t, "MOVE", srv.URL+"/single",
		map[string]string{"Destination": srv.URL + "/s2", "Depth": "0"}, "")
	wantStatus(t, resp, 400)
}

func lockBody(scope string) string {
	return fmt.Sprintf(`<D:lockinfo xmlns:D="DAV:">
	  <D:lockscope><D:%s/></D:lockscope>
	  <D:locktype><D:write/></D:locktype>
	  <D:owner>tester</D:owner>
	</D:lockinfo>`, scope)
}

// lockToken acquires a lock and returns its token.
func lockToken(t *testing.T, url string, headers map[string]string, scope string) string {
	t.Helper()
	resp := do(t, "LOCK", url, headers, lockBody(scope))
	if resp.StatusCode != 200 && resp.StatusCode != 201 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("LOCK = %d: %s", resp.StatusCode, b)
	}
	tok := strings.Trim(resp.Header.Get("Lock-Token"), "<>")
	if tok == "" {
		t.Fatal("missing Lock-Token header")
	}
	return tok
}

func TestLockBlocksAndTokenUnblocks(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "PUT", srv.URL+"/locked.txt", nil, "v1")
	tok := lockToken(t, srv.URL+"/locked.txt", nil, "exclusive")

	// Write without the token is refused.
	wantStatus(t, do(t, "PUT", srv.URL+"/locked.txt", nil, "v2"), 423)
	wantStatus(t, do(t, "DELETE", srv.URL+"/locked.txt", nil, ""), 423)
	wantStatus(t, do(t, "PROPPATCH", srv.URL+"/locked.txt", nil,
		proppatchBody(map[string]string{"k": "v"})), 423)

	// With the token, the write succeeds.
	ifHdr := map[string]string{"If": "(<" + tok + ">)"}
	wantStatus(t, do(t, "PUT", srv.URL+"/locked.txt", ifHdr, "v2"), 204)

	// A second exclusive lock conflicts.
	resp := do(t, "LOCK", srv.URL+"/locked.txt", nil, lockBody("exclusive"))
	wantStatus(t, resp, 423)

	// UNLOCK releases.
	wantStatus(t, do(t, "UNLOCK", srv.URL+"/locked.txt",
		map[string]string{"Lock-Token": "<" + tok + ">"}, ""), 204)
	wantStatus(t, do(t, "PUT", srv.URL+"/locked.txt", nil, "v3"), 204)
}

func TestSharedLocksCoexist(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "PUT", srv.URL+"/sh.txt", nil, "x")
	tok1 := lockToken(t, srv.URL+"/sh.txt", nil, "shared")
	tok2 := lockToken(t, srv.URL+"/sh.txt", nil, "shared")
	if tok1 == tok2 {
		t.Fatal("shared locks must have distinct tokens")
	}
	// An exclusive lock now conflicts.
	wantStatus(t, do(t, "LOCK", srv.URL+"/sh.txt", nil, lockBody("exclusive")), 423)
	// Either shared holder can write.
	wantStatus(t, do(t, "PUT", srv.URL+"/sh.txt",
		map[string]string{"If": "(<" + tok2 + ">)"}, "y"), 204)
}

func TestDepthInfinityLockCoversChildren(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "MKCOL", srv.URL+"/proj", nil, "")
	do(t, "PUT", srv.URL+"/proj/doc", nil, "x")
	tok := lockToken(t, srv.URL+"/proj", map[string]string{"Depth": "infinity"}, "exclusive")
	wantStatus(t, do(t, "PUT", srv.URL+"/proj/doc", nil, "y"), 423)
	wantStatus(t, do(t, "PUT", srv.URL+"/proj/new", nil, "z"), 423)
	ifHdr := map[string]string{"If": "(<" + tok + ">)"}
	wantStatus(t, do(t, "PUT", srv.URL+"/proj/doc", ifHdr, "y"), 204)
}

func TestLockUnmappedURLCreatesResource(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	resp := do(t, "LOCK", srv.URL+"/fresh.txt", nil, lockBody("exclusive"))
	wantStatus(t, resp, 201)
	// The resource now exists (empty).
	g := do(t, "GET", srv.URL+"/fresh.txt", nil, "")
	wantStatus(t, g, 200)
	b, _ := io.ReadAll(g.Body)
	if len(b) != 0 {
		t.Fatalf("lock-null body = %q", b)
	}
}

func TestLockRefresh(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "PUT", srv.URL+"/ref.txt", nil, "x")
	tok := lockToken(t, srv.URL+"/ref.txt", map[string]string{"Timeout": "Second-60"}, "exclusive")
	resp := do(t, "LOCK", srv.URL+"/ref.txt", map[string]string{
		"If": "(<" + tok + ">)", "Timeout": "Second-3600"}, "")
	wantStatus(t, resp, 200)
	root, err := xmldom.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	al, err := davproto.ActiveLockFromXML(
		root.FindPath("DAV:|lockdiscovery", "DAV:|activelock"))
	if err != nil {
		t.Fatal(err)
	}
	if al.Timeout.Seconds() != 3600 {
		t.Fatalf("refreshed timeout = %v", al.Timeout)
	}
}

func TestUnlockUnknownToken(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "PUT", srv.URL+"/u.txt", nil, "x")
	resp := do(t, "UNLOCK", srv.URL+"/u.txt",
		map[string]string{"Lock-Token": "<opaquelocktoken:bogus>"}, "")
	wantStatus(t, resp, 409)
	wantStatus(t, do(t, "UNLOCK", srv.URL+"/u.txt", nil, ""), 400)
}

func TestLockDiscoveryProp(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "PUT", srv.URL+"/ld.txt", nil, "x")
	tok := lockToken(t, srv.URL+"/ld.txt", nil, "exclusive")
	body := `<D:propfind xmlns:D="DAV:"><D:prop><D:lockdiscovery/></D:prop></D:propfind>`
	resp := do(t, "PROPFIND", srv.URL+"/ld.txt", map[string]string{"Depth": "0"}, body)
	ms := parseMS(t, resp)
	props := davproto.PropsByName(ms.Responses[0].Propstats)
	ld, ok := props[davproto.PropLockDiscovery]
	if !ok {
		t.Fatal("no lockdiscovery prop")
	}
	al, err := davproto.ActiveLockFromXML(ld.XML.Find(davproto.NS, "activelock"))
	if err != nil || al.Token != tok {
		t.Fatalf("activelock = %+v, %v; want token %s", al, err, tok)
	}
}

func TestDeleteReleasesLocks(t *testing.T) {
	srv, h := newTestServer(t, nil)
	do(t, "PUT", srv.URL+"/d.txt", nil, "x")
	tok := lockToken(t, srv.URL+"/d.txt", nil, "exclusive")
	ifHdr := map[string]string{"If": "(<" + tok + ">)"}
	wantStatus(t, do(t, "DELETE", srv.URL+"/d.txt", ifHdr, ""), 204)
	if locks := h.Locks().LocksOn("/d.txt"); len(locks) != 0 {
		t.Fatalf("locks survive delete: %+v", locks)
	}
	// Re-created resource is writable without the old token.
	wantStatus(t, do(t, "PUT", srv.URL+"/d.txt", nil, "fresh"), 201)
}

func TestBasicAuthWrapping(t *testing.T) {
	s := store.NewMemStore()
	users := auth.NewUsers()
	users.Set("karen", "s3cret")
	h := auth.Basic(NewHandler(s, nil), "Ecce", users)
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp := do(t, "GET", srv.URL+"/", nil, "")
	wantStatus(t, resp, 401)
	if !strings.Contains(resp.Header.Get("WWW-Authenticate"), "Basic") {
		t.Fatal("missing challenge")
	}

	req, _ := http.NewRequest("PUT", srv.URL+"/ok.txt", strings.NewReader("x"))
	req.SetBasicAuth("karen", "s3cret")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != 201 {
		t.Fatalf("authenticated PUT = %d", r2.StatusCode)
	}

	req, _ = http.NewRequest("PUT", srv.URL+"/no.txt", strings.NewReader("x"))
	req.SetBasicAuth("karen", "wrong")
	r3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	if r3.StatusCode != 401 {
		t.Fatalf("bad password PUT = %d", r3.StatusCode)
	}
}

func TestPrefixStripping(t *testing.T) {
	s := store.NewMemStore()
	h := NewHandler(s, &Options{Prefix: "/dav"})
	srv := httptest.NewServer(h)
	defer srv.Close()
	wantStatus(t, do(t, "PUT", srv.URL+"/dav/doc.txt", nil, "x"), 201)
	// Hrefs in multistatus include the prefix.
	resp := do(t, "PROPFIND", srv.URL+"/dav/doc.txt", map[string]string{"Depth": "0"}, "")
	ms := parseMS(t, resp)
	if ms.Responses[0].Href != "/dav/doc.txt" {
		t.Fatalf("href = %q", ms.Responses[0].Href)
	}
	// Outside the prefix is rejected.
	wantStatus(t, do(t, "GET", srv.URL+"/other", nil, ""), 400)
}

func TestEscapedURLPaths(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	wantStatus(t, do(t, "MKCOL", srv.URL+"/my%20calc", nil, ""), 201)
	wantStatus(t, do(t, "PUT", srv.URL+"/my%20calc/input%20deck.nw", nil, "x"), 201)
	wantStatus(t, do(t, "GET", srv.URL+"/my%20calc/input%20deck.nw", nil, ""), 200)
}

func TestLargeDocumentRoundTrip(t *testing.T) {
	// Scaled-down version of the paper's 200 MB document robustness
	// test (the full sizes run under eccebench robust).
	srv, _ := newTestServer(t, nil)
	big := bytes.Repeat([]byte{0x5A}, 4<<20)
	req, _ := http.NewRequest("PUT", srv.URL+"/big.bin", bytes.NewReader(big))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 201 {
		t.Fatalf("PUT big = %d", resp.StatusCode)
	}
	g := do(t, "GET", srv.URL+"/big.bin", nil, "")
	b, _ := io.ReadAll(g.Body)
	if !bytes.Equal(b, big) {
		t.Fatalf("large body mismatch: %d bytes", len(b))
	}
}

func TestUnsupportedMethod(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	wantStatus(t, do(t, "PATCH", srv.URL+"/x", nil, ""), 405)
}

// TestGetDescribesTheBodyItSends: under concurrent overwrites a GET's
// headers and body must come from one generation of the document. Two
// writers alternate bodies of different lengths; every read must carry
// a Content-Length equal to the bytes received, and no ETag may ever
// arrive with two different bodies. Run under -race.
func TestGetDescribesTheBodyItSends(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	bodies := []string{strings.Repeat("a", 100), strings.Repeat("b", 7000)}
	wantStatus(t, do(t, "PUT", srv.URL+"/doc", nil, bodies[0]), 201)

	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 150; i++ {
				req, _ := http.NewRequest("PUT", srv.URL+"/doc", strings.NewReader(bodies[(i+w)%2]))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("PUT: %v", err)
					return
				}
				resp.Body.Close()
			}
		}(w)
	}
	var mu sync.Mutex
	bodyOf := map[string]string{} // ETag → the body it arrived with
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(srv.URL + "/doc")
				if err != nil {
					t.Errorf("GET: %v", err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("GET body (Content-Length %s): %v", resp.Header.Get("Content-Length"), err)
					return
				}
				if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
					t.Errorf("Content-Length %s on a body of %d bytes", cl, len(body))
					return
				}
				etag := resp.Header.Get("ETag")
				mu.Lock()
				prev, seen := bodyOf[etag]
				bodyOf[etag] = string(body)
				mu.Unlock()
				if seen && prev != string(body) {
					t.Errorf("ETag %s arrived with bodies of %d and %d bytes", etag, len(prev), len(body))
					return
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
}
