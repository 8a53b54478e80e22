package davserver

import (
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/davproto"
	"repro/internal/dbm"
	"repro/internal/store"
	"repro/internal/store/fsck"
)

const versionTreeBody = `<D:version-tree xmlns:D="DAV:"/>`

// versionHrefs runs a version-tree REPORT and returns the hrefs.
func versionHrefs(t *testing.T, url, p string) []string {
	t.Helper()
	resp := do(t, "REPORT", url+p, nil, versionTreeBody)
	wantStatus(t, resp, 207)
	ms := parseMS(t, resp)
	var hrefs []string
	for _, r := range ms.Responses {
		hrefs = append(hrefs, r.Href)
	}
	return hrefs
}

// wantHistory runs a version-tree REPORT on p and wants one version per
// body, in order, each serving its body to a plain GET.
func wantHistory(t *testing.T, url, p string, bodies ...string) {
	t.Helper()
	hrefs := versionHrefs(t, url, p)
	if len(hrefs) != len(bodies) {
		t.Fatalf("versions of %s = %v, want %d", p, hrefs, len(bodies))
	}
	for i, href := range hrefs {
		wantBodyAt(t, url, href, bodies[i])
	}
}

// wantBodyAt wants a GET of href to serve body.
func wantBodyAt(t *testing.T, url, href, body string) {
	t.Helper()
	resp := do(t, "GET", url+href, nil, "")
	wantStatus(t, resp, 200)
	if b, _ := io.ReadAll(resp.Body); string(b) != body {
		t.Errorf("GET %s = %q, want %q", href, b, body)
	}
}

func TestVersionControlAndHistory(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "PUT", srv.URL+"/paper.txt", nil, "draft one")
	wantStatus(t, do(t, "VERSION-CONTROL", srv.URL+"/paper.txt", nil, ""), 200)

	// Two more writes create versions 2 and 3.
	wantStatus(t, do(t, "PUT", srv.URL+"/paper.txt", nil, "draft two"), 204)
	wantStatus(t, do(t, "PUT", srv.URL+"/paper.txt", nil, "draft three, final"), 204)

	hrefs := versionHrefs(t, srv.URL, "/paper.txt")
	if len(hrefs) != 3 {
		t.Fatalf("versions = %v", hrefs)
	}
	// Every old state is retrievable with a plain GET.
	wantBodies := []string{"draft one", "draft two", "draft three, final"}
	for i, href := range hrefs {
		resp := do(t, "GET", srv.URL+href, nil, "")
		wantStatus(t, resp, 200)
		b, _ := io.ReadAll(resp.Body)
		if string(b) != wantBodies[i] {
			t.Fatalf("version %d body = %q, want %q", i+1, b, wantBodies[i])
		}
	}
	// The live resource holds the newest state.
	resp := do(t, "GET", srv.URL+"/paper.txt", nil, "")
	b, _ := io.ReadAll(resp.Body)
	if string(b) != "draft three, final" {
		t.Fatalf("live body = %q", b)
	}
}

func TestVersionControlIdempotent(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "PUT", srv.URL+"/v.txt", nil, "x")
	wantStatus(t, do(t, "VERSION-CONTROL", srv.URL+"/v.txt", nil, ""), 200)
	wantStatus(t, do(t, "VERSION-CONTROL", srv.URL+"/v.txt", nil, ""), 200)
	if got := versionHrefs(t, srv.URL, "/v.txt"); len(got) != 1 {
		t.Fatalf("versions after double VERSION-CONTROL = %v", got)
	}
}

func TestVersioningErrors(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	// VERSION-CONTROL on a missing resource.
	wantStatus(t, do(t, "VERSION-CONTROL", srv.URL+"/nope", nil, ""), 404)
	// ... on a collection.
	do(t, "MKCOL", srv.URL+"/col", nil, "")
	wantStatus(t, do(t, "VERSION-CONTROL", srv.URL+"/col", nil, ""), 405)
	// REPORT on an uncontrolled resource.
	do(t, "PUT", srv.URL+"/plain.txt", nil, "x")
	wantStatus(t, do(t, "REPORT", srv.URL+"/plain.txt", nil, versionTreeBody), 409)
	// Unsupported report type.
	do(t, "VERSION-CONTROL", srv.URL+"/plain.txt", nil, "")
	wantStatus(t, do(t, "REPORT", srv.URL+"/plain.txt", nil,
		`<D:expand-property xmlns:D="DAV:"/>`), 403)
	// Garbage body.
	wantStatus(t, do(t, "REPORT", srv.URL+"/plain.txt", nil, "not xml"), 400)
}

func TestVersionStoreIsReadOnly(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "PUT", srv.URL+"/doc", nil, "v1")
	do(t, "VERSION-CONTROL", srv.URL+"/doc", nil, "")
	hrefs := versionHrefs(t, srv.URL, "/doc")
	vh := hrefs[0]
	// Reads allowed.
	wantStatus(t, do(t, "GET", srv.URL+vh, nil, ""), 200)
	wantStatus(t, do(t, "PROPFIND", srv.URL+vh, map[string]string{"Depth": "0"}, ""), 207)
	// Writes rejected.
	wantStatus(t, do(t, "PUT", srv.URL+vh, nil, "tamper"), 403)
	wantStatus(t, do(t, "DELETE", srv.URL+vh, nil, ""), 403)
	wantStatus(t, do(t, "PROPPATCH", srv.URL+vh, nil,
		proppatchBody(map[string]string{"k": "v"})), 403)
	wantStatus(t, do(t, "MKCOL", srv.URL+"/.davversions/evil", nil, ""), 403)
	wantStatus(t, do(t, "COPY", srv.URL+"/doc",
		map[string]string{"Destination": srv.URL + vh}, ""), 403)
}

func TestVersionStoreHiddenFromLiveTree(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "PUT", srv.URL+"/doc", nil, "v1")
	do(t, "VERSION-CONTROL", srv.URL+"/doc", nil, "")
	do(t, "PUT", srv.URL+"/doc", nil, "v2")

	// Depth-1 PROPFIND of the root shows /doc but not /.davversions.
	resp := do(t, "PROPFIND", srv.URL+"/", map[string]string{"Depth": "1"}, "")
	ms := parseMS(t, resp)
	for _, r := range ms.Responses {
		if strings.Contains(r.Href, ".davversions") {
			t.Fatalf("version store leaked into PROPFIND: %s", r.Href)
		}
	}
	// Depth-infinity likewise.
	resp = do(t, "PROPFIND", srv.URL+"/", map[string]string{"Depth": "infinity"}, "")
	ms = parseMS(t, resp)
	for _, r := range ms.Responses {
		if strings.Contains(r.Href, ".davversions") {
			t.Fatalf("version store leaked into deep PROPFIND: %s", r.Href)
		}
	}
	// HTML index likewise.
	resp = do(t, "GET", srv.URL+"/", nil, "")
	b, _ := io.ReadAll(resp.Body)
	if strings.Contains(string(b), ".davversions") {
		t.Fatalf("version store leaked into index:\n%s", b)
	}
	// SEARCH over the live tree likewise.
	bs := davproto.BasicSearch{Scope: "/", Depth: davproto.DepthInfinity}
	resp = do(t, "SEARCH", srv.URL+"/", nil, string(davproto.MarshalSearch(bs)))
	ms = parseMS(t, resp)
	for _, r := range ms.Responses {
		if strings.Contains(r.Href, ".davversions") {
			t.Fatalf("version store leaked into SEARCH: %s", r.Href)
		}
	}
	// But an explicit PROPFIND inside the version store still works
	// (reads allowed).
	resp = do(t, "PROPFIND", srv.URL+"/.davversions", map[string]string{"Depth": "infinity"}, "")
	ms = parseMS(t, resp)
	if len(ms.Responses) < 2 {
		t.Fatalf("explicit version-store PROPFIND = %d responses", len(ms.Responses))
	}
}

func TestVersionSnapshotsCaptureProperties(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "PUT", srv.URL+"/m", nil, "geom v1")
	do(t, "PROPPATCH", srv.URL+"/m", nil, proppatchBody(map[string]string{"formula": "H2O"}))
	do(t, "VERSION-CONTROL", srv.URL+"/m", nil, "")
	// Change body and metadata.
	do(t, "PUT", srv.URL+"/m", nil, "geom v2")
	do(t, "PROPPATCH", srv.URL+"/m", nil, proppatchBody(map[string]string{"formula": "D2O"}))

	hrefs := versionHrefs(t, srv.URL, "/m")
	if len(hrefs) != 2 {
		t.Fatalf("versions = %v", hrefs)
	}
	// Version 1 carries the original property value.
	resp := do(t, "PROPFIND", srv.URL+hrefs[0], map[string]string{"Depth": "0"},
		propfindBody("formula"))
	ms := parseMS(t, resp)
	props := davproto.PropsByName(ms.Responses[0].Propstats)
	if p, ok := props[eccFormula()]; !ok || p.Text() != "H2O" {
		t.Fatalf("v1 formula = %+v ok=%v", p, ok)
	}
	// Bookkeeping props are not visible in snapshots.
	resp = do(t, "PROPFIND", srv.URL+hrefs[0], map[string]string{"Depth": "0"}, "")
	ms = parseMS(t, resp)
	for name := range davproto.PropsByName(ms.Responses[0].Propstats) {
		if name.Space == vcNS {
			t.Fatalf("bookkeeping prop %v leaked into snapshot", name)
		}
	}
}

func eccFormula() xml.Name {
	return xml.Name{Space: "ecce:", Local: "formula"}
}

func TestVersioningBookkeepingProtected(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "PUT", srv.URL+"/d", nil, "x")
	ops := []davproto.PatchOp{{Prop: davproto.NewTextProperty(vcNS, "version-controlled", "1")}}
	resp := do(t, "PROPPATCH", srv.URL+"/d", nil, string(davproto.MarshalProppatch(ops)))
	wantStatus(t, resp, 207)
	ms := parseMS(t, resp)
	if ms.Responses[0].Propstats[0].Status != 409 {
		t.Fatalf("bookkeeping prop write = %d, want 409", ms.Responses[0].Propstats[0].Status)
	}
}

func TestReportVersionNamesAndSizes(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "PUT", srv.URL+"/r", nil, "1")
	do(t, "VERSION-CONTROL", srv.URL+"/r", nil, "")
	do(t, "PUT", srv.URL+"/r", nil, "22")
	resp := do(t, "REPORT", srv.URL+"/r", nil, versionTreeBody)
	ms := parseMS(t, resp)
	if len(ms.Responses) != 2 {
		t.Fatalf("responses = %d", len(ms.Responses))
	}
	for i, r := range ms.Responses {
		props := davproto.PropsByName(r.Propstats)
		vn, ok := props[davproto.PropGetContentLength]
		if !ok {
			t.Fatalf("version %d missing getcontentlength", i+1)
		}
		if wantLen := []string{"1", "2"}[i]; vn.Text() != wantLen {
			t.Fatalf("version %d length = %s, want %s", i+1, vn.Text(), wantLen)
		}
		name, ok := props[xml.Name{Space: "DAV:", Local: "version-name"}]
		if !ok || name.Text() != []string{"1", "2"}[i] {
			t.Fatalf("version %d name = %+v", i+1, name)
		}
	}
}

// TestVersioningStoreCalls pins the store calls of versioning and of
// COPY and MOVE over an FSStore. Each learns whether its target exists
// from its write's own error, never from a Stat before it.
// VERSION-CONTROL makes one history collection however deep the
// document, REPORT reads a history with one listing however long it
// is, a snapshot whose count never landed is replaced by the next one,
// and a document an older build put under version control, in the path
// layout, keeps its history.
func TestVersioningStoreCalls(t *testing.T) {
	fs, err := store.NewFSStore(t.TempDir(), dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	faulty := chaos.NewFaultyStore(fs)
	var (
		mu    sync.Mutex
		calls []string
	)
	srv := httptest.NewServer(NewHandler(store.Intercept(faulty,
		func(ctx context.Context, op store.Op, next func(context.Context) error) error {
			mu.Lock()
			calls = append(calls, op.Name)
			mu.Unlock()
			return next(ctx)
		}), nil))
	defer srv.Close()
	// request runs one request, wants its status, and wants the store
	// calls it made, in order.
	request := func(method, p string, headers map[string]string, body string, status int, want ...string) {
		t.Helper()
		mu.Lock()
		calls = nil
		mu.Unlock()
		wantStatus(t, do(t, method, srv.URL+p, headers, body), status)
		mu.Lock()
		defer mu.Unlock()
		if !slices.Equal(calls, want) {
			t.Errorf("%s %s made store calls %v, want %v", method, p, calls, want)
		}
	}
	dest := func(p string) map[string]string { return map[string]string{"Destination": srv.URL + p} }
	wantVersions := func(p string, bodies ...string) {
		t.Helper()
		_, props, err := fs.StatWithProps(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		_, root := history(p, props)
		wantHistory(t, srv.URL, p, bodies...)
		for i, href := range versionHrefs(t, srv.URL, p) {
			if want := root + "/" + strconv.Itoa(i+1); href != want {
				t.Errorf("version %d of %s at %s, want %s", i+1, p, href, want)
			}
		}
	}

	wantStatus(t, do(t, "MKCOL", srv.URL+"/a", nil, ""), 201)
	wantStatus(t, do(t, "MKCOL", srv.URL+"/a/b", nil, ""), 201)
	wantStatus(t, do(t, "PUT", srv.URL+"/a/b/deep", nil, "d1"), 201)
	wantStatus(t, do(t, "PUT", srv.URL+"/a/doc", nil, "v1"), 201)
	wantStatus(t, do(t, "PUT", srv.URL+"/a/sib", nil, "s1"), 201)

	// In a fresh store, the history's Mkcol finds no version root and
	// makes it once, whatever the document's depth; after that, one
	// Mkcol makes each history.
	request("VERSION-CONTROL", "/a/b/deep", nil, "", 200, store.OpStatWithProps,
		store.OpMkcol, store.OpMkcol, store.OpMkcol, store.OpCopyTree, store.OpPropPut)
	for _, p := range []string{"/a/doc", "/a/sib"} {
		request("VERSION-CONTROL", p, nil, "", 200, store.OpStatWithProps, store.OpMkcol, store.OpCopyTree, store.OpPropPut)
	}
	request("PUT", "/a/doc", nil, "v2", 204, store.OpStatWithProps, store.OpPut, store.OpCopyTree, store.OpPropPut)
	wantVersions("/a/doc", "v1", "v2")

	// COPY and MOVE to an absent destination are one call each; onto an
	// existing one, the refusal is what Overwrite resolves.
	request("COPY", "/a/sib", dest("/a/copy"), "", 201, store.OpCopyTree)
	request("MOVE", "/a/copy", dest("/a/moved"), "", 201, store.OpRename)
	request("COPY", "/a/sib", dest("/a/moved"), "", 204, store.OpCopyTree, store.OpDelete, store.OpCopyTree)
	overwriteF := dest("/a/moved")
	overwriteF["Overwrite"] = "F"
	request("MOVE", "/a/doc", overwriteF, "", 412, store.OpRename)
	// A missing source answers 404 before the destination answers 412.
	request("COPY", "/a/absent", overwriteF, "", 404, store.OpCopyTree)

	// Debris: the count's PropPut fails after version 3's snapshot. The
	// PUT still lands; the next one takes version 3 over with its own
	// body, and the history has no gap.
	faulty.FailNth(chaos.OpPropPut, 1)
	request("PUT", "/a/doc", nil, "v3, lost", 204, store.OpStatWithProps, store.OpPut, store.OpCopyTree, store.OpPropPut)
	faulty.Clear(chaos.OpPropPut)
	request("PUT", "/a/doc", nil, "v3", 204, store.OpStatWithProps, store.OpPut,
		store.OpCopyTree, store.OpDelete, store.OpCopyTree, store.OpPropPut)
	wantVersions("/a/doc", "v1", "v2", "v3")

	// REPORT is two calls however long the history, and lists it in
	// numeric order: version 10 comes after 9, not after 1.
	request("REPORT", "/a/doc", nil, versionTreeBody, 207, store.OpStatWithProps, store.OpListWithProps)
	bodies := []string{"v1", "v2", "v3"}
	for n := 4; n <= 12; n++ {
		bodies = append(bodies, "v"+strconv.Itoa(n))
		wantStatus(t, do(t, "PUT", srv.URL+"/a/doc", nil, bodies[n-1]), 204)
	}
	request("REPORT", "/a/doc", nil, versionTreeBody, 207, store.OpStatWithProps, store.OpListWithProps)
	wantVersions("/a/doc", bodies...)

	// An older build wrote a bare count, here directly, and made its
	// version 1 under the path layout; the next PUT makes version 2
	// there.
	ctx := context.Background()
	wantStatus(t, do(t, "PUT", srv.URL+"/a/old", nil, "o1"), 201)
	for _, p := range []string{versionRoot + "/a", versionRoot + "/a/old"} {
		if err := fs.Mkcol(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.CopyTreeAtomic(ctx, "/a/old", versionRoot+"/a/old/1", store.CopyOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := fs.PropPut(ctx, "/a/old", propVCCount, []byte("1")); err != nil {
		t.Fatal(err)
	}
	request("PUT", "/a/old", nil, "o2", 204, store.OpStatWithProps, store.OpPut, store.OpCopyTree, store.OpPropPut)
	wantVersions("/a/old", "o1", "o2")
	if _, props, err := fs.StatWithProps(ctx, "/a/old"); err != nil || string(props[propVCCount]) != "2" {
		t.Errorf("legacy version-count = %q, %v; want the bare 2", props[propVCCount], err)
	}
}

// A copy is a new resource (RFC 3253): it has no history, its writes
// make no versions, and the source's history is untouched. That holds
// for a document copied on its own and for one inside a Depth-infinity
// COPY of its collection.
func TestCopyMakesAnUnversionedResource(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	wantStatus(t, do(t, "MKCOL", srv.URL+"/col", nil, ""), 201)
	wantStatus(t, do(t, "PUT", srv.URL+"/col/d", nil, "v1"), 201)
	wantStatus(t, do(t, "VERSION-CONTROL", srv.URL+"/col/d", nil, ""), 200)
	wantStatus(t, do(t, "PUT", srv.URL+"/col/d", nil, "v2"), 204)

	wantStatus(t, do(t, "COPY", srv.URL+"/col/d", map[string]string{"Destination": srv.URL + "/c"}, ""), 201)
	wantStatus(t, do(t, "COPY", srv.URL+"/col", map[string]string{"Destination": srv.URL + "/col2"}, ""), 201)
	for _, p := range []string{"/c", "/col2/d"} {
		wantStatus(t, do(t, "REPORT", srv.URL+p, nil, versionTreeBody), 409)
		wantStatus(t, do(t, "PUT", srv.URL+p, nil, "copy's own"), 204)
		wantStatus(t, do(t, "REPORT", srv.URL+p, nil, versionTreeBody), 409)
		wantBodyAt(t, srv.URL, p, "copy's own")
	}
	wantHistory(t, srv.URL, "/col/d", "v1", "v2")
}

// MOVE carries the history to the destination, and a new document at
// the source's path starts a history of its own without touching the
// moved one's versions.
func TestMoveCarriesTheHistory(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	wantStatus(t, do(t, "PUT", srv.URL+"/d", nil, "v1"), 201)
	wantStatus(t, do(t, "VERSION-CONTROL", srv.URL+"/d", nil, ""), 200)
	wantStatus(t, do(t, "PUT", srv.URL+"/d", nil, "v2"), 204)
	wantStatus(t, do(t, "MOVE", srv.URL+"/d", map[string]string{"Destination": srv.URL + "/m"}, ""), 201)
	wantHistory(t, srv.URL, "/m", "v1", "v2")

	wantStatus(t, do(t, "PUT", srv.URL+"/d", nil, "n1"), 201)
	wantStatus(t, do(t, "REPORT", srv.URL+"/d", nil, versionTreeBody), 409)
	wantStatus(t, do(t, "VERSION-CONTROL", srv.URL+"/d", nil, ""), 200)
	wantStatus(t, do(t, "PUT", srv.URL+"/d", nil, "n2"), 204)
	wantStatus(t, do(t, "PUT", srv.URL+"/d", nil, "n3"), 204)
	wantHistory(t, srv.URL, "/d", "n1", "n2", "n3")
	wantStatus(t, do(t, "PUT", srv.URL+"/m", nil, "v3"), 204)
	wantHistory(t, srv.URL, "/m", "v1", "v2", "v3")
}

// DELETE leaves the history where it is: its version URLs keep serving
// their bodies, and a new document at the path, once version-controlled,
// starts a new history instead of writing over the old one.
func TestDeleteLeavesTheHistory(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	wantStatus(t, do(t, "PUT", srv.URL+"/d", nil, "v1"), 201)
	wantStatus(t, do(t, "VERSION-CONTROL", srv.URL+"/d", nil, ""), 200)
	wantStatus(t, do(t, "PUT", srv.URL+"/d", nil, "v2"), 204)
	old := versionHrefs(t, srv.URL, "/d")
	wantStatus(t, do(t, "DELETE", srv.URL+"/d", nil, ""), 204)

	wantStatus(t, do(t, "PUT", srv.URL+"/d", nil, "w1"), 201)
	wantStatus(t, do(t, "REPORT", srv.URL+"/d", nil, versionTreeBody), 409)
	wantStatus(t, do(t, "VERSION-CONTROL", srv.URL+"/d", nil, ""), 200)
	wantHistory(t, srv.URL, "/d", "w1")
	for i, href := range old {
		wantBodyAt(t, srv.URL, href, []string{"v1", "v2"}[i])
	}
}

// TestVersionControlSurvivesACrash crashes VERSION-CONTROL at every
// step of its snapshot's copy (the copy's own steps and those of the
// document put inside it), and fails the count's PropPut, in a fresh
// store. After each, the reopened store still holds the document's
// body, the document has no history or exactly version 1 with that
// body, a second VERSION-CONTROL makes exactly one version, and the
// store is fsck-clean. The loop arms step k and increments until the
// request completes uncrashed, as TestCrashPointMatrix does.
func TestVersionControlSurvivesACrash(t *testing.T) {
	const body = "v1"
	// versionControl runs VERSION-CONTROL on /a/doc of a store seeded in
	// dir, with fault armed beforehand, and reports whether it crashed.
	versionControl := func(t *testing.T, dir string, arm func(*chaos.CrashPoint, *chaos.FaultyStore)) (crashed bool, code int) {
		seed, err := store.NewFSStore(dir, dbm.GDBM)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := seed.Mkcol(ctx, "/a"); err != nil {
			t.Fatal(err)
		}
		if _, err := seed.Put(ctx, "/a/doc", strings.NewReader(body), ""); err != nil {
			t.Fatal(err)
		}
		if err := seed.Close(); err != nil {
			t.Fatal(err)
		}
		cp := chaos.NewCrashPoint()
		s, err := store.NewFSStoreWith(dir, dbm.GDBM, store.FSOptions{StepHook: cp.Hook})
		if err != nil {
			t.Fatal(err)
		}
		faulty := chaos.NewFaultyStore(s)
		arm(cp, faulty)
		rec := httptest.NewRecorder()
		crashed, _ = chaos.Run(func() {
			NewHandler(faulty, nil).ServeHTTP(rec, httptest.NewRequest("VERSION-CONTROL", "/a/doc", nil))
		})
		if !crashed {
			s.Close() // a crashed store is abandoned, as a killed process's would be
		}
		return crashed, rec.Code
	}
	// recovered reopens dir and checks what a crash may leave.
	recovered := func(t *testing.T, dir, what string) {
		s, err := store.NewFSStore(dir, dbm.GDBM)
		if err != nil {
			t.Fatalf("%s: reopen: %v", what, err)
		}
		srv := httptest.NewServer(NewHandler(s, nil))
		wantBodyAt(t, srv.URL, "/a/doc", body)
		resp := do(t, "REPORT", srv.URL+"/a/doc", nil, versionTreeBody)
		if resp.StatusCode != 409 {
			wantHistory(t, srv.URL, "/a/doc", body)
		}
		wantStatus(t, do(t, "VERSION-CONTROL", srv.URL+"/a/doc", nil, ""), 200)
		wantHistory(t, srv.URL, "/a/doc", body)
		srv.Close()
		s.Close()
		rep, err := fsck.Check(dir, dbm.GDBM)
		if err != nil {
			t.Fatalf("%s: fsck: %v", what, err)
		}
		if !rep.Clean() {
			t.Errorf("%s: fsck findings:\n%v", what, rep.Findings)
		}
	}

	for _, op := range []string{"copy", "put"} {
		steps := 0
		for k := 1; k <= 20 && steps == 0; k++ {
			dir := t.TempDir()
			crashed, code := versionControl(t, dir, func(cp *chaos.CrashPoint, _ *chaos.FaultyStore) { cp.Arm(op, k) })
			if !crashed {
				if code != 200 {
					t.Fatalf("uncrashed VERSION-CONTROL = %d", code)
				}
				steps = k - 1
				continue
			}
			recovered(t, dir, fmt.Sprintf("crash at %s step %d", op, k))
		}
		if steps == 0 {
			t.Fatalf("VERSION-CONTROL never completed with %s armed", op)
		}
		t.Logf("%s: %d crash points exercised", op, steps)
	}

	dir := t.TempDir()
	_, code := versionControl(t, dir, func(_ *chaos.CrashPoint, f *chaos.FaultyStore) { f.FailNth(chaos.OpPropPut, 1) })
	if code != 500 {
		t.Errorf("VERSION-CONTROL with a failing count write = %d, want 500", code)
	}
	recovered(t, dir, "failed count write")
}
