package davserver

import (
	"encoding/xml"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/davproto"
	"repro/internal/dbm"
)

// The SEARCH, REPORT and PROPPATCH 207s are held to the DOM-built ones
// they replaced (multistatus_ref_test.go), as TestPropfindMatchesReference
// holds PROPFIND's: the two bodies must parse to the same hrefs,
// propstat grouping, statuses, property order and property trees. They
// are not byte-identical: the splice declares each namespace on its
// property (DESIGN §9).

// sameMultistatus parses a real and a reference 207 and reports where
// they differ.
func sameMultistatus(t *testing.T, name string, got *http.Response, want *httptest.ResponseRecorder) davproto.Multistatus {
	t.Helper()
	if got.StatusCode != want.Code {
		t.Fatalf("%s: status %d, reference %d", name, got.StatusCode, want.Code)
	}
	gotMS, wantMS := parseMS(t, got), davproto.Multistatus{}
	if want.Code == http.StatusMultiStatus {
		var err error
		if wantMS, err = davproto.ParseMultistatus(want.Body); err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
	}
	if g, w := canonical(gotMS), canonical(wantMS); g != w {
		t.Errorf("%s:\n--- spliced\n%s--- reference\n%s", name, g, w)
	}
	return wantMS
}

func TestSearchMatchesReference(t *testing.T) {
	ecce := func(local string) xml.Name { return xml.Name{Space: "urn:ecce", Local: local} }
	wheres := []struct {
		name  string
		where davproto.SearchExpr
	}{
		{"nil", nil},
		{"eq", davproto.CompareExpr{Op: davproto.OpEq, Prop: ecce("formula"), Literal: "UO2(H2O)15"}},
		{"like contenttype", davproto.CompareExpr{Op: davproto.OpLike, Prop: davproto.PropGetContentType, Literal: "text/%"}},
		{"gt contentlength", davproto.CompareExpr{Op: davproto.OpGt, Prop: davproto.PropGetContentLength, Literal: "20"}},
		{"not is-defined", davproto.NotExpr{Child: davproto.IsDefinedExpr{Prop: ecce("formula")}}},
		{"or", davproto.OrExpr{Children: []davproto.SearchExpr{
			davproto.CompareExpr{Op: davproto.OpLike, Prop: ecce("notes"), Literal: "a<b%"},
			davproto.CompareExpr{Op: davproto.OpLte, Prop: davproto.PropGetContentLength, Literal: "12"},
		}}},
		{"is-defined bookkeeping", davproto.IsDefinedExpr{Prop: propVCCount}},
	}
	selects := []struct {
		name  string
		names []xml.Name
	}{
		{"empty", nil},
		{"dead and missing", []xml.Name{ecce("basis"), ecce("absent"), {Space: "urn:日本", Local: "名前"}}},
		{"live and bookkeeping", []xml.Name{davproto.PropGetContentLength, davproto.PropResourceType, propVCCount, davproto.PropGetETag}},
	}
	for _, prefix := range []string{"", "/dav"} {
		srv, h, _, log := newLoggedFSServer(t, dbm.GDBM, prefix)
		base := srv.URL + prefix
		for _, col := range []string{"/col", "/col/sub", "/col/sub/deeper"} {
			wantStatus(t, do(t, "MKCOL", base+col, nil, ""), 201)
		}
		for _, doc := range []string{"/col/a.txt", "/col/sub/c.txt", "/col/sub/deeper/d.txt"} {
			wantStatus(t, do(t, "PUT", base+doc, map[string]string{"Content-Type": "text/plain"}, "body of "+doc), 201)
		}
		wantStatus(t, do(t, "PUT", base+"/col/b.bin", map[string]string{"Content-Type": "application/octet-stream"},
			strings.Repeat("b", 64)), 201)
		rich := string(davproto.MarshalProppatch(func() (ops []davproto.PatchOp) {
			for _, p := range richProps() {
				ops = append(ops, davproto.PatchOp{Prop: p})
			}
			return ops
		}()))
		for _, p := range []string{"/col", "/col/a.txt", "/col/sub/c.txt"} {
			wantStatus(t, do(t, "PROPPATCH", base+p, nil, rich), 207)
		}
		wantStatus(t, do(t, "VERSION-CONTROL", base+"/col/a.txt", nil, ""), 200)
		wantStatus(t, do(t, "PUT", base+"/col/a.txt", map[string]string{"Content-Type": "text/plain"}, "second draft"), 204)

		listed := 0
		for _, scope := range []string{"/col", "/col/a.txt", "/col/sub", versionRoot} {
			for _, depth := range []davproto.Depth{davproto.Depth0, davproto.Depth1, davproto.DepthInfinity} {
				for _, wh := range wheres {
					for _, sel := range selects {
						name := fmt.Sprintf("prefix=%q scope=%s depth=%s where=%s select=%s", prefix, scope, depth, wh.name, sel.name)
						body := string(davproto.MarshalSearch(davproto.BasicSearch{
							Select: sel.names, Scope: prefix + scope, Depth: depth, Where: wh.where}))
						ref := httptest.NewRecorder()
						h.refHandleSearch(ref, httptest.NewRequest("SEARCH", prefix+"/", strings.NewReader(body)))
						ms := sameMultistatus(t, name, do(t, "SEARCH", base+"/", nil, body), ref)
						listed += len(ms.Responses)
					}
				}
			}
		}
		if listed == 0 {
			t.Fatalf("prefix=%q: the reference matched nothing", prefix)
		}
		if log.Len() != 0 {
			t.Errorf("prefix=%q: error log not empty:\n%s", prefix, log)
		}
	}
}

func TestReportMatchesReference(t *testing.T) {
	for _, prefix := range []string{"", "/dav"} {
		srv, h, _, _ := newLoggedFSServer(t, dbm.GDBM, prefix)
		base := srv.URL + prefix
		wantStatus(t, do(t, "PUT", base+"/paper & notes.txt", nil, "draft one"), 201)
		wantStatus(t, do(t, "VERSION-CONTROL", base+"/paper%20%26%20notes.txt", nil, ""), 200)
		wantStatus(t, do(t, "PUT", base+"/paper & notes.txt", nil, "draft two, longer"), 204)

		ref := httptest.NewRecorder()
		h.refHandleReport(ref, httptest.NewRequest("REPORT", prefix+"/paper%20%26%20notes.txt", strings.NewReader(versionTreeBody)))
		ms := sameMultistatus(t, "prefix="+prefix, do(t, "REPORT", base+"/paper%20%26%20notes.txt", nil, versionTreeBody), ref)
		if len(ms.Responses) != 2 {
			t.Fatalf("prefix=%q: reference lists %d versions, want 2", prefix, len(ms.Responses))
		}
	}
}

func TestProppatchMatchesReference(t *testing.T) {
	set := func(space, local, text string) davproto.PatchOp {
		return davproto.PatchOp{Prop: davproto.NewTextProperty(space, local, text)}
	}
	remove := func(space, local string) davproto.PatchOp {
		op := set(space, local, "")
		op.Remove = true
		return op
	}
	cases := []struct {
		name     string
		ops      []davproto.PatchOp
		statuses []int
	}{
		{"all 200",
			[]davproto.PatchOp{set("urn:ecce", "formula", "H2O"), set("urn:other", "größe", "zwölf"),
				remove("urn:ecce", "absent"), set("", "bare", "none")},
			[]int{200, 200, 200, 200}},
		{"409 and 424",
			[]davproto.PatchOp{set("urn:ecce", "formula", "H2O"), set(davproto.NS, "getetag", `"forged"`),
				set("urn:other", "größe", "zwölf"), set(vcNS, "version-count", "9"), remove("urn:ecce", "absent")},
			[]int{424, 409, 424, 409, 424}},
	}
	for _, prefix := range []string{"", "/dav"} {
		srv, h, _, _ := newLoggedFSServer(t, dbm.GDBM, prefix)
		wantStatus(t, do(t, "PUT", srv.URL+prefix+"/b%20%26%20c.txt", nil, "x"), 201)
		for _, c := range cases {
			name := fmt.Sprintf("prefix=%q %s", prefix, c.name)
			ref := httptest.NewRecorder()
			h.refProppatchResult(ref, "/b & c.txt", c.ops, c.statuses)
			body := string(davproto.MarshalProppatch(c.ops))
			sameMultistatus(t, name, do(t, "PROPPATCH", srv.URL+prefix+"/b%20%26%20c.txt", nil, body), ref)
		}
	}
}
