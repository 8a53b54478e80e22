package davserver

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/chaos"
	"repro/internal/davproto"
)

// seedSearchData builds a small tree with varied metadata.
func seedSearchData(t *testing.T, url string) {
	t.Helper()
	do(t, "MKCOL", url+"/chem", nil, "")
	for i, spec := range []struct{ formula, charge string }{
		{"H2O", "0"}, {"H30O17U", "2"}, {"CO2", "0"}, {"CH4", "0"}, {"H4O4U", "2"},
	} {
		p := fmt.Sprintf("%s/chem/mol%d", url, i)
		do(t, "PUT", p, nil, "geometry")
		ops := []davproto.PatchOp{
			{Prop: davproto.NewTextProperty("ecce:", "formula", spec.formula)},
			{Prop: davproto.NewTextProperty("ecce:", "charge", spec.charge)},
		}
		wantStatus(t, do(t, "PROPPATCH", p, nil, string(davproto.MarshalProppatch(ops))), 207)
	}
	// One resource with no metadata.
	do(t, "PUT", url+"/chem/plain", nil, "no props")
}

func searchBody(bs davproto.BasicSearch) string {
	return string(davproto.MarshalSearch(bs))
}

func TestSearchEquality(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	seedSearchData(t, srv.URL)
	bs := davproto.BasicSearch{
		Select: []xml.Name{{Space: "ecce:", Local: "formula"}},
		Scope:  "/chem",
		Depth:  davproto.DepthInfinity,
		Where:  davproto.CompareExpr{Op: davproto.OpEq, Prop: xml.Name{Space: "ecce:", Local: "formula"}, Literal: "H2O"},
	}
	resp := do(t, "SEARCH", srv.URL+"/chem", nil, searchBody(bs))
	wantStatus(t, resp, 207)
	ms := parseMS(t, resp)
	if len(ms.Responses) != 1 || !strings.HasSuffix(ms.Responses[0].Href, "/chem/mol0") {
		t.Fatalf("hits = %+v", ms.Responses)
	}
	props := davproto.PropsByName(ms.Responses[0].Propstats)
	if p, ok := props[xml.Name{Space: "ecce:", Local: "formula"}]; !ok || p.Text() != "H2O" {
		t.Fatalf("selected prop = %+v ok=%v", p, ok)
	}
}

func TestSearchLikeAndNumeric(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	seedSearchData(t, srv.URL)
	// All uranium-bearing formulas: like "%U".
	bs := davproto.BasicSearch{
		Scope: "/chem", Depth: davproto.DepthInfinity,
		Where: davproto.CompareExpr{Op: davproto.OpLike,
			Prop: xml.Name{Space: "ecce:", Local: "formula"}, Literal: "%U"},
	}
	ms := parseMS(t, do(t, "SEARCH", srv.URL+"/chem", nil, searchBody(bs)))
	if len(ms.Responses) != 2 {
		t.Fatalf("like hits = %d, want 2", len(ms.Responses))
	}
	// Numeric: charge > 1.
	bs.Where = davproto.CompareExpr{Op: davproto.OpGt,
		Prop: xml.Name{Space: "ecce:", Local: "charge"}, Literal: "1"}
	ms = parseMS(t, do(t, "SEARCH", srv.URL+"/chem", nil, searchBody(bs)))
	if len(ms.Responses) != 2 {
		t.Fatalf("numeric hits = %d, want 2", len(ms.Responses))
	}
}

func TestSearchBooleanComposition(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	seedSearchData(t, srv.URL)
	formula := xml.Name{Space: "ecce:", Local: "formula"}
	charge := xml.Name{Space: "ecce:", Local: "charge"}
	// carbon-bearing OR charged, but NOT methane.
	bs := davproto.BasicSearch{
		Scope: "/chem", Depth: davproto.DepthInfinity,
		Where: davproto.AndExpr{Children: []davproto.SearchExpr{
			davproto.OrExpr{Children: []davproto.SearchExpr{
				davproto.CompareExpr{Op: davproto.OpLike, Prop: formula, Literal: "C%"},
				davproto.CompareExpr{Op: davproto.OpGte, Prop: charge, Literal: "2"},
			}},
			davproto.NotExpr{Child: davproto.CompareExpr{Op: davproto.OpEq, Prop: formula, Literal: "CH4"}},
		}},
	}
	ms := parseMS(t, do(t, "SEARCH", srv.URL+"/chem", nil, searchBody(bs)))
	// CO2, H30O17U, H4O4U — not CH4, not H2O, not plain.
	if len(ms.Responses) != 3 {
		t.Fatalf("hits = %d, want 3: %+v", len(ms.Responses), ms.Responses)
	}
}

func TestSearchIsDefinedSkipsBareResources(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	seedSearchData(t, srv.URL)
	bs := davproto.BasicSearch{
		Scope: "/chem", Depth: davproto.DepthInfinity,
		Where: davproto.IsDefinedExpr{Prop: xml.Name{Space: "ecce:", Local: "formula"}},
	}
	ms := parseMS(t, do(t, "SEARCH", srv.URL+"/chem", nil, searchBody(bs)))
	if len(ms.Responses) != 5 {
		t.Fatalf("hits = %d, want 5 (plain and the collection excluded)", len(ms.Responses))
	}
	for _, r := range ms.Responses {
		if strings.HasSuffix(r.Href, "/plain") || strings.HasSuffix(r.Href, "/chem") {
			t.Fatalf("unexpected hit %s", r.Href)
		}
	}
}

func TestSearchNilWhereReturnsScope(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	seedSearchData(t, srv.URL)
	bs := davproto.BasicSearch{Scope: "/chem", Depth: davproto.Depth1}
	ms := parseMS(t, do(t, "SEARCH", srv.URL+"/chem", nil, searchBody(bs)))
	// collection itself + 5 molecules + plain.
	if len(ms.Responses) != 7 {
		t.Fatalf("hits = %d, want 7", len(ms.Responses))
	}
}

func TestSearchLivePropsInWhereAndSelect(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	do(t, "MKCOL", srv.URL+"/docs", nil, "")
	do(t, "PUT", srv.URL+"/docs/small", nil, "123")
	do(t, "PUT", srv.URL+"/docs/large", nil, strings.Repeat("x", 5000))
	bs := davproto.BasicSearch{
		Select: []xml.Name{davproto.PropGetContentLength},
		Scope:  "/docs", Depth: davproto.Depth1,
		Where: davproto.CompareExpr{Op: davproto.OpGt,
			Prop: davproto.PropGetContentLength, Literal: "1000"},
	}
	ms := parseMS(t, do(t, "SEARCH", srv.URL+"/docs", nil, searchBody(bs)))
	if len(ms.Responses) != 1 || !strings.HasSuffix(ms.Responses[0].Href, "/large") {
		t.Fatalf("hits = %+v", ms.Responses)
	}
	props := davproto.PropsByName(ms.Responses[0].Propstats)
	if p, ok := props[davproto.PropGetContentLength]; !ok || p.Text() != "5000" {
		t.Fatalf("selected live prop = %+v ok=%v", p, ok)
	}
}

func TestSearchSelectMissingPropReports404(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	seedSearchData(t, srv.URL)
	bs := davproto.BasicSearch{
		Select: []xml.Name{
			{Space: "ecce:", Local: "formula"},
			{Space: "ecce:", Local: "nonexistent"},
		},
		Scope: "/chem", Depth: davproto.DepthInfinity,
		Where: davproto.CompareExpr{Op: davproto.OpEq,
			Prop: xml.Name{Space: "ecce:", Local: "formula"}, Literal: "CO2"},
	}
	ms := parseMS(t, do(t, "SEARCH", srv.URL+"/chem", nil, searchBody(bs)))
	if len(ms.Responses) != 1 {
		t.Fatalf("hits = %d", len(ms.Responses))
	}
	saw404 := false
	for _, ps := range ms.Responses[0].Propstats {
		if ps.Status == 404 && len(ps.Props) == 1 && ps.Props[0].Name().Local == "nonexistent" {
			saw404 = true
		}
	}
	if !saw404 {
		t.Fatalf("missing select prop not reported: %+v", ms.Responses[0].Propstats)
	}
}

// TestSearchFailsOnStoreError: a SEARCH whose reads fail answers 500,
// not a 207 with the affected rows silently missing. SEARCH reads its
// scope as PROPFIND does: the root through StatWithProps, every
// collection's members through ListWithProps.
func TestSearchFailsOnStoreError(t *testing.T) {
	for _, op := range []string{chaos.OpStatWithProps, chaos.OpListWithProps} {
		t.Run(op, func(t *testing.T) {
			srv, fs := newFaultyServer(t)
			seedSearchData(t, srv.URL)
			fs.FailAll(op)
			bs := davproto.BasicSearch{
				Select: []xml.Name{{Space: "ecce:", Local: "formula"}},
				Scope:  "/chem",
				Depth:  davproto.DepthInfinity,
				Where:  davproto.CompareExpr{Op: davproto.OpEq, Prop: xml.Name{Space: "ecce:", Local: "formula"}, Literal: "H2O"},
			}
			resp := do(t, "SEARCH", srv.URL+"/chem", nil, searchBody(bs))
			if resp.StatusCode != 500 {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("SEARCH over a failing store = %d %q after %d faults, want 500", resp.StatusCode, body, fs.Faults())
			}

			fs.Clear(op)
			resp = do(t, "SEARCH", srv.URL+"/chem", nil, searchBody(bs))
			wantStatus(t, resp, 207)
			if ms := parseMS(t, resp); len(ms.Responses) != 1 {
				t.Fatalf("hits after the store recovered = %+v, want mol0", ms.Responses)
			}
		})
	}
}

func TestSearchErrors(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	wantStatus(t, do(t, "SEARCH", srv.URL+"/", nil, "not xml"), 400)
	bs := davproto.BasicSearch{Scope: "/no/such/place", Depth: davproto.Depth0}
	wantStatus(t, do(t, "SEARCH", srv.URL+"/", nil, searchBody(bs)), 404)
}

func TestOptionsAdvertisesDASL(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	resp := do(t, "OPTIONS", srv.URL+"/", nil, "")
	if !strings.Contains(resp.Header.Get("DASL"), "basicsearch") {
		t.Fatalf("DASL header = %q", resp.Header.Get("DASL"))
	}
	if !strings.Contains(resp.Header.Get("Allow"), "SEARCH") {
		t.Fatalf("Allow header = %q", resp.Header.Get("Allow"))
	}
}

// TestSearchInfinityRefusedUnderBrownout: while degraded, a Depth:
// infinity SEARCH is refused exactly as a Depth: infinity PROPFIND is —
// same status, body and Retry-After, counted in the same total — and a
// bounded SEARCH still serves.
func TestSearchInfinityRefusedUnderBrownout(t *testing.T) {
	var degraded atomic.Bool
	srv, h := newTestServer(t, &Options{Degraded: degraded.Load})
	seedSearchData(t, srv.URL)
	degraded.Store(true)

	propfind := do(t, "PROPFIND", srv.URL+"/chem", map[string]string{"Depth": "infinity"}, "")
	wantStatus(t, propfind, 403)
	want, _ := io.ReadAll(propfind.Body)
	bs := davproto.BasicSearch{
		Select: []xml.Name{{Space: "ecce:", Local: "formula"}},
		Scope:  "/chem",
		Depth:  davproto.DepthInfinity,
	}
	resp := do(t, "SEARCH", srv.URL+"/chem", nil, searchBody(bs))
	wantStatus(t, resp, 403)
	body, _ := io.ReadAll(resp.Body)
	if string(body) != string(want) || !strings.Contains(string(body), "propfind-finite-depth") {
		t.Fatalf("SEARCH refusal body = %q, want the PROPFIND's %q", body, want)
	}
	if got, want := resp.Header.Get("Retry-After"), propfind.Header.Get("Retry-After"); got == "" || got != want {
		t.Fatalf("SEARCH Retry-After = %q, want %q", got, want)
	}
	if got := h.deepCapped.Load(); got != 2 {
		t.Fatalf("deep reads capped = %d, want 2", got)
	}

	bs.Depth = davproto.Depth1
	wantStatus(t, do(t, "SEARCH", srv.URL+"/chem", nil, searchBody(bs)), 207)
	degraded.Store(false)
	bs.Depth = davproto.DepthInfinity
	wantStatus(t, do(t, "SEARCH", srv.URL+"/chem", nil, searchBody(bs)), 207)
	if got := h.deepCapped.Load(); got != 2 {
		t.Fatalf("deep reads capped after the bit fell = %d, want 2", got)
	}
}
