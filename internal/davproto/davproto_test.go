package davproto

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/xmldom"
)

func TestParseDepth(t *testing.T) {
	cases := []struct {
		in   string
		def  Depth
		want Depth
		ok   bool
	}{
		{"0", DepthInfinity, Depth0, true},
		{"1", DepthInfinity, Depth1, true},
		{"infinity", Depth0, DepthInfinity, true},
		{"Infinity", Depth0, DepthInfinity, true},
		{"", Depth1, Depth1, true},
		{"  0 ", DepthInfinity, Depth0, true},
		{"2", Depth0, Depth0, false},
		{"deep", Depth0, Depth0, false},
	}
	for _, c := range cases {
		got, err := ParseDepth(c.in, c.def)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseDepth(%q) = (%v, %v), want (%v, ok=%v)", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestDepthString(t *testing.T) {
	if Depth0.String() != "0" || Depth1.String() != "1" || DepthInfinity.String() != "infinity" {
		t.Fatal("Depth.String mismatch")
	}
}

func TestPropfindRoundTrip(t *testing.T) {
	cases := []Propfind{
		{Kind: PropfindAllProp},
		{Kind: PropfindPropName},
		{Kind: PropfindProps, Props: []xml.Name{
			{Space: NS, Local: "getcontentlength"},
			{Space: "ecce:", Local: "formula"},
		}},
	}
	for _, pf := range cases {
		body := MarshalPropfind(pf)
		got, err := ParsePropfind(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("ParsePropfind(%s): %v", body, err)
		}
		if got.Kind != pf.Kind || !reflect.DeepEqual(got.Props, pf.Props) {
			t.Fatalf("round trip = %+v, want %+v", got, pf)
		}
	}
}

func TestParsePropfindEmptyBodyIsAllprop(t *testing.T) {
	pf, err := ParsePropfind(strings.NewReader(""))
	if err != nil || pf.Kind != PropfindAllProp {
		t.Fatalf("empty body = (%+v, %v), want allprop", pf, err)
	}
	pf, err = ParsePropfind(strings.NewReader("   \n  "))
	if err != nil || pf.Kind != PropfindAllProp {
		t.Fatalf("whitespace body = (%+v, %v), want allprop", pf, err)
	}
}

func TestParsePropfindRejectsWrongRoot(t *testing.T) {
	if _, err := ParsePropfind(strings.NewReader(`<D:propertyupdate xmlns:D="DAV:"/>`)); err == nil {
		t.Fatal("wrong root should error")
	}
	if _, err := ParsePropfind(strings.NewReader(`<D:propfind xmlns:D="DAV:"/>`)); err == nil {
		t.Fatal("propfind with no selector should error")
	}
}

func TestProppatchRoundTrip(t *testing.T) {
	val := xmldom.NewTextElement("ecce:", "formula", "UO2H30O15")
	ops := []PatchOp{
		{Prop: Property{XML: val}},
		{Remove: true, Prop: NewTextProperty("ecce:", "obsolete", "")},
		{Prop: NewTextProperty("ecce:", "charge", "2")},
	}
	body := MarshalProppatch(ops)
	got, err := ParseProppatch(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("ParseProppatch: %v\n%s", err, body)
	}
	if len(got) != 3 {
		t.Fatalf("ops = %d, want 3", len(got))
	}
	if got[0].Remove || got[0].Prop.Name() != val.Name || got[0].Prop.Text() != "UO2H30O15" {
		t.Fatalf("op0 = %+v", got[0])
	}
	if !got[1].Remove || got[1].Prop.Name().Local != "obsolete" {
		t.Fatalf("op1 = %+v", got[1])
	}
	if got[2].Remove || got[2].Prop.Text() != "2" {
		t.Fatalf("op2 = %+v", got[2])
	}
}

func TestProppatchPreservesOrder(t *testing.T) {
	// RFC 2518: instructions are executed in document order.
	body := []byte(`<D:propertyupdate xmlns:D="DAV:" xmlns:e="ecce:">
	  <D:set><D:prop><e:a>1</e:a></D:prop></D:set>
	  <D:remove><D:prop><e:a/></D:prop></D:remove>
	  <D:set><D:prop><e:a>2</e:a></D:prop></D:set>
	</D:propertyupdate>`)
	ops, err := ParseProppatch(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	wantRemove := []bool{false, true, false}
	for i, op := range ops {
		if op.Remove != wantRemove[i] {
			t.Fatalf("op %d remove = %v", i, op.Remove)
		}
	}
}

func TestProppatchComplexValue(t *testing.T) {
	// Property values may be arbitrary XML structures.
	body := []byte(`<D:propertyupdate xmlns:D="DAV:" xmlns:e="ecce:">
	  <D:set><D:prop>
	    <e:geometry><e:atom sym="U" x="0" y="0" z="0"/><e:atom sym="O" x="1.8" y="0" z="0"/></e:geometry>
	  </D:prop></D:set>
	</D:propertyupdate>`)
	ops, err := ParseProppatch(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	atoms := ops[0].Prop.XML.FindAll("ecce:", "atom")
	if len(atoms) != 2 {
		t.Fatalf("atoms = %d, want 2", len(atoms))
	}
	if sym, _ := atoms[1].Attr("", "sym"); sym != "O" {
		t.Fatalf("atom sym = %q", sym)
	}
}

func TestPropertyEncodeDecode(t *testing.T) {
	p := NewTextProperty("ecce:", "formula", "H2O")
	back, err := DecodeProperty(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != p.Name() || back.Text() != "H2O" {
		t.Fatalf("decode = %v %q", back.Name(), back.Text())
	}
}

func TestMultistatusRoundTrip(t *testing.T) {
	ms := Multistatus{Responses: []Response{
		{
			Href: "/calc/mol.xyz",
			Propstats: []Propstat{
				{Status: http.StatusOK, Props: []Property{
					NewTextProperty("ecce:", "formula", "UO2H30O15"),
					NewTextProperty(NS, "getcontentlength", "1234"),
				}},
				{Status: http.StatusNotFound, Props: []Property{
					{XML: xmldom.NewElement("ecce:", "missing")},
				}},
			},
		},
		{Href: "/calc/gone", Status: http.StatusLocked},
	}}
	out := ms.Marshal()
	got, err := ParseMultistatus(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("ParseMultistatus: %v\n%s", err, out)
	}
	if len(got.Responses) != 2 {
		t.Fatalf("responses = %d", len(got.Responses))
	}
	r0 := got.Responses[0]
	if r0.Href != "/calc/mol.xyz" || len(r0.Propstats) != 2 {
		t.Fatalf("r0 = %+v", r0)
	}
	byName := PropsByName(r0.Propstats)
	if p, ok := byName[xml.Name{Space: "ecce:", Local: "formula"}]; !ok || p.Text() != "UO2H30O15" {
		t.Fatalf("formula = %+v ok=%v", p, ok)
	}
	if _, ok := byName[xml.Name{Space: "ecce:", Local: "missing"}]; ok {
		t.Fatal("404 props must not appear in PropsByName")
	}
	if got.Responses[1].Status != http.StatusLocked {
		t.Fatalf("r1 status = %d", got.Responses[1].Status)
	}
}

func TestStatusLineRoundTrip(t *testing.T) {
	for _, code := range []int{200, 207, 404, 423, 507} {
		got, err := ParseStatusLine(StatusLine(code))
		if err != nil || got != code {
			t.Fatalf("status %d round trip = (%d, %v)", code, got, err)
		}
	}
	if _, err := ParseStatusLine("garbage"); err == nil {
		t.Fatal("bad status line should error")
	}
	if _, err := ParseStatusLine("HTTP/1.1 abc OK"); err == nil {
		t.Fatal("non-numeric status should error")
	}
}

func TestLockInfoRoundTrip(t *testing.T) {
	for _, scope := range []LockScope{LockExclusive, LockShared} {
		li := LockInfo{Scope: scope, Owner: "karen@pnnl"}
		got, ok, err := ParseLockInfo(bytes.NewReader(MarshalLockInfo(li)))
		if err != nil || !ok {
			t.Fatalf("ParseLockInfo: ok=%v err=%v", ok, err)
		}
		if got.Scope != scope || got.Owner != "karen@pnnl" {
			t.Fatalf("got %+v, want %+v", got, li)
		}
	}
}

func TestParseLockInfoEmptyMeansRefresh(t *testing.T) {
	_, ok, err := ParseLockInfo(strings.NewReader(""))
	if err != nil || ok {
		t.Fatalf("empty lock body = ok=%v err=%v, want refresh", ok, err)
	}
}

func TestActiveLockXMLRoundTrip(t *testing.T) {
	al := ActiveLock{
		Token:   "opaquelocktoken:12345-abcde",
		Scope:   LockShared,
		Owner:   "eric",
		Depth:   Depth0,
		Timeout: 600 * time.Second,
	}
	got, err := ActiveLockFromXML(al.ToXML())
	if err != nil {
		t.Fatal(err)
	}
	if got.Token != al.Token || got.Scope != al.Scope || got.Owner != al.Owner ||
		got.Depth != al.Depth || got.Timeout != al.Timeout {
		t.Fatalf("got %+v, want %+v", got, al)
	}
}

func TestTimeoutParsing(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"Second-600", 600 * time.Second, true},
		{"Infinite", 0, true},
		{"infinite", 0, true},
		{"", 0, true},
		{"Second-3600, Infinite", 3600 * time.Second, true},
		{"Second-x", 0, false},
		{"Minutes-5", 0, false},
	}
	for _, c := range cases {
		got, err := ParseTimeout(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseTimeout(%q) = (%v, %v), want (%v, ok=%v)", c.in, got, err, c.want, c.ok)
		}
	}
	if FormatTimeout(0) != "Infinite" || FormatTimeout(90*time.Second) != "Second-90" {
		t.Fatal("FormatTimeout mismatch")
	}
}

func TestParseIfTokens(t *testing.T) {
	h := `(<opaquelocktoken:aaa-bbb>) (<opaquelocktoken:ccc>)`
	got := ParseIfTokens(h)
	want := []string{"opaquelocktoken:aaa-bbb", "opaquelocktoken:ccc"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tokens = %v, want %v", got, want)
	}
	if got := ParseIfTokens("no tokens here"); got != nil {
		t.Fatalf("tokens = %v, want none", got)
	}
}

func TestIsLiveProp(t *testing.T) {
	if !IsLiveProp(PropGetContentLength) {
		t.Fatal("getcontentlength is live")
	}
	if IsLiveProp(xml.Name{Space: "ecce:", Local: "formula"}) {
		t.Fatal("ecce:formula is dead")
	}
}

// randomName yields plausible XML names for property testing.
func randomName(rng *rand.Rand) xml.Name {
	spaces := []string{NS, "ecce:", "urn:other", "http://example.org/ns"}
	locals := []string{"alpha", "beta", "gamma", "delta", "formula", "charge"}
	return xml.Name{Space: spaces[rng.Intn(len(spaces))], Local: locals[rng.Intn(len(locals))]}
}

// TestQuickMultistatusRoundTrip: Marshal→Parse is the identity on
// arbitrary multistatus values.
func TestQuickMultistatusRoundTrip(t *testing.T) {
	statuses := []int{200, 403, 404, 423, 507}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ms Multistatus
		for i := rng.Intn(5) + 1; i > 0; i-- {
			var r Response
			r.Href = "/res/" + string(rune('a'+rng.Intn(26)))
			for j := rng.Intn(3); j > 0; j-- {
				ps := Propstat{Status: statuses[rng.Intn(len(statuses))]}
				for k := rng.Intn(4) + 1; k > 0; k-- {
					name := randomName(rng)
					ps.Props = append(ps.Props, NewTextProperty(name.Space, name.Local, "v"))
				}
				r.Propstats = append(r.Propstats, ps)
			}
			if len(r.Propstats) == 0 {
				r.Status = statuses[rng.Intn(len(statuses))]
			}
			ms.Responses = append(ms.Responses, r)
		}
		got, err := ParseMultistatus(bytes.NewReader(ms.Marshal()))
		if err != nil {
			t.Logf("parse: %v", err)
			return false
		}
		if len(got.Responses) != len(ms.Responses) {
			return false
		}
		for i, r := range ms.Responses {
			gr := got.Responses[i]
			if gr.Href != r.Href || len(gr.Propstats) != len(r.Propstats) {
				return false
			}
			if len(r.Propstats) == 0 && gr.Status != r.Status {
				return false
			}
			for j, ps := range r.Propstats {
				gps := gr.Propstats[j]
				if gps.Status != ps.Status || len(gps.Props) != len(ps.Props) {
					return false
				}
				for k, p := range ps.Props {
					if gps.Props[k].Name() != p.Name() || gps.Props[k].Text() != p.Text() {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// table1Multistatus is the 207 the paper's Table 1 row moves, as davd
// writes it: 51 responses x 5 properties x 1 KiB, each property with
// its own namespace declaration.
func table1Multistatus() []byte {
	var buf bytes.Buffer
	buf.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n" + `<D:multistatus xmlns:D="DAV:">`)
	for i := 0; i < 51; i++ {
		fmt.Fprintf(&buf, `<D:response><D:href>/sweep/doc%02d</D:href><D:propstat><D:prop>`, i)
		for j := 0; j < 5; j++ {
			fmt.Fprintf(&buf, `<ns0:prop%02d xmlns:ns0="urn:ecce">%s</ns0:prop%02d>`, j, strings.Repeat("v", 1024), j)
		}
		buf.WriteString(`</D:prop><D:status>HTTP/1.1 200 OK</D:status></D:propstat></D:response>`)
	}
	buf.WriteString(`</D:multistatus>`)
	return buf.Bytes()
}

// TestParseMultistatusAllocations keeps the DOM path from growing back
// the copies it shed: one node, one name-independent text string and
// the odd slice per element, no second tree. Measured 1,838 when
// written (6,582 per whole PROPFIND before the tokenizer).
func TestParseMultistatusAllocations(t *testing.T) {
	body := table1Multistatus()
	ms, err := ParseMultistatus(bytes.NewReader(body))
	if err != nil || len(ms.Responses) != 51 || len(ms.Responses[50].Propstats[0].Props) != 5 {
		t.Fatalf("parse: %v, %d responses", err, len(ms.Responses))
	}
	if p := ms.Responses[0].Propstats[0].Props[0].XML; p.Parent != nil || len(p.Text) != 1024 {
		t.Fatalf("property not detached or not whole: parent %v, %d bytes", p.Parent, len(p.Text))
	}
	const ceiling = 2200
	if n := testing.AllocsPerRun(10, func() { ParseMultistatus(bytes.NewReader(body)) }); n > ceiling {
		t.Errorf("%v allocations per Table 1 body, ceiling %d", n, ceiling)
	} else {
		t.Logf("%v allocations per Table 1 body", n)
	}
}
