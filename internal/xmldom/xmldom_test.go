package xmldom

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

const sample = `<?xml version="1.0"?>
<D:multistatus xmlns:D="DAV:" xmlns:e="ecce:">
  <D:response>
    <D:href>/calc/molecule</D:href>
    <D:propstat>
      <D:prop>
        <e:formula>UO2H30O15</e:formula>
        <e:charge>2</e:charge>
      </D:prop>
      <D:status>HTTP/1.1 200 OK</D:status>
    </D:propstat>
  </D:response>
</D:multistatus>`

func TestParseResolvesNamespaces(t *testing.T) {
	root, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	if root.Name.Space != "DAV:" || root.Name.Local != "multistatus" {
		t.Fatalf("root = %v", root.Name)
	}
	f := root.FindPath("DAV:|response", "DAV:|propstat", "DAV:|prop", "ecce:|formula")
	if f == nil {
		t.Fatal("formula element not found")
	}
	if f.Text != "UO2H30O15" {
		t.Fatalf("formula text = %q", f.Text)
	}
}

func TestFindSemantics(t *testing.T) {
	root, _ := ParseString(`<a xmlns:x="X:"><b>1</b><x:b>2</x:b><c/></a>`)
	if n := root.Find("", "b"); n == nil || n.Text != "1" {
		t.Fatalf("Find any-namespace b = %v", n)
	}
	if n := root.Find("X:", "b"); n == nil || n.Text != "2" {
		t.Fatalf("Find X: b = %v", n)
	}
	if n := root.Find("Y:", "b"); n != nil {
		t.Fatalf("Find Y: b = %v, want nil", n)
	}
	if got := len(root.FindAll("", "b")); got != 2 {
		t.Fatalf("FindAll any b = %d, want 2", got)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	root, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	out := Marshal(root)
	root2, err := ParseBytes(out)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	if !treeEqual(root, root2) {
		t.Fatalf("round trip changed tree:\n%s\nvs\n%s", Marshal(root), Marshal(root2))
	}
}

// treeEqual compares names, trimmed text, attrs and recursive children.
func treeEqual(a, b *Node) bool {
	if a.Name != b.Name || strings.TrimSpace(a.Text) != strings.TrimSpace(b.Text) {
		return false
	}
	if len(a.Children) != len(b.Children) || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	if !reflect.DeepEqual(a.Attrs, b.Attrs) {
		return false
	}
	for i := range a.Children {
		if !treeEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

func TestMarshalEscapes(t *testing.T) {
	n := NewTextElement("ecce:", "note", `a<b & "c" >d`)
	n.SetAttr("", "tag", `x<y&"z"`)
	out := Marshal(n)
	back, err := ParseBytes(out)
	if err != nil {
		t.Fatalf("reparse escaped: %v\n%s", err, out)
	}
	if back.Text != n.Text {
		t.Fatalf("text = %q, want %q", back.Text, n.Text)
	}
	if v, _ := back.Attr("", "tag"); v != `x<y&"z"` {
		t.Fatalf("attr = %q", v)
	}
}

func TestMarshalWellKnownPrefix(t *testing.T) {
	n := NewElement("DAV:", "propfind")
	n.Add("DAV:", "allprop")
	s := MarshalString(n)
	if !strings.Contains(s, `xmlns:D="DAV:"`) || !strings.HasPrefix(s, "<D:propfind") {
		t.Fatalf("DAV: should serialize with the conventional D prefix: %s", s)
	}
}

func TestEmptyAndSelfClosing(t *testing.T) {
	n := NewElement("DAV:", "allprop")
	if s := MarshalString(n); !strings.HasSuffix(s, "/>") {
		t.Fatalf("childless element should self-close: %s", s)
	}
	root, err := ParseString(`<a><b/><c></c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(root.Children))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,                 // empty
		`<a><b></a>`,       // mismatched
		`<a></a><b></b>`,   // multiple roots
		`<a>`,              // unterminated
		`not xml at all<>`, // junk
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", c)
		}
	}
}

func TestTextContentRecursive(t *testing.T) {
	root, _ := ParseString(`<a>one<b>two<c>three</c></b>four</a>`)
	got := root.TextContent()
	// Document order: direct text of a ("one...four" split), then b, c.
	for _, part := range []string{"one", "two", "three", "four"} {
		if !strings.Contains(got, part) {
			t.Fatalf("TextContent %q missing %q", got, part)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	root, _ := ParseString(`<a x="1"><b>t</b></a>`)
	c := root.Clone()
	c.Children[0].Text = "changed"
	c.SetAttr("", "x", "2")
	if root.Children[0].Text != "t" {
		t.Fatal("Clone shares child text")
	}
	if v, _ := root.Attr("", "x"); v != "1" {
		t.Fatal("Clone shares attrs")
	}
	if c.Parent != nil {
		t.Fatal("Clone should have nil parent")
	}
}

func TestWalkSkipsSubtree(t *testing.T) {
	root, _ := ParseString(`<a><skip><deep/></skip><keep/></a>`)
	var visited []string
	root.Walk(func(n *Node) bool {
		visited = append(visited, n.Name.Local)
		return n.Name.Local != "skip"
	})
	want := []string{"a", "skip", "keep"}
	if !reflect.DeepEqual(visited, want) {
		t.Fatalf("visited %v, want %v", visited, want)
	}
}

func TestSAXEventOrder(t *testing.T) {
	var events []string
	h := SAXHandler{
		StartElement: func(name xml.Name, attrs []xml.Attr) error {
			events = append(events, "S:"+name.Local)
			return nil
		},
		EndElement: func(name xml.Name) error {
			events = append(events, "E:"+name.Local)
			return nil
		},
		CharData: func(data []byte) error {
			if s := strings.TrimSpace(string(data)); s != "" {
				events = append(events, "T:"+s)
			}
			return nil
		},
	}
	if err := ScanSAX(strings.NewReader(`<a><b>x</b><c/></a>`), h); err != nil {
		t.Fatal(err)
	}
	want := []string{"S:a", "S:b", "T:x", "E:b", "S:c", "E:c", "E:a"}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("events %v, want %v", events, want)
	}
}

func TestSAXAbort(t *testing.T) {
	stop := fmt.Errorf("stop")
	n := 0
	h := SAXHandler{StartElement: func(xml.Name, []xml.Attr) error {
		n++
		if n == 2 {
			return stop
		}
		return nil
	}}
	err := ScanSAX(strings.NewReader(`<a><b/><c/></a>`), h)
	if err != stop {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if n != 2 {
		t.Fatalf("started %d elements, want 2", n)
	}
}

func TestSAXUnbalanced(t *testing.T) {
	if err := ScanSAX(strings.NewReader(`<a><b>`), SAXHandler{}); err == nil {
		t.Fatal("unbalanced document should error")
	}
}

func TestPathCollector(t *testing.T) {
	var leaves []string
	pc := &PathCollector{
		Leave: func(path []xml.Name, text []byte) error {
			if s := strings.TrimSpace(string(text)); s != "" {
				parts := make([]string, len(path))
				for i, p := range path {
					parts[i] = p.Local
				}
				leaves = append(leaves, strings.Join(parts, "/")+"="+s)
			}
			return nil
		},
	}
	err := ScanSAX(strings.NewReader(`<a><b><c>1</c></b><d>2</d></a>`), pc.Handler())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a/b/c=1", "a/d=2"}
	if !reflect.DeepEqual(leaves, want) {
		t.Fatalf("leaves %v, want %v", leaves, want)
	}
	if pc.Depth() != 0 {
		t.Fatalf("final depth = %d", pc.Depth())
	}
}

// randomTree builds an arbitrary small tree for property testing.
func randomTree(rng *rand.Rand, depth int) *Node {
	names := []string{"alpha", "beta", "gamma", "delta"}
	spaces := []string{"", "DAV:", "ecce:", "urn:x"}
	n := NewElement(spaces[rng.Intn(len(spaces))], names[rng.Intn(len(names))])
	if rng.Intn(2) == 0 {
		n.Text = fmt.Sprintf("text-%d", rng.Intn(100))
	}
	if rng.Intn(3) == 0 {
		n.SetAttr("", "k", fmt.Sprintf("v%d", rng.Intn(10)))
	}
	if depth > 0 {
		for i := rng.Intn(3); i > 0; i-- {
			n.AppendChild(randomTree(rng, depth-1))
		}
	}
	return n
}

// TestQuickMarshalParseIdentity: Parse(Marshal(t)) == t for arbitrary
// trees.
func TestQuickMarshalParseIdentity(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tree := randomTree(rng, 3)
		out := Marshal(tree)
		back, err := ParseBytes(out)
		if err != nil {
			t.Logf("reparse: %v\n%s", err, out)
			return false
		}
		if !treeEqual(tree, back) {
			t.Logf("tree mismatch:\n%s\nvs\n%s", out, Marshal(back))
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTextRoundTrip: arbitrary printable text survives marshal +
// parse.
func TestQuickTextRoundTrip(t *testing.T) {
	check := func(text string) bool {
		// encoding/xml cannot represent most control characters; the
		// DOM inherits that restriction, so restrict to sane runes.
		clean := strings.Map(func(r rune) rune {
			if r < 0x20 && r != '\t' && r != '\n' {
				return -1
			}
			if r == 0xFFFD || !isValidXMLRune(r) {
				return -1
			}
			return r
		}, text)
		n := NewTextElement("", "t", clean)
		back, err := ParseBytes(Marshal(n))
		if err != nil {
			t.Logf("parse: %v", err)
			return false
		}
		// \r\n normalization is permitted by XML; compare normalized.
		norm := strings.ReplaceAll(clean, "\r", "\n")
		got := strings.ReplaceAll(back.Text, "\r", "\n")
		if got != norm {
			t.Logf("text %q -> %q", clean, back.Text)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func isValidXMLRune(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		(r >= 0x20 && r <= 0xD7FF) ||
		(r >= 0xE000 && r <= 0xFFFD) ||
		(r >= 0x10000 && r <= 0x10FFFF)
}

func buildBigDoc(responses int) string {
	var sb strings.Builder
	sb.WriteString(`<D:multistatus xmlns:D="DAV:" xmlns:e="ecce:">`)
	for i := 0; i < responses; i++ {
		fmt.Fprintf(&sb, `<D:response><D:href>/calc/doc%d</D:href><D:propstat><D:prop>`, i)
		for j := 0; j < 5; j++ {
			fmt.Fprintf(&sb, `<e:prop%d>%s</e:prop%d>`, j, strings.Repeat("v", 64), j)
		}
		sb.WriteString(`</D:prop><D:status>HTTP/1.1 200 OK</D:status></D:propstat></D:response>`)
	}
	sb.WriteString(`</D:multistatus>`)
	return sb.String()
}

// The parser benchmarks run over two bodies: 50 responses of 64-byte
// values, and the body the paper's Table 1 row moves, whose ns/op is
// what the repo benchmark reports as xmldom.parse_ms_per_body and
// xmldom.sax_ms_per_body.
var benchBodies = []struct {
	name string
	doc  []byte
}{
	{"64B", []byte(buildBigDoc(50))},
	{"table1", table1Body()},
}

func BenchmarkParseDOM(b *testing.B) {
	for _, body := range benchBodies {
		b.Run(body.name, func(b *testing.B) {
			b.SetBytes(int64(len(body.doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ParseBytes(body.doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScanSAX(b *testing.B) {
	h := SAXHandler{CharData: func([]byte) error { return nil }}
	for _, body := range benchBodies {
		b.Run(body.name, func(b *testing.B) {
			b.SetBytes(int64(len(body.doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ScanSAX(bytes.NewReader(body.doc), h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
