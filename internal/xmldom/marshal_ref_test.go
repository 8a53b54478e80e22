package xmldom

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// The serializer this package shipped before its writer stopped
// allocating: three maps to assign prefixes, fmt for each declaration
// and attribute, and xml.EscapeText through a private buffer for each
// escaped string. Kept, unchanged, as the reference
// FuzzMarshalAgreesWithReference holds MarshalTo to.

func refMarshal(n *Node) []byte {
	var buf bytes.Buffer
	refWriteNode(&buf, n, refAssignPrefixes(n), true)
	return buf.Bytes()
}

var refWellKnownPrefixes = map[string]string{
	"DAV:": "D",
}

func refAssignPrefixes(n *Node) map[string]string {
	spaces := map[string]bool{}
	n.Walk(func(c *Node) bool {
		if c.Name.Space != "" {
			spaces[c.Name.Space] = true
		}
		for _, a := range c.Attrs {
			if a.Name.Space != "" {
				spaces[a.Name.Space] = true
			}
		}
		return true
	})
	ordered := make([]string, 0, len(spaces))
	for s := range spaces {
		ordered = append(ordered, s)
	}
	sort.Strings(ordered)
	prefixes := map[string]string{}
	used := map[string]bool{}
	i := 0
	for _, s := range ordered {
		if p, ok := refWellKnownPrefixes[s]; ok && !used[p] {
			prefixes[s] = p
			used[p] = true
			continue
		}
		for {
			p := fmt.Sprintf("ns%d", i)
			i++
			if !used[p] {
				prefixes[s] = p
				used[p] = true
				break
			}
		}
	}
	return prefixes
}

func refQname(name xml.Name, prefixes map[string]string) string {
	if name.Space == "" {
		return name.Local
	}
	return prefixes[name.Space] + ":" + name.Local
}

func refWriteNode(buf *bytes.Buffer, n *Node, prefixes map[string]string, root bool) {
	buf.WriteByte('<')
	buf.WriteString(refQname(n.Name, prefixes))
	if root {
		ordered := make([]string, 0, len(prefixes))
		for s := range prefixes {
			ordered = append(ordered, s)
		}
		sort.Strings(ordered)
		for _, s := range ordered {
			fmt.Fprintf(buf, ` xmlns:%s="%s"`, prefixes[s], refEscapeAttr(s))
		}
	}
	for _, a := range n.Attrs {
		fmt.Fprintf(buf, ` %s="%s"`, refQname(a.Name, prefixes), refEscapeAttr(a.Value))
	}
	if n.Text == "" && len(n.Children) == 0 {
		buf.WriteString("/>")
		return
	}
	buf.WriteByte('>')
	if n.Text != "" {
		xml.EscapeText(buf, []byte(n.Text))
	}
	for _, c := range n.Children {
		refWriteNode(buf, c, prefixes, false)
	}
	buf.WriteString("</")
	buf.WriteString(refQname(n.Name, prefixes))
	buf.WriteByte('>')
}

func refEscapeAttr(s string) string {
	var buf bytes.Buffer
	xml.EscapeText(&buf, []byte(s))
	return strings.ReplaceAll(buf.String(), `"`, "&quot;")
}

// treeGen builds an element tree from fuzz bytes. Names and values come
// from small pools that hold the cases the writer must get right, or,
// when a byte's top bit is set, straight from the input, so arbitrary
// bytes (control characters, invalid UTF-8) reach every string.
type treeGen struct{ b []byte }

var (
	genSpaces = []string{"", "DAV:", "ecce:", "http://example.org/ns", `a"b`, "x&y<z>", "\x01ctl\t",
		"\xff\xfe", "ns0", "D", "é:", "\U0001F600"}
	genLocals = []string{"prop", "getetag", "a", "x1", "multistatus"}
	genTexts  = []string{"", "plain", `q"uote' & <tag> ]]>`, "\t\n\r", "\x00\x1f\x7f", "\xff", "�",
		"\xef\xbf\xbd", "é", "\U0001F600", "퟿\U0010FFFF"}
)

func (g *treeGen) next() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *treeGen) str(pool []string) string {
	c := g.next()
	if c&0x80 == 0 {
		return pool[int(c)%len(pool)]
	}
	n := min(int(c&0x0f), len(g.b))
	s := string(g.b[:n])
	g.b = g.b[n:]
	return s
}

func (g *treeGen) node(depth int) *Node {
	n := NewElement(g.str(genSpaces), g.str(genLocals))
	for k := g.next() % 3; k > 0; k-- {
		n.Attrs = append(n.Attrs, xml.Attr{
			Name:  xml.Name{Space: g.str(genSpaces), Local: g.str(genLocals)},
			Value: g.str(genTexts),
		})
	}
	n.Text = g.str(genTexts)
	if depth < 4 {
		for k := g.next() % 4; k > 0; k-- {
			n.AppendChild(g.node(depth + 1))
		}
	}
	return n
}

// onlyWriter hides a *bytes.Buffer, so MarshalTo takes its other path.
type onlyWriter struct{ buf *bytes.Buffer }

func (w onlyWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

// FuzzMarshalAgreesWithReference: for any tree, MarshalTo writes the
// bytes the reference serializer writes, into a *bytes.Buffer and into
// any other writer.
func FuzzMarshalAgreesWithReference(f *testing.F) {
	for _, seed := range []string{
		"",                 // a leaf in the empty namespace
		"\x01\x01\x00\x00", // <D:getetag xmlns:D="DAV:"/>
		"\x02\x00\x00\x00", // a leaf in a foreign namespace
		"\x04\x02\x01\x05\x02\x03\x02\x02\x01\x02\x00\x00", // quoted namespace, attributes, children
		"\x01\x00\x02\x02\x00\x00\x03\x07\x00\x01\x03\x02\x04\x00\x00\x08\x01\x00\x00",
		"\x83\xff\x22\x26\x00\x8400\xfe<\x01\x82\xc3\x28\x02\x85\x00\x01\x1b&\"",
		"\x09\x08\x02\x08\x00\x03\x0a\x03\x01\x01\x00\x05\x01\x0a\x0b\x00", // ns0, D, é: beside DAV:
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		g := &treeGen{b: b}
		n := g.node(0)
		want := refMarshal(n)
		if got := Marshal(n); !bytes.Equal(got, want) {
			t.Fatalf("Marshal\n got %q\nwant %q", got, want)
		}
		var other bytes.Buffer
		MarshalTo(onlyWriter{&other}, n)
		if !bytes.Equal(other.Bytes(), want) {
			t.Fatalf("MarshalTo(io.Writer)\n got %q\nwant %q", other.Bytes(), want)
		}
	})
}

// TestMarshalLeafAllocs: a childless element without attributes, as a
// 404 propstat or a propname listing writes one per name, costs no heap
// allocation, in any namespace.
func TestMarshalLeafAllocs(t *testing.T) {
	buf := new(bytes.Buffer)
	buf.Grow(1 << 10)
	for _, space := range []string{"", "DAV:", "ecce:", `x"&<`} {
		allocs := testing.AllocsPerRun(100, func() {
			buf.Reset()
			MarshalTo(buf, NewElement(space, "getetag"))
		})
		if allocs != 0 {
			t.Errorf("leaf in %q: %v allocations, want 0", space, allocs)
		}
	}
}
