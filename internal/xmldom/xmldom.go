// Package xmldom provides a small XML document object model (DOM) and
// a SAX-style scanner over one tokenizer of its own, which takes the
// document as a byte slice and decides and reports exactly what
// encoding/xml's Decoder would, ten times as fast (DESIGN §16).
//
// The HPDC 2001 Ecce paper used the Xerces 1.3 DOM parser on the client
// and attributed most of the client-side cost of bulk PROPFIND
// operations to building in-memory DOM trees; it predicted significant
// gains from switching to a SAX-style parser. This package supplies
// both so that prediction can be measured (see the DOM-vs-SAX ablation
// bench).
//
// The DOM is deliberately minimal: elements, attributes, and character
// data. Namespaces are resolved during parsing (every Node carries a
// fully resolved xml.Name); serialization re-introduces prefixes.
package xmldom

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Node is an XML element: a resolved name, attributes, character data
// that appeared directly inside the element, and child elements.
type Node struct {
	Name     xml.Name
	Attrs    []xml.Attr
	Text     string // concatenated character data directly under this element
	Children []*Node
	Parent   *Node `xml:"-"`
}

// NewElement returns a childless element with the given namespace and
// local name.
func NewElement(space, local string) *Node {
	return &Node{Name: xml.Name{Space: space, Local: local}}
}

// NewTextElement returns an element whose content is the given text.
func NewTextElement(space, local, text string) *Node {
	n := NewElement(space, local)
	n.Text = text
	return n
}

// AppendChild adds c as the last child of n and returns c.
func (n *Node) AppendChild(c *Node) *Node {
	c.Parent = n
	n.Children = append(n.Children, c)
	return c
}

// Add creates an element with the given name under n and returns it.
func (n *Node) Add(space, local string) *Node {
	return n.AppendChild(NewElement(space, local))
}

// AddText creates a text element under n and returns it.
func (n *Node) AddText(space, local, text string) *Node {
	return n.AppendChild(NewTextElement(space, local, text))
}

// Find returns the first direct child with the given namespace and
// local name, or nil. An empty space matches any namespace.
func (n *Node) Find(space, local string) *Node {
	for _, c := range n.Children {
		if c.Name.Local == local && (space == "" || c.Name.Space == space) {
			return c
		}
	}
	return nil
}

// FindAll returns all direct children matching the namespace and local
// name. An empty space matches any namespace.
func (n *Node) FindAll(space, local string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Name.Local == local && (space == "" || c.Name.Space == space) {
			out = append(out, c)
		}
	}
	return out
}

// FindPath descends through the tree following a sequence of
// (space, local) pairs expressed as "space|local" or plain "local"
// steps, returning the first match or nil.
func (n *Node) FindPath(steps ...string) *Node {
	cur := n
	for _, s := range steps {
		space, local := "", s
		if i := strings.LastIndex(s, "|"); i >= 0 {
			space, local = s[:i], s[i+1:]
		}
		cur = cur.Find(space, local)
		if cur == nil {
			return nil
		}
	}
	return cur
}

// Walk calls fn for n and every descendant in document order. If fn
// returns false for a node, its subtree is skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Attr returns the value of the named attribute, and whether it is
// present. An empty space matches any namespace.
func (n *Node) Attr(space, local string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name.Local == local && (space == "" || a.Name.Space == space) {
			return a.Value, true
		}
	}
	return "", false
}

// SetAttr sets (or replaces) an attribute.
func (n *Node) SetAttr(space, local, value string) {
	for i, a := range n.Attrs {
		if a.Name.Local == local && a.Name.Space == space {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, xml.Attr{Name: xml.Name{Space: space, Local: local}, Value: value})
}

// TextContent returns the concatenation of all character data in the
// subtree rooted at n, in document order.
func (n *Node) TextContent() string {
	var sb strings.Builder
	n.Walk(func(c *Node) bool {
		sb.WriteString(c.Text)
		return true
	})
	return sb.String()
}

// Clone returns a deep copy of the subtree rooted at n. The copy's
// Parent is nil.
func (n *Node) Clone() *Node {
	c := &Node{Name: n.Name, Text: n.Text}
	c.Attrs = append([]xml.Attr(nil), n.Attrs...)
	for _, child := range n.Children {
		c.AppendChild(child.Clone())
	}
	return c
}

// Parse reads an XML document whole and returns its root element.
func Parse(r io.Reader) (*Node, error) {
	b, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmldom: %w", err)
	}
	return ParseBytes(b)
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Node, error) { return ParseBytes([]byte(s)) }

// ParseBytes parses an XML document held in a byte slice, which it
// only reads.
func ParseBytes(b []byte) (*Node, error) {
	var root, cur *Node
	err := scan(b, SAXHandler{
		StartElement: func(name xml.Name, attrs []xml.Attr) error {
			n := &Node{Name: name, Attrs: attrs}
			switch {
			case cur != nil:
				cur.AppendChild(n)
			case root != nil:
				return errors.New("xmldom: multiple root elements")
			default:
				root = n
			}
			cur = n
			return nil
		},
		EndElement: func(xml.Name) error {
			cur = cur.Parent
			return nil
		},
		// Character data outside the root element is checked, then dropped.
		CharData: func(data []byte) error {
			if cur != nil {
				cur.Text += string(data)
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	if root == nil {
		return nil, errors.New("xmldom: empty document")
	}
	return root, nil
}

// wellKnownPrefixes maps namespaces to conventional prefixes used when
// serializing.
var wellKnownPrefixes = map[string]string{
	"DAV:": "D",
}

// Marshal serializes the subtree rooted at n as a self-contained XML
// fragment: every namespace used anywhere in the subtree is declared
// on the root element.
func Marshal(n *Node) []byte {
	var buf bytes.Buffer
	MarshalTo(&buf, n)
	return buf.Bytes()
}

// MarshalString is Marshal returning a string.
func MarshalString(n *Node) string { return string(Marshal(n)) }

// MarshalDocument serializes n preceded by an XML declaration.
func MarshalDocument(n *Node) []byte {
	var buf bytes.Buffer
	buf.WriteString(xml.Header)
	MarshalTo(&buf, n)
	return buf.Bytes()
}

// MarshalTo writes the serialized subtree to w.
func MarshalTo(w io.Writer, n *Node) {
	prefixes := assignPrefixes(n)
	// A caller already assembling into a buffer gets the bytes there
	// directly, not through a private one that is then copied.
	if buf, ok := w.(*bytes.Buffer); ok {
		writeNode(buf, n, prefixes, true)
		return
	}
	var buf bytes.Buffer
	writeNode(&buf, n, prefixes, true)
	w.Write(buf.Bytes())
}

// assignPrefixes collects every namespace in the subtree and assigns a
// prefix to each. The empty namespace maps to the empty prefix.
func assignPrefixes(n *Node) map[string]string {
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
		if p, ok := wellKnownPrefixes[s]; ok && !used[p] {
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

func qname(name xml.Name, prefixes map[string]string) string {
	if name.Space == "" {
		return name.Local
	}
	return prefixes[name.Space] + ":" + name.Local
}

func writeNode(buf *bytes.Buffer, n *Node, prefixes map[string]string, root bool) {
	buf.WriteByte('<')
	buf.WriteString(qname(n.Name, prefixes))
	if root {
		// Declare every namespace on the root so the fragment is
		// self-contained.
		ordered := make([]string, 0, len(prefixes))
		for s := range prefixes {
			ordered = append(ordered, s)
		}
		sort.Strings(ordered)
		for _, s := range ordered {
			fmt.Fprintf(buf, ` xmlns:%s="%s"`, prefixes[s], escapeAttr(s))
		}
	}
	for _, a := range n.Attrs {
		fmt.Fprintf(buf, ` %s="%s"`, qname(a.Name, prefixes), escapeAttr(a.Value))
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
		writeNode(buf, c, prefixes, false)
	}
	buf.WriteString("</")
	buf.WriteString(qname(n.Name, prefixes))
	buf.WriteByte('>')
}

func escapeAttr(s string) string {
	var buf bytes.Buffer
	xml.EscapeText(&buf, []byte(s))
	return strings.ReplaceAll(buf.String(), `"`, "&quot;")
}
