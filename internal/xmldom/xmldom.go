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
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
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
	// A caller already assembling into a buffer gets the bytes there
	// directly, not through a private one that is then copied.
	if buf, ok := w.(*bytes.Buffer); ok {
		marshal(buf, n)
		return
	}
	var buf bytes.Buffer
	marshal(&buf, n)
	w.Write(buf.Bytes())
}

// nsPrefix is one namespace a subtree uses and the prefix it is written
// with: D for DAV:, ns<n> for the others.
type nsPrefix struct {
	space string
	n     int // -1 for D
}

// davPrefixed is the one namespace with a conventional prefix.
const davPrefixed = "DAV:"

// marshal writes n with every namespace its subtree uses declared on
// it. A leaf, or a tree of up to four namespaces, costs no allocation.
func marshal(buf *bytes.Buffer, n *Node) {
	var small [4]nsPrefix
	spaces := collectSpaces(small[:0], n)
	k := 0
	for i := range spaces {
		if spaces[i].space == davPrefixed {
			spaces[i].n = -1
			continue
		}
		spaces[i].n = k
		k++
	}
	writeNode(buf, n, spaces, true)
}

// collectSpaces adds every namespace of the subtree rooted at n to
// spaces, which it keeps sorted and free of duplicates. The empty
// namespace is left out: it is written without a prefix.
func collectSpaces(spaces []nsPrefix, n *Node) []nsPrefix {
	spaces = addSpace(spaces, n.Name.Space)
	for _, a := range n.Attrs {
		spaces = addSpace(spaces, a.Name.Space)
	}
	for _, c := range n.Children {
		spaces = collectSpaces(spaces, c)
	}
	return spaces
}

func addSpace(spaces []nsPrefix, s string) []nsPrefix {
	if s == "" {
		return spaces
	}
	i, found := slices.BinarySearchFunc(spaces, s, compareSpace)
	if found {
		return spaces
	}
	return slices.Insert(spaces, i, nsPrefix{space: s})
}

func compareSpace(p nsPrefix, s string) int { return strings.Compare(p.space, s) }

// writeName writes name as prefix:local, or local alone in the empty
// namespace.
func writeName(buf *bytes.Buffer, name xml.Name, spaces []nsPrefix) {
	if name.Space != "" {
		i, _ := slices.BinarySearchFunc(spaces, name.Space, compareSpace)
		writePrefix(buf, spaces[i].n)
		buf.WriteByte(':')
	}
	buf.WriteString(name.Local)
}

func writePrefix(buf *bytes.Buffer, n int) {
	if n < 0 {
		buf.WriteByte('D')
		return
	}
	buf.WriteString("ns")
	buf.Write(strconv.AppendInt(buf.AvailableBuffer(), int64(n), 10))
}

func writeNode(buf *bytes.Buffer, n *Node, spaces []nsPrefix, root bool) {
	buf.WriteByte('<')
	writeName(buf, n.Name, spaces)
	if root {
		// Declare every namespace on the root so the fragment is
		// self-contained.
		for _, s := range spaces {
			buf.WriteString(" xmlns:")
			writePrefix(buf, s.n)
			buf.WriteString(`="`)
			escapeString(buf, s.space)
			buf.WriteByte('"')
		}
	}
	for _, a := range n.Attrs {
		buf.WriteByte(' ')
		writeName(buf, a.Name, spaces)
		buf.WriteString(`="`)
		escapeString(buf, a.Value)
		buf.WriteByte('"')
	}
	if n.Text == "" && len(n.Children) == 0 {
		buf.WriteString("/>")
		return
	}
	buf.WriteByte('>')
	escapeString(buf, n.Text)
	for _, c := range n.Children {
		writeNode(buf, c, spaces, false)
	}
	buf.WriteString("</")
	writeName(buf, n.Name, spaces)
	buf.WriteByte('>')
}

// escapeString writes s into buf escaped exactly as xml.EscapeText
// escapes it, quotes included, so it serves attribute values too: an
// invalid UTF-8 byte or a character outside XML's range becomes
// U+FFFD. An ASCII byte is taken as it is, without decoding.
func escapeString(buf *bytes.Buffer, s string) {
	last := 0
	for i := 0; i < len(s); {
		c, width := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, width = utf8.DecodeRuneInString(s[i:])
		}
		var esc string
		switch c {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if !inCharacterRange(c) || (c == utf8.RuneError && width == 1) {
				esc = "\uFFFD"
				break
			}
			i += width
			continue
		}
		buf.WriteString(s[last:i])
		buf.WriteString(esc)
		i += width
		last = i
	}
	buf.WriteString(s[last:])
}
