package xmldom

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// oracleScanSAX is ScanSAX as it stood on encoding/xml's Decoder, and
// oracleParse the Parse that stood beside it: the reference the
// tokenizer is held to.
func oracleScanSAX(r io.Reader, h SAXHandler) error {
	dec := xml.NewDecoder(r)
	depth := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			if depth != 0 {
				return fmt.Errorf("xmldom: unexpected EOF at depth %d", depth)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("xmldom: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			if h.StartElement != nil {
				if err := h.StartElement(t.Name, oracleStripNamespaceAttrs(t.Attr)); err != nil {
					return err
				}
			}
		case xml.EndElement:
			depth--
			if h.EndElement != nil {
				if err := h.EndElement(t.Name); err != nil {
					return err
				}
			}
		case xml.CharData:
			if h.CharData != nil {
				if err := h.CharData(t); err != nil {
					return err
				}
			}
		}
	}
}

func oracleParse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var cur *Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmldom: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Name: t.Name, Attrs: oracleStripNamespaceAttrs(t.Attr)}
			if cur == nil {
				if root != nil {
					return nil, fmt.Errorf("xmldom: multiple root elements")
				}
				root = n
			} else {
				cur.AppendChild(n)
			}
			cur = n
		case xml.EndElement:
			if cur == nil {
				return nil, fmt.Errorf("xmldom: unbalanced end element %s", t.Name.Local)
			}
			cur = cur.Parent
		case xml.CharData:
			if cur != nil {
				cur.Text += string(t)
			}
		// Comments, directives and processing instructions are dropped.
		case xml.Comment, xml.Directive, xml.ProcInst:
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmldom: empty document")
	}
	if cur != nil {
		return nil, fmt.Errorf("xmldom: unexpected EOF inside <%s>", cur.Name.Local)
	}
	return root, nil
}

// oracleStripNamespaceAttrs removes xmlns declarations, which the
// decoder has already consumed to resolve names.
func oracleStripNamespaceAttrs(attrs []xml.Attr) []xml.Attr {
	out := attrs[:0]
	for _, a := range attrs {
		if a.Name.Space == "xmlns" || (a.Name.Space == "" && a.Name.Local == "xmlns") {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil
	}
	return append([]xml.Attr(nil), out...)
}

// saxEvents records a scan as one line per event, and the deepest
// nesting it reached.
func saxEvents(scan func(io.Reader, SAXHandler) error, b []byte) (events []string, deepest int, err error) {
	depth := 0
	err = scan(bytes.NewReader(b), SAXHandler{
		StartElement: func(name xml.Name, attrs []xml.Attr) error {
			if depth++; depth > deepest {
				deepest = depth
			}
			events = append(events, fmt.Sprintf("S %q %q", name, attrs))
			return nil
		},
		EndElement: func(name xml.Name) error {
			depth--
			events = append(events, fmt.Sprintf("E %q", name))
			return nil
		},
		CharData: func(data []byte) error {
			events = append(events, fmt.Sprintf("T %q", data))
			return nil
		},
	})
	return events, deepest, err
}

// sameTree compares two trees exactly, iteratively: the oracle's may be
// deeper than a recursive walk should follow.
func sameTree(a, b *Node) error {
	type pair struct{ a, b *Node }
	for todo := []pair{{a, b}}; len(todo) > 0; {
		p := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		if p.a.Name != p.b.Name || p.a.Text != p.b.Text || !reflect.DeepEqual(p.a.Attrs, p.b.Attrs) || len(p.a.Children) != len(p.b.Children) {
			return fmt.Errorf("<%s %q>%q with %d children, oracle <%s %q>%q with %d",
				p.a.Name, p.a.Attrs, p.a.Text, len(p.a.Children), p.b.Name, p.b.Attrs, p.b.Text, len(p.b.Children))
		}
		for i, c := range p.a.Children {
			if c.Parent != p.a {
				return fmt.Errorf("<%s>: child %d has the wrong parent", p.a.Name, i)
			}
			todo = append(todo, pair{c, p.b.Children[i]})
		}
	}
	return nil
}

// agreesWithEncodingXML holds ParseBytes and ScanSAX to the contract:
// on b they decide, build and report what the oracles do, except that
// nesting deeper than maxDepth is refused.
func agreesWithEncodingXML(t *testing.T, b []byte) {
	t.Helper()
	want, deepest, wantErr := saxEvents(oracleScanSAX, b)
	got, _, err := saxEvents(ScanSAX, b)
	switch {
	case wantErr == nil && deepest > maxDepth:
		if err == nil {
			t.Fatalf("ScanSAX accepted nesting of %d", deepest)
		}
		if _, err := ParseBytes(b); err == nil {
			t.Fatalf("ParseBytes accepted nesting of %d", deepest)
		}
		return
	case (err == nil) != (wantErr == nil):
		t.Fatalf("ScanSAX(%q): %v, oracle: %v", b, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("ScanSAX(%q) reports\n%q, oracle\n%q", b, got, want)
	}
	wantRoot, wantErr := oracleParse(bytes.NewReader(b))
	root, err := ParseBytes(b)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("ParseBytes(%q): %v, oracle: %v", b, err, wantErr)
	}
	if err == nil {
		if err := sameTree(root, wantRoot); err != nil {
			t.Fatalf("ParseBytes(%q): %v", b, err)
		}
	}
}

// table1Body is the 207 of the paper's Table 1 row as davd writes it
// since PR 16: 51 responses x 5 properties x 1 KiB, each property's
// stored bytes spliced in with their own xmlns declaration.
func table1Body() []byte { return multistatusBody(51, 1024) }

func multistatusBody(responses, valueLen int) []byte {
	var buf bytes.Buffer
	buf.WriteString(xml.Header + `<D:multistatus xmlns:D="DAV:">`)
	for i := 0; i < responses; i++ {
		fmt.Fprintf(&buf, `<D:response><D:href>/sweep/doc%02d</D:href><D:propstat><D:prop>`, i)
		for j := 0; j < 5; j++ {
			fmt.Fprintf(&buf, `<ns0:prop%02d xmlns:ns0="urn:ecce">%s</ns0:prop%02d>`, j, strings.Repeat("v", valueLen), j)
		}
		buf.WriteString(`</D:prop><D:status>HTTP/1.1 200 OK</D:status></D:propstat></D:response>`)
	}
	buf.WriteString(`</D:multistatus>`)
	return buf.Bytes()
}

// quirks are the places where encoding/xml's reading is not the obvious
// one; DESIGN §16 lists them.
var quirks = []string{
	`<p:a q:b="1"/>`,                               // undeclared prefixes stay as written
	`<a xml:lang="en" xmlns:xml="other"/>`,         // xml: is fixed
	`<a xmlns="d" b="1"><c/><p:c xmlns:p=""/></a>`, // default namespace: elements only; a prefix may be bound to ""
	`<a xmlns:q="xmlns" q:r="s" xmlns:e="" e:xmlns="t"/>`,
	`<xmlns:a xmlns:xmlns="u"><xmlns/></xmlns:a>`,
	`<a b="1" xmlns:p="u" p:b="2" b="3"/>`, // declarations apply to attributes before them; duplicates pass
	`<a:><:b/><:/></a:>`,                   // a colon at either end is part of the local name
	`<c:d:e/>`,
	`<a b="]]>">]]&gt;</a>`,
	`<a>]]></a>`,
	`<a>]]&#62;<![CDATA[]]]]><![CDATA[>&amp;<b>]]>]<!-- - -->]></a>`,
	`<a><![CDATA[]]></a>`,
	"<a b='x\r\ny\rz&#13;\n\"'>\r\n&#xD;\n\r\r\n<![CDATA[\r\n\r]]></a>",
	`<a b="&#xD800;">&#xD800;&#xDFFF;&#x10FFFF;&#9;</a>`, // surrogates become U+FFFD
	`<a>&#1114112;</a>`,
	`<a>&#0;</a>`,
	`<a>&#xFFFE;</a>`,
	"<a>\ufffe</a>",
	"<a>\xed\xa0\x80</a>",
	`<a>&#X41;</a>`,
	`<a>&#00000000000000000000000065;&#x000000000000000000041;</a>`,
	`<a b="&lt;&gt;&amp;&apos;&quot;">&lt;&gt;&amp;&apos;&quot;</a>`,
	`<a>&ltx;</a>`,
	"\ufeff<?xml version='1.0' encoding=\"Utf-8\" standalone='yes'?>\n<!DOCTYPE a [<!ELEMENT a ANY><!-- > --> <!ENTITY e '>'>]>\n<a/> \n<!-- c --><?pi?>",
	`<?xml version="1.1"?><a/>`,
	`<?xml encoding="latin1"?><a/>`,
	`<?xml xversion="1.1" version=1.0 encoding=''?><a/>`, // "version=" is found inside xversion=
	`<?xml version=1.0 version="1.0" encoding='' encoding="UTF-8" encoding="latin1"?><a/>`,
	`<a><?xml version="2"?></a>`,
	`<?xml?><?x:y:z ??><a/>`,
	`<?1?><a/>`,
	`<!-- a -- b --><a/>`,
	`<!----><a/>`,
	`<!-----><a/>`,
	`<!---><a/>-->`,
	`<!"><a/>`,
	`<!><a/>>`,
	`<!x '>' "<" <y <!-- > --> > ><a/>`,
	`<!x <!- > ><a/>`,
	`<![cdata[x]]><a/>`,
	`text &amp; <a/> more <b/> &#13;`,
	`<a/> &bogus;`,
	"<a/>\x00",
	` `,
	`<a/><b/>text`,
	`<a b = "1"c='2'/ >`,
	`<a b="1"c='2'd = "3"/>`,
	`<a b=1/>`,
	`<a b/>`,
	`<a b="<"/>`,
	"<a\tb\n=\r'1'\n></a\n>",
	`</a>`,
	`<a></a b>`,
	`<a></ a>`,
	`<größe xmlns:ü="u"><ü:x ü:y="1"/><a·b/></größe>`,
	"<\u00d7/>",
	"<a\xff/>",
	`<?größe?><?` + "\u00d7" + `?>`,
	strings.Repeat("<a>", maxDepth) + strings.Repeat("</a>", maxDepth),
	strings.Repeat("<a>", maxDepth) + "<b/>" + strings.Repeat("</a>", maxDepth),
	strings.Repeat("<a>", maxDepth+1) + strings.Repeat("</a>", maxDepth+1),
	strings.Repeat("<a>", maxDepth+1),
}

func TestParseAgreesWithEncodingXML(t *testing.T) {
	for _, s := range append(agreementSeeds(t), table1Body()) {
		agreesWithEncodingXML(t, s)
	}
}

// agreementSeeds are the package's test tables, the quirks, a 207 of
// Table 1's shape (small, so that the fuzzer mutates it quickly) and
// every checked-in fuzz input of the package.
func agreementSeeds(t testing.TB) [][]byte {
	seeds := [][]byte{[]byte(sample), []byte(buildBigDoc(3)), multistatusBody(2, 16)}
	for _, tc := range fragmentCases {
		seeds = append(seeds, []byte(tc.in))
	}
	for _, s := range quirks {
		seeds = append(seeds, []byte(s))
	}
	files, err := filepath.Glob("testdata/fuzz/*/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// The corpus format: a version line, then []byte("...").
		_, lit, _ := strings.Cut(string(data), "\n")
		lit = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(lit), "[]byte("), ")")
		if s, err := strconv.Unquote(lit); err == nil {
			seeds = append(seeds, []byte(s))
		}
	}
	return seeds
}

// FuzzParseAgreesWithEncodingXML is the tokenizer's contract on
// arbitrary bytes.
func FuzzParseAgreesWithEncodingXML(f *testing.F) {
	for _, s := range agreementSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(agreesWithEncodingXML)
}
