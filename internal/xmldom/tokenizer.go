package xmldom

import (
	"bytes"
	"encoding/binary"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// maxDepth is the deepest element nesting the tokenizer accepts. It is
// the one place it disagrees with encoding/xml, which has no limit:
// Clone, Walk, TextContent and Marshal recurse over what Parse returns,
// and a body of a few million nested start tags would otherwise end in
// a stack overflow, which no recover catches.
const maxDepth = 512

// tokenizer walks one whole document held in b and reports it to a
// SAXHandler. It decides accept/reject, names, attributes and character
// data exactly as encoding/xml's Decoder.Token does in its default
// strict mode (DESIGN §16 lists the rules), except for maxDepth.
type tokenizer struct {
	b     []byte
	i     int
	h     SAXHandler
	names map[string]splitName // every qualified name seen, judged and split once
	uris  map[string]string    // every namespace URI declared, made on the first
	open  []element
	ns    []binding  // prefix declarations in force, innermost last
	attrs []xml.Attr // scratch for the start tag being read
	buf   []byte     // scratch for character data that needed decoding
	err   error      // what ended the scan: a refusal, or an error from h
}

// splitName is a qualified name split the way encoding/xml splits it
// (see prefixOf).
type splitName struct{ prefix, local string }

type element struct {
	raw  []byte // the name as written, which the end tag must repeat
	name xml.Name
	ns   int // len(tokenizer.ns) before the element's own declarations
}

type binding struct{ prefix, uri string }

// scan tokenizes b into h. Errors from h are returned as they are.
func scan(b []byte, h SAXHandler) error {
	t := tokenizer{b: b, h: h, names: map[string]splitName{}}
	for t.err == nil && t.i < len(b) {
		if b[t.i] != '<' {
			t.charData(textContent, len(b))
			continue
		}
		t.i++
		switch t.peek() {
		case '/':
			t.endTag()
		case '?':
			t.procInst()
		case '!':
			t.bang()
		default:
			t.startTag()
		}
	}
	if len(t.open) > 0 {
		t.fail("unexpected EOF inside <%s>", t.open[len(t.open)-1].raw)
	}
	return t.err
}

// fail records the error that ends the scan, unless one already has:
// the methods below may run on after it, harmlessly, until a loop sees it.
func (t *tokenizer) fail(format string, args ...any) {
	if t.err == nil {
		t.err = fmt.Errorf("xmldom: %s at byte %d", fmt.Sprintf(format, args...), t.i)
	}
}

// text returns the character data of the given kind from t.i, looking
// no further than limit, and moves past it: a sub-slice of the document
// when it reads as written, the scratch buffer when references or
// carriage returns had to be rewritten.
func (t *tokenizer) text(kind textKind, limit int) []byte {
	end, rewrite, ok := scanText(t.b[:limit], t.i, kind)
	data := t.b[t.i:end]
	t.i = end
	if !ok {
		t.fail("malformed character data")
		return nil
	}
	if !rewrite {
		return data
	}
	out := t.buf[:0]
	for i := 0; i < len(data); {
		switch c := data[i]; {
		case c == '&' && kind != textCDATA:
			r, next, _ := scanReference(data, i+1)
			out = utf8.AppendRune(out, r) // a surrogate becomes U+FFFD
			i = next
		case c == '\r': // \r\n and \r become \n
			out = append(out, '\n')
			if i++; i < len(data) && data[i] == '\n' {
				i++
			}
		default:
			out = append(out, c)
			i++
		}
	}
	t.buf = out
	return out
}

func (t *tokenizer) charData(kind textKind, limit int) {
	if data := t.text(kind, limit); t.err == nil && t.h.CharData != nil {
		t.err = t.h.CharData(data)
	}
}

func (t *tokenizer) space() {
	for t.i < len(t.b) && (t.b[t.i] == ' ' || t.b[t.i] == '\n' || t.b[t.i] == '\t' || t.b[t.i] == '\r') {
		t.i++
	}
}

// peek returns the byte at t.i, at the end of the document 0 (never legal).
func (t *tokenizer) peek() byte {
	if t.i < len(t.b) {
		return t.b[t.i]
	}
	return 0
}

// expect consumes c or fails.
func (t *tokenizer) expect(c byte) {
	if t.peek() != c {
		t.fail("expected %q", c)
		return
	}
	t.i++
}

// name reads the qualified name at t.i.
func (t *tokenizer) name() (splitName, []byte) {
	raw := t.b[t.i:scanName(t.b, t.i)]
	q, ok := t.names[string(raw)]
	if !ok {
		if !validName(raw) || bytes.Count(raw, []byte{':'}) > 1 {
			t.fail("invalid name %q", raw)
			return q, raw
		}
		s := string(raw)
		q.local = s
		if p := prefixOf(raw); p != nil {
			q.prefix, q.local = s[:len(p)], s[len(p)+1:]
		}
		t.names[s] = q
	}
	t.i += len(raw)
	return q, raw
}

// uri returns the declared namespace URI b as a string, one per URI
// per scan: a body that declares the same URI on every property
// element pays for it once, and one that declares none pays nothing.
func (t *tokenizer) uri(b []byte) string {
	s, ok := t.uris[string(b)]
	if !ok {
		if t.uris == nil {
			t.uris = map[string]string{}
		}
		s = string(b)
		t.uris[s] = s
	}
	return s
}

// translate resolves a prefix as Decoder.translate does: an undeclared
// prefix stands for itself, xmlns is never looked up, xml is fixed, and
// the default namespace applies to element names only.
func (t *tokenizer) translate(prefix, local string, isElement bool) xml.Name {
	if prefix == "xml" {
		return xml.Name{Space: "http://www.w3.org/XML/1998/namespace", Local: local}
	}
	if prefix != "xmlns" && (prefix != "" || isElement && local != "xmlns") {
		for i := len(t.ns) - 1; i >= 0; i-- {
			if t.ns[i].prefix == prefix {
				return xml.Name{Space: t.ns[i].uri, Local: local}
			}
		}
	}
	return xml.Name{Space: prefix, Local: local}
}

// startTag reads what follows '<' when that is none of "/?!".
func (t *tokenizer) startTag() {
	q, raw := t.name()
	if len(t.open) == maxDepth {
		t.fail("elements nested deeper than %d", maxDepth)
	}
	el := element{raw: raw, ns: len(t.ns)}
	t.attrs = t.attrs[:0]
	for t.space(); t.err == nil && t.peek() != '>' && t.peek() != '/'; t.space() {
		a, _ := t.name()
		t.space()
		t.expect('=')
		t.space()
		quote := t.peek()
		if quote != '"' && quote != '\'' {
			t.fail("unquoted or missing attribute value")
			return
		}
		t.i++
		value := t.text(textKind(quote), len(t.b))
		t.expect(quote)
		// Declarations bind before any name of this tag is translated,
		// and never show as attributes.
		switch {
		case a.prefix == "xmlns":
			t.ns = append(t.ns, binding{a.local, t.uri(value)})
		case a.prefix == "" && a.local == "xmlns":
			t.ns = append(t.ns, binding{"", t.uri(value)})
		default:
			t.attrs = append(t.attrs, xml.Attr{Name: xml.Name{Space: a.prefix, Local: a.local}, Value: string(value)})
		}
	}
	empty := t.peek() == '/'
	if empty {
		t.i++
	}
	if t.expect('>'); t.err != nil {
		return
	}
	el.name = t.translate(q.prefix, q.local, true)
	if t.h.StartElement != nil {
		kept := t.attrs[:0]
		for _, a := range t.attrs {
			a.Name = t.translate(a.Name.Space, a.Name.Local, false)
			// A prefix bound to the URI "xmlns", or to "" before the
			// local name xmlns, reads as a declaration once translated,
			// and encoding/xml's callers drop it like one.
			if a.Name.Space != "xmlns" && (a.Name.Space != "" || a.Name.Local != "xmlns") {
				kept = append(kept, a)
			}
		}
		t.err = t.h.StartElement(el.name, append([]xml.Attr(nil), kept...))
	}
	t.open = append(t.open, el)
	if empty && t.err == nil {
		t.closeElement()
	}
}

// endTag reads an end tag from its '/'.
func (t *tokenizer) endTag() {
	if len(t.open) == 0 {
		t.fail("unexpected end element")
		return
	}
	t.i++
	raw := t.open[len(t.open)-1].raw
	if !bytes.HasPrefix(t.b[t.i:], raw) || scanName(t.b, t.i) != t.i+len(raw) {
		t.fail("element <%s> closed by another name", raw)
		return
	}
	t.i += len(raw)
	t.space()
	if t.expect('>'); t.err == nil {
		t.closeElement()
	}
}

func (t *tokenizer) closeElement() {
	el := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.ns = t.ns[:el.ns]
	if t.h.EndElement != nil {
		t.err = t.h.EndElement(el.name)
	}
}

// procInst skips a processing instruction from its '?'. An XML
// declaration, wherever it stands, may name only version 1.0 and the
// UTF-8 encoding.
func (t *tokenizer) procInst() {
	t.i++
	target := t.b[t.i:scanName(t.b, t.i)]
	if !validName(target) {
		t.fail("invalid processing instruction target %q", target)
	}
	t.i += len(target)
	t.space()
	n := bytes.Index(t.b[t.i:], []byte("?>"))
	if n < 0 {
		t.fail("unexpected EOF in processing instruction")
		return
	}
	if decl := t.b[t.i : t.i+n]; string(target) == "xml" {
		if v := pseudoAttr(decl, "version="); v != nil && string(v) != "1.0" {
			t.fail("unsupported XML version %q", v)
		}
		if e := pseudoAttr(decl, "encoding="); e != nil && !bytes.EqualFold(e, []byte("utf-8")) {
			t.fail("unsupported encoding %q", e)
		}
	}
	t.i += n + 2
}

// pseudoAttr finds the quoted value after the first param (which ends
// in '=') that has one, as loosely as encoding/xml does; nil when there
// is none or it is empty.
func pseudoAttr(s []byte, param string) []byte {
	for {
		k := bytes.Index(s, []byte(param))
		if k < 0 || k+len(param) >= len(s) {
			return nil
		}
		quote := s[k+len(param)]
		s = s[k+len(param)+1:]
		if quote == '"' || quote == '\'' {
			if end := bytes.IndexByte(s, quote); end > 0 {
				return s[:end]
			}
			return nil
		}
	}
}

// bang reads from the '!' of "<!": a comment or a directive, which are
// skipped, or a CDATA section, which is character data as written.
func (t *tokenizer) bang() {
	t.i++
	b := t.b
	switch rest := b[t.i:]; t.peek() {
	case '-':
		// The first "--" after "<!--" must be the one that closes it.
		n := bytes.Index(rest[min(2, len(rest)):], []byte("--"))
		if !bytes.HasPrefix(rest, []byte("--")) || n < 0 || 2+n+2 >= len(rest) || rest[2+n+2] != '>' {
			t.fail(`comment not opened by <!-- or not closed by its first "--"`)
			return
		}
		t.i += 2 + n + 3
		return
	case '[':
		const open = "[CDATA["
		n := bytes.Index(rest, []byte("]]>"))
		if !bytes.HasPrefix(rest, []byte(open)) || n < 0 {
			t.fail("invalid or unclosed <![CDATA[ section")
			return
		}
		t.i += len(open)
		t.charData(textCDATA, t.i-len(open)+n)
		t.i += 3
		return
	}
	// A directive ends at the first '>' outside quotes and outside nested
	// <...>; comments inside it hide both. Its first byte is taken as it
	// comes, even a quote or a bracket.
	var quote byte
	depth := 0
	for i := t.i + 1; i < len(b); i++ {
		switch c := b[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '>' && depth == 0:
			t.i = i + 1
			return
		case c == '>':
			depth--
		case c == '<' && bytes.HasPrefix(b[i+1:], []byte("!--")):
			n := bytes.Index(b[i+4:], []byte("-->"))
			if n < 0 {
				n = len(b) // unclosed: run off the end
			}
			i += 4 + n + 2
		case c == '<':
			depth++
		}
	}
	t.fail("unexpected EOF in directive")
}

// readAll reads a document whole. A reader that knows how much it
// holds (bytes.Reader, strings.Reader, a response body sized by its
// Content-Length) is read into one buffer of exactly that size.
func readAll(r io.Reader) ([]byte, error) {
	sized, ok := r.(interface{ Len() int })
	if !ok {
		return io.ReadAll(r)
	}
	b := make([]byte, sized.Len())
	_, err := io.ReadFull(r, b)
	return b, err
}

// The lexical rules, shared with WellFormedFragment.

// nameByte marks the bytes a name runs over: the ASCII name characters
// and every byte of a multi-byte character, which validName judges.
// plainText marks the bytes character data holds as written under every
// textKind.
var nameByte, plainText = func() (name, plain [256]bool) {
	for c := 0; c < 256; c++ {
		name[c] = 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '_' || c == ':' || c == '.' || c == '-' || c >= utf8.RuneSelf
		plain[c] = c == '\t' || c == '\n' || 0x20 <= c && c < utf8.RuneSelf && !strings.ContainsRune(`<>&"'`, rune(c))
	}
	return
}()

// scanName returns where the name starting at b[i] ends.
func scanName(b []byte, i int) int {
	for i < len(b) && nameByte[b[i]] {
		i++
	}
	return i
}

// validName reports whether the bytes scanName ran over are a name: not
// empty, not starting with a digit, '.' or '-'. One with multi-byte
// characters is put to encoding/xml, whose name tables are private: its
// Encoder refuses a processing instruction whose target is not a name.
func validName(raw []byte) bool {
	for _, c := range raw {
		if c >= utf8.RuneSelf {
			return xml.NewEncoder(io.Discard).EncodeToken(xml.ProcInst{Target: string(raw)}) == nil
		}
	}
	return len(raw) > 0 && !('0' <= raw[0] && raw[0] <= '9' || raw[0] == '.' || raw[0] == '-')
}

// textKind says where character data stands, and so where it ends and
// what it may hold. An attribute value's kind is its quote byte.
type textKind byte

const (
	textContent textKind = '<' // ends at '<' or with the document; "]]>" is refused
	textCDATA   textKind = 0   // runs to the end of b; '<' and '&' are data
)

// scanText scans character data from b[i] to the first byte that ends
// kind, or to the end of b, and returns that index; rewrite reports
// that it holds a reference or a carriage return and so does not read
// as written. What it accepts, Decoder.text accepts.
func scanText(b []byte, i int, kind textKind) (end int, rewrite, ok bool) {
	start := i
	for {
		for i+8 <= len(b) && plainWord(binary.LittleEndian.Uint64(b[i:])) {
			i += 8
		}
		for i < len(b) && plainText[b[i]] {
			i++
		}
		if i == len(b) {
			return i, rewrite, true
		}
		switch c := b[i]; {
		case c == byte(kind) && kind != textCDATA:
			return i, rewrite, true
		case kind == textCDATA && (c == '<' || c == '&'), c == '"', c == '\'':
			i++
		case c == '<':
			return i, false, false // "unescaped < inside quoted string"
		case c == '&':
			_, next, ok := scanReference(b, i+1)
			if !ok {
				return i, false, false
			}
			i, rewrite = next, true
		case c == '>':
			if kind == textContent && i-start >= 2 && b[i-1] == ']' && b[i-2] == ']' {
				return i, false, false // "unescaped ]]> not in CDATA section"
			}
			i++
		case c == '\r':
			i, rewrite = i+1, true
		case c < utf8.RuneSelf:
			return i, false, false // a control character
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 || !inCharacterRange(r) {
				return i, false, false
			}
			i += size
		}
	}
}

// plainWord reports whether all eight bytes of w are ASCII from 0x20 up
// other than <>&"' — a strict subset of plainText, so that scanText may
// skip such a word whole under every textKind. Each test sets the high
// bit of some byte if w holds a byte of its kind, and of none otherwise.
func plainWord(w uint64) bool {
	bad := w                                     // a byte >= 0x80
	bad |= zeroByte(w &^ (0x1F * ones))          // a byte < 0x20: no bit above 0x1F
	bad |= zeroByte((w | 0x02*ones) ^ 0x3E*ones) // '<' or '>'
	bad |= zeroByte((w | 0x01*ones) ^ 0x27*ones) // '&' or '\''
	bad |= zeroByte(w ^ 0x22*ones)               // '"'
	return bad&highs == 0
}

const ones, highs = 0x0101010101010101, 0x8080808080808080

// zeroByte sets the high bit of some byte of x if x has a zero byte, and
// of none otherwise (a borrow that sets a wrong bit only runs upward from
// a zero byte); its other bits mean nothing.
func zeroByte(x uint64) uint64 { return (x - ones) &^ x }

// scanReference scans what follows an '&': one of the five predefined
// entity names or a decimal/hex character reference to a legal
// character, then ';'. It returns the character and the index after the
// semicolon.
func scanReference(b []byte, i int) (r rune, next int, ok bool) {
	if i < len(b) && b[i] == '#' {
		i++
		base := rune(10)
		if i < len(b) && b[i] == 'x' {
			base = 16
			i++
		}
		digits := 0
		for ; i < len(b); i++ {
			c, d := b[i], rune(-1)
			switch {
			case '0' <= c && c <= '9':
				d = rune(c - '0')
			case base == 16 && 'a' <= c && c <= 'f':
				d = rune(c-'a') + 10
			case base == 16 && 'A' <= c && c <= 'F':
				d = rune(c-'A') + 10
			}
			if d < 0 {
				break
			}
			if r = r*base + d; r > utf8.MaxRune {
				return r, i, false
			}
			digits++
		}
		if digits == 0 || i >= len(b) || b[i] != ';' {
			return r, i, false
		}
		// encoding/xml turns a surrogate into U+FFFD, which is legal.
		return r, i + 1, inCharacterRange(r) || 0xD800 <= r && r <= 0xDFFF
	}
	for j, name := range [...]string{"lt;", "gt;", "amp;", "apos;", "quot;"} {
		if bytes.HasPrefix(b[i:], []byte(name)) {
			return rune(`<>&'"`[j]), i + len(name), true
		}
	}
	return 0, i, false
}

// inCharacterRange is the XML 1.0 Char production, as encoding/xml
// applies it to decoded text.
func inCharacterRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
