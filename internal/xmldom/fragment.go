package xmldom

import (
	"bytes"
	"encoding/xml"
	"io"
	"unicode/utf8"
)

// WellFormedFragment reports whether b is exactly one element written
// the way Marshal writes one, so that a server holding b as a stored
// fragment may copy it into a larger document without parsing it:
//
//	element := '<' qname (' ' qname '="' text '"')* ( '/>' | '>' (text | element)* '</' qname '>' )
//
// with names and character data under encoding/xml's own rules (its
// name tables, the five named entities and numeric references, the XML
// character range, no literal "]]>"), every start tag closed by the
// same qname, and every prefix in use declared by an xmlns:prefix
// attribute on the fragment's root element — the fragment means the
// same wherever it is spliced. Comments, processing instructions,
// CDATA, DOCTYPE, single-quoted attributes and loose white space inside
// tags are refused: Marshal writes none of them, and an XML declaration
// or DOCTYPE in the middle of a document is not XML.
//
// The contract, which FuzzWellFormedFragment checks: it is sound (true
// implies ParseBytes(b) succeeds, and parses to the same tree inside an
// enclosing element as alone) and complete for what Marshal emits
// (ParseBytes(Marshal(n)) succeeds implies WellFormedFragment(Marshal(n))).
//
// It is one pass over b and does not allocate, with two exceptions that
// stay correct rather than fast: nesting deeper than 16 grows the
// open-element stack on the heap, and a name with non-ASCII bytes is
// confirmed by running encoding/xml's tokenizer over b, because the
// name tables are private to that package.
func WellFormedFragment(b []byte) bool {
	var stackArr [16]nameSpan
	open := stackArr[:0]
	rootTagEnd, nonASCII := 0, false
	i := 0
	for {
		if i >= len(b) || b[i] != '<' {
			return false
		}
		i++
		if i < len(b) && b[i] == '/' {
			if len(open) == 0 {
				return false
			}
			top := b[open[len(open)-1].from:open[len(open)-1].to]
			i++
			if !bytes.HasPrefix(b[i:], top) || i+len(top) >= len(b) || b[i+len(top)] != '>' {
				return false
			}
			i += len(top) + 1
			open = open[:len(open)-1]
		} else {
			tagStart := i
			name, ok := scanName(b, i, &nonASCII)
			if !ok {
				return false
			}
			for i = name.to; i < len(b) && b[i] == ' '; {
				attr, ok := scanName(b, i+1, &nonASCII)
				if !ok || attr.to+1 >= len(b) || b[attr.to] != '=' || b[attr.to+1] != '"' {
					return false
				}
				if i, ok = scanText(b, attr.to+2, '"'); !ok {
					return false
				}
				i++ // closing quote
			}
			empty := i < len(b) && b[i] == '/'
			if empty {
				i++
			}
			if i >= len(b) || b[i] != '>' {
				return false
			}
			i++
			if rootTagEnd == 0 {
				rootTagEnd = i
			}
			if !prefixesDeclared(b[tagStart:i], b[1:rootTagEnd]) {
				return false
			}
			if !empty {
				open = append(open, name)
			}
		}
		if len(open) == 0 {
			break
		}
		var ok bool
		if i, ok = scanText(b, i, '<'); !ok {
			return false
		}
	}
	if i != len(b) {
		return false
	}
	if nonASCII {
		return tokenizes(b)
	}
	return true
}

// nameSpan is the byte range of a qualified name.
type nameSpan struct{ from, to int }

// scanName scans the name starting at b[i] the way encoding/xml's
// Decoder.nsname does: name bytes are ASCII letters, digits, "_:.-" and
// every byte >= 0x80; the first may not be a digit, "." or "-"; more
// than one colon is an error. Non-ASCII bytes are let through and
// reported in *nonASCII for the caller to confirm.
func scanName(b []byte, i int, nonASCII *bool) (nameSpan, bool) {
	n := nameSpan{from: i}
	colons := 0
	for ; i < len(b); i++ {
		c := b[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', c == '_':
		case c == ':':
			colons++
		case '0' <= c && c <= '9', c == '.', c == '-':
			if i == n.from {
				return n, false
			}
		case c >= utf8.RuneSelf:
			*nonASCII = true
		default:
			n.to = i
			return n, i > n.from && colons <= 1
		}
	}
	return n, false // a name never ends the fragment
}

// scanText scans character data or an attribute value from b[i] to the
// first unescaped until byte ('<' for content, '"' for a value) and
// returns its index. What it accepts, Decoder.text accepts.
func scanText(b []byte, i int, until byte) (int, bool) {
	start := i
	for i < len(b) {
		c := b[i]
		switch {
		case c == until:
			return i, true
		case c == '<':
			return i, false // "unescaped < inside quoted string"
		case c == '&':
			n, ok := scanReference(b, i+1)
			if !ok {
				return i, false
			}
			i = n
		case c == '>' && until == '<' && i-start >= 2 && b[i-1] == ']' && b[i-2] == ']':
			return i, false // "unescaped ]]> not in CDATA section"
		case c < utf8.RuneSelf:
			if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
				return i, false
			}
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 || !inCharacterRange(r) {
				return i, false
			}
			i += size
		}
	}
	return i, false
}

// scanReference scans what follows an '&': one of the five predefined
// entity names or a decimal/hex character reference to a legal
// character, then ';'. It returns the index after the semicolon.
func scanReference(b []byte, i int) (int, bool) {
	if i < len(b) && b[i] == '#' {
		i++
		base := rune(10)
		if i < len(b) && b[i] == 'x' {
			base = 16
			i++
		}
		var r rune
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
				return i, false
			}
			digits++
		}
		if digits == 0 || i >= len(b) || b[i] != ';' {
			return i, false
		}
		// encoding/xml turns a surrogate into U+FFFD, which is legal.
		return i + 1, inCharacterRange(r) || 0xD800 <= r && r <= 0xDFFF
	}
	for _, name := range [...]string{"lt;", "gt;", "amp;", "apos;", "quot;"} {
		if len(b)-i >= len(name) && string(b[i:i+len(name)]) == name {
			return i + len(name), true
		}
	}
	return i, false
}

// inCharacterRange is the XML 1.0 Char production, as encoding/xml
// applies it to decoded text.
func inCharacterRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// prefixesDeclared reports whether every prefix used by the element and
// attribute names of tag is declared by an xmlns:prefix attribute of
// rootTag. Both are start tags that already scanned clean, from the
// element name up to and including the closing '>'.
func prefixesDeclared(tag, rootTag []byte) bool {
	i := bytes.IndexAny(tag, " />")
	if p := prefixOf(tag[:i]); p != nil && !declares(rootTag, p) {
		return false
	}
	for tag[i] == ' ' {
		var name []byte
		name, i = nextAttr(tag, i+1)
		if p := prefixOf(name); p != nil && string(p) != "xmlns" && !declares(rootTag, p) {
			return false
		}
	}
	return true
}

func declares(rootTag, prefix []byte) bool {
	const xmlns = "xmlns:"
	i := bytes.IndexAny(rootTag, " />")
	for rootTag[i] == ' ' {
		var name []byte
		name, i = nextAttr(rootTag, i+1)
		if len(name) > len(xmlns) && string(name[:len(xmlns)]) == xmlns && bytes.Equal(name[len(xmlns):], prefix) {
			return true
		}
	}
	return false
}

// nextAttr returns the name of the attribute starting at tag[i] and the
// index just past its closing quote, in a tag that scanned clean.
func nextAttr(tag []byte, i int) (name []byte, next int) {
	eq := i + bytes.IndexByte(tag[i:], '=')
	return tag[i:eq], eq + 2 + bytes.IndexByte(tag[eq+2:], '"') + 1
}

// prefixOf returns the prefix of a qualified name, nil when it has
// none. Like encoding/xml, it reads a colon at either end as part of
// an unprefixed name.
func prefixOf(name []byte) []byte {
	if c := bytes.IndexByte(name, ':'); c > 0 && c < len(name)-1 {
		return name[:c]
	}
	return nil
}

// tokenizes runs encoding/xml over b: the slow confirmation for names
// this package cannot judge itself.
func tokenizes(b []byte) bool {
	dec := xml.NewDecoder(bytes.NewReader(b))
	for {
		if _, err := dec.Token(); err != nil {
			return err == io.EOF
		}
	}
}
