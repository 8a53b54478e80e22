package xmldom

import "bytes"

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
// It is one pass over b under the tokenizer's own lexical rules and
// does not allocate, with two exceptions that stay correct rather than
// fast: nesting deeper than 16 grows the open-element stack on the
// heap, and a name with multi-byte characters is put to encoding/xml
// (see validName).
func WellFormedFragment(b []byte) bool {
	var stackArr [16][]byte // the names of the open elements
	open := stackArr[:0]
	rootTagEnd := 0
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
			top := open[len(open)-1]
			i++
			if !bytes.HasPrefix(b[i:], top) || i+len(top) >= len(b) || b[i+len(top)] != '>' {
				return false
			}
			i += len(top) + 1
			open = open[:len(open)-1]
		} else {
			tagStart := i
			nameEnd, ok := fragmentName(b, i)
			if !ok {
				return false
			}
			for i = nameEnd; i < len(b) && b[i] == ' '; {
				attrEnd, ok := fragmentName(b, i+1)
				if !ok || attrEnd+1 >= len(b) || b[attrEnd] != '=' || b[attrEnd+1] != '"' {
					return false
				}
				if i, _, ok = scanText(b, attrEnd+2, '"'); !ok || i == len(b) {
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
				open = append(open, b[tagStart:nameEnd])
			}
		}
		if len(open) == 0 {
			break
		}
		var ok bool
		if i, _, ok = scanText(b, i, textContent); !ok {
			return false
		}
	}
	return i == len(b)
}

// fragmentName returns where the qualified name starting at b[i] ends.
// A name never ends the fragment.
func fragmentName(b []byte, i int) (end int, ok bool) {
	end = scanName(b, i)
	return end, end < len(b) && validName(b[i:end]) && bytes.Count(b[i:end], []byte{':'}) <= 1
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
