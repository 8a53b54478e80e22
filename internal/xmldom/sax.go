package xmldom

import (
	"encoding/xml"
	"fmt"
	"io"
)

// SAXHandler receives parse events from ScanSAX. Any nil callback is
// skipped. A non-nil error returned by a callback aborts the scan and
// is returned by ScanSAX.
//
// Unlike the DOM parser, the SAX scanner allocates no tree: element
// names arrive resolved, character data arrives as transient slices
// valid only for the duration of the callback. This is the "SAX
// parsers do not build an in-memory representation of the entire XML
// document" path the paper anticipated adopting.
type SAXHandler struct {
	StartElement func(name xml.Name, attrs []xml.Attr) error
	EndElement   func(name xml.Name) error
	CharData     func(data []byte) error
}

// ScanSAX reads the XML document from r whole and reports it to the
// handler. Unlike Parse it takes any number of top-level elements, none
// included, and reports the character data around them.
func ScanSAX(r io.Reader, h SAXHandler) error {
	b, err := readAll(r)
	if err != nil {
		return fmt.Errorf("xmldom: %w", err)
	}
	return scan(b, h)
}

// PathCollector is a SAXHandler helper that tracks the current element
// path and invokes On when entering elements, exposing the path depth
// and accumulated text of leaf elements via OnLeave.
type PathCollector struct {
	stack []xml.Name
	text  []byte

	// Enter, if non-nil, is called after an element is pushed; the
	// slice is the current path, root first. It must not be retained.
	Enter func(path []xml.Name, attrs []xml.Attr) error
	// Leave, if non-nil, is called before an element is popped, with
	// the character data that appeared directly inside it.
	Leave func(path []xml.Name, text []byte) error
}

// Handler adapts the collector to a SAXHandler.
func (p *PathCollector) Handler() SAXHandler {
	return SAXHandler{
		StartElement: func(name xml.Name, attrs []xml.Attr) error {
			p.stack = append(p.stack, name)
			p.text = p.text[:0]
			if p.Enter != nil {
				return p.Enter(p.stack, attrs)
			}
			return nil
		},
		EndElement: func(name xml.Name) error {
			var err error
			if p.Leave != nil {
				err = p.Leave(p.stack, p.text)
			}
			p.stack = p.stack[:len(p.stack)-1]
			p.text = p.text[:0]
			return err
		},
		CharData: func(data []byte) error {
			p.text = append(p.text, data...)
			return nil
		},
	}
}

// Depth returns the current element nesting depth.
func (p *PathCollector) Depth() int { return len(p.stack) }
