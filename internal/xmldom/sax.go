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
