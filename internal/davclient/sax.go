package davclient

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"

	"repro/internal/davproto"
	"repro/internal/xmldom"
)

// parseMultistatusSAX parses a 207 body in one streaming pass,
// building only the davproto structures (no intermediate document
// tree). This is the optimization the paper predicted when it
// attributed the client-side cost of bulk PROPFINDs to DOM parsing.
func parseMultistatusSAX(r io.Reader) (davproto.Multistatus, error) {
	var (
		ms davproto.Multistatus

		inResponse bool
		resp       davproto.Response
		inPropstat bool
		ps         davproto.Propstat
		inProp     bool

		// Property subtrees are reconstructed directly while
		// streaming.
		propRoot *xmldom.Node
		propCur  *xmldom.Node

		// text is the character data since the last tag, outside
		// property values: an href or a status line.
		text []byte
	)
	isDAV := func(n xml.Name, local string) bool {
		return n.Space == davproto.NS && n.Local == local
	}

	h := xmldom.SAXHandler{
		StartElement: func(name xml.Name, attrs []xml.Attr) error {
			text = text[:0]
			switch {
			case propRoot != nil:
				// Inside a property value subtree.
				child := &xmldom.Node{Name: name, Attrs: attrs}
				propCur.AppendChild(child)
				propCur = child
			case inProp:
				// A new property element.
				propRoot = &xmldom.Node{Name: name, Attrs: attrs}
				propCur = propRoot
			case isDAV(name, "response"):
				inResponse = true
				resp = davproto.Response{}
			case inResponse && isDAV(name, "propstat"):
				inPropstat = true
				ps = davproto.Propstat{}
			case inPropstat && isDAV(name, "prop"):
				inProp = true
			}
			return nil
		},
		EndElement: func(name xml.Name) error {
			var err error
			switch {
			case propRoot != nil:
				if propCur == propRoot {
					// Property complete.
					ps.Props = append(ps.Props, davproto.Property{XML: propRoot})
					propRoot = nil
				}
				propCur = propCur.Parent
			case inProp && isDAV(name, "prop"):
				inProp = false
			case inPropstat && isDAV(name, "status"):
				ps.Status, err = davproto.ParseStatusLine(string(text))
			case inPropstat && isDAV(name, "propstat"):
				inPropstat = false
				resp.Propstats = append(resp.Propstats, ps)
			case inResponse && isDAV(name, "href"):
				resp.Href = string(bytes.TrimSpace(text))
			case inResponse && isDAV(name, "status"):
				// Response-level status (no propstats).
				resp.Status, err = davproto.ParseStatusLine(string(text))
			case isDAV(name, "response"):
				inResponse = false
				ms.Responses = append(ms.Responses, resp)
			}
			text = text[:0]
			return err
		},
		// A property value's text, mixed content included, goes to the
		// element it stands in, in one copy out of the response body.
		CharData: func(data []byte) error {
			if propRoot != nil {
				propCur.Text += string(data)
			} else {
				text = append(text, data...)
			}
			return nil
		},
	}
	if err := xmldom.ScanSAX(r, h); err != nil {
		return davproto.Multistatus{}, fmt.Errorf("davclient: sax multistatus: %w", err)
	}
	return ms, nil
}

// parseLockXML extracts the active lock from a LOCK response body
// (<D:prop><D:lockdiscovery><D:activelock>...).
func parseLockXML(body []byte) (davproto.ActiveLock, error) {
	root, err := xmldom.ParseBytes(body)
	if err != nil {
		return davproto.ActiveLock{}, fmt.Errorf("davclient: bad lock response: %w", err)
	}
	al := root.FindPath("DAV:|lockdiscovery", "DAV:|activelock")
	if al == nil {
		return davproto.ActiveLock{}, fmt.Errorf("davclient: lock response missing activelock")
	}
	return davproto.ActiveLockFromXML(al)
}
