package davclient

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/davproto"
	"repro/internal/xmldom"
)

// parseMultistatusSAX reads a 207 body in one tokenizer pass into what
// davproto.ParseMultistatus reads from the DOM, refusing what it
// refuses, and builds no document tree: the elements it keeps (hrefs,
// statuses, properties) are read as values, a value of text alone as a
// name and one string and only any other as the tree the DOM would
// give it. This is the optimization the paper predicted when it
// attributed the client-side cost of bulk PROPFINDs to DOM parsing.
func parseMultistatusSAX(r io.Reader) (davproto.Multistatus, error) {
	var m multistatusReader
	err := xmldom.ScanSAX(r, xmldom.SAXHandler{StartElement: m.start, EndElement: m.end, CharData: m.charData})
	if err == nil && !m.root {
		err = errors.New("empty document")
	}
	if err != nil {
		return davproto.Multistatus{}, fmt.Errorf("davclient: sax multistatus: %w", err)
	}
	return m.ms, nil
}

// multistatusReader is parseMultistatusSAX's state between events.
type multistatusReader struct {
	ms            davproto.Multistatus
	depth         int // elements open
	chain         int // of those, how many are multistatus, response, propstat, prop
	root, sawProp bool
	resp          davproto.Response
	props         []davproto.Property // the propstat's, reused across propstats
	// The first DAV:href and DAV:status of the response, and of the
	// propstat its first DAV:status; zero until read.
	href, respStatus, status davproto.Property

	// The element being read as a value (valDepth > 0): its name and
	// text while it is only text, valCur once it is a tree. It goes to
	// *valTo, or to props when valTo is nil.
	valDepth int
	valName  xml.Name
	valText  string
	valCur   *xmldom.Node
	valTo    *davproto.Property
}

func isDAV(n xml.Name, local string) bool { return n.Space == davproto.NS && n.Local == local }

func (m *multistatusReader) start(name xml.Name, attrs []xml.Attr) error {
	var none davproto.Property
	m.depth++
	switch d := m.depth; {
	case m.valDepth > 0:
		if m.valCur == nil { // a child: the text-only value becomes a tree
			m.valCur = &xmldom.Node{Name: m.valName, Text: m.valText}
		}
		m.valCur = m.valCur.AppendChild(&xmldom.Node{Name: name, Attrs: attrs})
	case d == 1 && m.root:
		return errors.New("multiple root elements")
	case d == 1:
		m.root, m.chain = true, 1
		if !isDAV(name, "multistatus") {
			return fmt.Errorf("expected DAV:multistatus, got %s %s", name.Space, name.Local)
		}
	case m.chain != d-1: // not a child of the chain: ignored
	case d == 2 && isDAV(name, "response"):
		m.chain, m.resp, m.href, m.respStatus = 2, davproto.Response{}, none, none
	case d == 3 && isDAV(name, "propstat"):
		m.chain, m.status, m.sawProp, m.props = 3, none, false, m.props[:0]
	case d == 4 && isDAV(name, "prop") && !m.sawProp:
		m.chain, m.sawProp = 4, true
	case d == 3 && isDAV(name, "href") && m.href == none:
		m.value(&m.href, name, attrs)
	case d == 3 && isDAV(name, "status") && m.respStatus == none:
		m.value(&m.respStatus, name, attrs)
	case d == 4 && isDAV(name, "status") && m.status == none:
		m.value(&m.status, name, attrs)
	case d == 5:
		m.value(nil, name, attrs)
	}
	return nil
}

func (m *multistatusReader) value(to *davproto.Property, name xml.Name, attrs []xml.Attr) {
	m.valDepth, m.valName, m.valText, m.valTo = m.depth, name, "", to
	if len(attrs) > 0 {
		m.valCur = &xmldom.Node{Name: name, Attrs: attrs}
	}
}

func (m *multistatusReader) end(xml.Name) (err error) {
	var none davproto.Property
	switch d := m.depth; {
	case m.valDepth > 0 && d > m.valDepth:
		m.valCur = m.valCur.Parent
	case d == m.valDepth:
		p := davproto.NewTextProperty(m.valName.Space, m.valName.Local, m.valText)
		if m.valCur != nil {
			p = davproto.NewNodeProperty(m.valCur)
		}
		if m.valTo != nil {
			*m.valTo = p
		} else {
			m.props = append(m.props, p)
		}
		m.valDepth, m.valCur = 0, nil
	case d == m.chain && d == 3:
		var ps davproto.Propstat
		if m.status != none {
			ps.Status, err = davproto.ParseStatusLine(m.status.Text())
		}
		if len(m.props) > 0 {
			ps.Props = slices.Clone(m.props)
		}
		m.resp.Propstats = append(m.resp.Propstats, ps)
	case d == m.chain && d == 2:
		m.resp.Href = m.href.Text()
		if len(m.resp.Propstats) == 0 && m.respStatus != none {
			m.resp.Status, err = davproto.ParseStatusLine(m.respStatus.Text())
		}
		m.ms.Responses = append(m.ms.Responses, m.resp)
	}
	if m.depth == m.chain {
		m.chain--
	}
	m.depth--
	return err
}

// charData gives a value's text, mixed content included, to the
// element it stands in: a single chunk in one copy out of the body.
func (m *multistatusReader) charData(data []byte) error {
	if m.valCur != nil {
		m.valCur.Text += string(data)
	} else if m.valDepth > 0 {
		m.valText += string(data)
	}
	return nil
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
