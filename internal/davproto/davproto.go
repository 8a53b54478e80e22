// Package davproto defines the WebDAV (RFC 2518) wire vocabulary
// shared by the server and client: property representation, PROPFIND
// and PROPPATCH request bodies, 207 Multistatus responses, the Depth /
// Timeout / Overwrite headers, and lock metadata.
//
// A property is the paper's "XML encoded key-value pair in which the
// value may be simple text or contain complex data": a name and a
// string when the value is only text, an xmldom subtree whose root
// element is the property itself when it is complex. Building and
// parsing are both provided so the same vocabulary serves the server,
// the client's streaming reader, and the DOM it is measured against.
package davproto

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/xmldom"
)

// NS is the WebDAV XML namespace.
const NS = "DAV:"

// Depth is the value of the Depth request header.
type Depth int

// Depth values defined by RFC 2518.
const (
	Depth0 Depth = iota
	Depth1
	DepthInfinity
)

// String formats the depth as it appears on the wire.
func (d Depth) String() string {
	switch d {
	case Depth0:
		return "0"
	case Depth1:
		return "1"
	default:
		return "infinity"
	}
}

// ParseDepth parses a Depth header value; an empty header yields the
// supplied default (RFC 2518 defaults PROPFIND and COPY/MOVE/DELETE to
// infinity).
func ParseDepth(h string, def Depth) (Depth, error) {
	switch strings.ToLower(strings.TrimSpace(h)) {
	case "":
		return def, nil
	case "0":
		return Depth0, nil
	case "1":
		return Depth1, nil
	case "infinity":
		return DepthInfinity, nil
	default:
		return def, fmt.Errorf("davproto: invalid Depth header %q", h)
	}
}

// Property is a dead or live property: an XML element named by the
// property, whose content (text and/or child elements) is the value.
// One made by NewTextProperty holds only its name and text; one made by
// NewNodeProperty keeps the tree. The zero Property has no name, no
// text and no node.
type Property struct {
	name xml.Name
	text string
	tree *xmldom.Node
}

// NewTextProperty returns a property with simple text content.
func NewTextProperty(space, local, text string) Property {
	return Property{name: xml.Name{Space: space, Local: local}, text: text}
}

// NewNodeProperty returns the property whose element is n.
func NewNodeProperty(n *xmldom.Node) Property {
	return Property{name: n.Name, tree: n}
}

// Name returns the property's qualified name.
func (p Property) Name() xml.Name { return p.name }

// Text returns the property's flattened text content.
func (p Property) Text() string {
	if p.tree != nil {
		return strings.TrimSpace(p.tree.TextContent())
	}
	return strings.TrimSpace(p.text)
}

// Node returns the property element: for a text-only property a new
// one on each call, so changing it changes nothing; nil for the zero
// Property.
func (p Property) Node() *xmldom.Node {
	if p.tree == nil && p.name != (xml.Name{}) {
		return xmldom.NewTextElement(p.name.Space, p.name.Local, p.text)
	}
	return p.tree
}

// Encode serializes the property as a self-contained XML fragment
// suitable for storage; nil for the zero Property.
func (p Property) Encode() []byte {
	if n := p.Node(); n != nil {
		return xmldom.Marshal(n)
	}
	return nil
}

// DecodeProperty parses a stored property fragment.
func DecodeProperty(b []byte) (Property, error) {
	n, err := xmldom.ParseBytes(b)
	if err != nil {
		return Property{}, fmt.Errorf("davproto: bad stored property: %w", err)
	}
	return NewNodeProperty(n), nil
}

// PropfindKind distinguishes the three PROPFIND request forms.
type PropfindKind int

// PROPFIND request forms (RFC 2518 §8.1).
const (
	PropfindAllProp  PropfindKind = iota // <allprop/> or empty body
	PropfindPropName                     // <propname/>
	PropfindProps                        // <prop> with named properties
)

// Propfind is a parsed PROPFIND request body.
type Propfind struct {
	Kind  PropfindKind
	Props []xml.Name // populated for PropfindProps
}

// ParsePropfind parses a PROPFIND request body. An empty body means
// allprop, per RFC 2518.
func ParsePropfind(r io.Reader) (Propfind, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return Propfind{}, err
	}
	if len(strings.TrimSpace(string(body))) == 0 {
		return Propfind{Kind: PropfindAllProp}, nil
	}
	root, err := xmldom.ParseBytes(body)
	if err != nil {
		return Propfind{}, fmt.Errorf("davproto: bad propfind body: %w", err)
	}
	if root.Name.Space != NS || root.Name.Local != "propfind" {
		return Propfind{}, fmt.Errorf("davproto: expected DAV:propfind, got %s %s", root.Name.Space, root.Name.Local)
	}
	switch {
	case root.Find(NS, "allprop") != nil:
		return Propfind{Kind: PropfindAllProp}, nil
	case root.Find(NS, "propname") != nil:
		return Propfind{Kind: PropfindPropName}, nil
	}
	prop := root.Find(NS, "prop")
	if prop == nil {
		return Propfind{}, fmt.Errorf("davproto: propfind without allprop/propname/prop")
	}
	pf := Propfind{Kind: PropfindProps}
	for _, c := range prop.Children {
		if !writableName(c.Name) {
			return Propfind{}, fmt.Errorf("davproto: property name %q cannot be written as namespaced XML", c.Name.Local)
		}
		pf.Props = append(pf.Props, c.Name)
	}
	return pf, nil
}

// writableName reports whether Marshal can write the name so that it
// reads back. encoding/xml takes a colon at either end of a name as
// part of the local name, so <a: xmlns="u"/> is {u}a: - which could
// only be written prefix:a:, and that is not a name.
func writableName(n xml.Name) bool {
	return n.Space == "" || !strings.Contains(n.Local, ":")
}

// unwritableName returns the first element or attribute name under n
// that Marshal cannot write: a property holding one would be stored as
// bytes no PROPFIND can serve.
func unwritableName(n *xmldom.Node) (bad *xml.Name) {
	n.Walk(func(c *xmldom.Node) bool {
		if bad == nil && !writableName(c.Name) {
			bad = &c.Name
		}
		for i := range c.Attrs {
			if bad == nil && !writableName(c.Attrs[i].Name) {
				bad = &c.Attrs[i].Name
			}
		}
		return bad == nil
	})
	return bad
}

// MarshalPropfind builds a PROPFIND request body for the client side.
func MarshalPropfind(pf Propfind) []byte {
	root := xmldom.NewElement(NS, "propfind")
	switch pf.Kind {
	case PropfindAllProp:
		root.Add(NS, "allprop")
	case PropfindPropName:
		root.Add(NS, "propname")
	case PropfindProps:
		prop := root.Add(NS, "prop")
		for _, name := range pf.Props {
			prop.Add(name.Space, name.Local)
		}
	}
	return xmldom.MarshalDocument(root)
}

// PatchOp is one set or remove instruction within a PROPPATCH.
type PatchOp struct {
	Remove bool
	Prop   Property // for Remove, only the name matters
}

// ParseProppatch parses a PROPPATCH request body into an ordered list
// of operations (RFC 2518 requires document order to be preserved).
func ParseProppatch(r io.Reader) ([]PatchOp, error) {
	root, err := xmldom.Parse(r)
	if err != nil {
		return nil, fmt.Errorf("davproto: bad proppatch body: %w", err)
	}
	if root.Name.Space != NS || root.Name.Local != "propertyupdate" {
		return nil, fmt.Errorf("davproto: expected DAV:propertyupdate, got %s %s", root.Name.Space, root.Name.Local)
	}
	var ops []PatchOp
	for _, action := range root.Children {
		var remove bool
		switch {
		case action.Name.Space == NS && action.Name.Local == "set":
			remove = false
		case action.Name.Space == NS && action.Name.Local == "remove":
			remove = true
		default:
			continue
		}
		prop := action.Find(NS, "prop")
		if prop == nil {
			return nil, fmt.Errorf("davproto: %s without prop", action.Name.Local)
		}
		for _, p := range prop.Children {
			if bad := unwritableName(p); bad != nil {
				return nil, fmt.Errorf("davproto: name %q in property %s cannot be written as namespaced XML", bad.Local, p.Name.Local)
			}
			p.Parent = nil // detached, not copied: nobody keeps the request document
			ops = append(ops, PatchOp{Remove: remove, Prop: NewNodeProperty(p)})
		}
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("davproto: propertyupdate with no operations")
	}
	return ops, nil
}

// MarshalProppatch builds a PROPPATCH request body.
func MarshalProppatch(ops []PatchOp) []byte {
	root := xmldom.NewElement(NS, "propertyupdate")
	for _, op := range ops {
		var action *xmldom.Node
		if op.Remove {
			action = root.Add(NS, "remove")
		} else {
			action = root.Add(NS, "set")
		}
		prop := action.Add(NS, "prop")
		if op.Remove {
			prop.Add(op.Prop.Name().Space, op.Prop.Name().Local)
		} else {
			prop.AppendChild(op.Prop.Node().Clone())
		}
	}
	return xmldom.MarshalDocument(root)
}

// Propstat groups properties sharing one status within a response.
type Propstat struct {
	Props  []Property
	Status int
}

// Response is one resource's entry in a Multistatus.
type Response struct {
	Href      string
	Propstats []Propstat
	Status    int // used when the response carries no propstats (e.g. DELETE errors)
}

// Multistatus is the body of a 207 response.
type Multistatus struct {
	Responses []Response
}

// StatusLine renders an HTTP status line as used inside Multistatus.
func StatusLine(code int) string {
	return fmt.Sprintf("HTTP/1.1 %d %s", code, http.StatusText(code))
}

// ParseStatusLine extracts the status code from a DAV:status element's
// text.
func ParseStatusLine(s string) (int, error) {
	fields := strings.Fields(strings.TrimSpace(s))
	if len(fields) < 2 {
		return 0, fmt.Errorf("davproto: bad status line %q", s)
	}
	code, err := strconv.Atoi(fields[1])
	if err != nil {
		return 0, fmt.Errorf("davproto: bad status line %q", s)
	}
	return code, nil
}

// Marshal renders the multistatus document.
func (ms Multistatus) Marshal() []byte {
	root := xmldom.NewElement(NS, "multistatus")
	for _, r := range ms.Responses {
		resp := root.Add(NS, "response")
		resp.AddText(NS, "href", r.Href)
		for _, ps := range r.Propstats {
			pse := resp.Add(NS, "propstat")
			prop := pse.Add(NS, "prop")
			for _, p := range ps.Props {
				prop.AppendChild(p.Node().Clone())
			}
			pse.AddText(NS, "status", StatusLine(ps.Status))
		}
		if len(r.Propstats) == 0 {
			code := r.Status
			if code == 0 {
				code = http.StatusOK
			}
			resp.AddText(NS, "status", StatusLine(code))
		}
	}
	return xmldom.MarshalDocument(root)
}

// ParseMultistatus parses a 207 body via the DOM (the paper's measured
// configuration; see davclient for the SAX fast path).
func ParseMultistatus(r io.Reader) (Multistatus, error) {
	root, err := xmldom.Parse(r)
	if err != nil {
		return Multistatus{}, fmt.Errorf("davproto: bad multistatus: %w", err)
	}
	return multistatusFromDOM(root)
}

func multistatusFromDOM(root *xmldom.Node) (Multistatus, error) {
	if root.Name.Space != NS || root.Name.Local != "multistatus" {
		return Multistatus{}, fmt.Errorf("davproto: expected DAV:multistatus, got %s %s", root.Name.Space, root.Name.Local)
	}
	var ms Multistatus
	for _, re := range root.FindAll(NS, "response") {
		var resp Response
		if href := re.Find(NS, "href"); href != nil {
			resp.Href = strings.TrimSpace(href.TextContent())
		}
		for _, pse := range re.FindAll(NS, "propstat") {
			var ps Propstat
			if st := pse.Find(NS, "status"); st != nil {
				code, err := ParseStatusLine(st.TextContent())
				if err != nil {
					return Multistatus{}, err
				}
				ps.Status = code
			}
			if prop := pse.Find(NS, "prop"); prop != nil {
				for _, p := range prop.Children {
					p.Parent = nil // detached, not copied: root is dropped on return
					ps.Props = append(ps.Props, NewNodeProperty(p))
				}
			}
			resp.Propstats = append(resp.Propstats, ps)
		}
		if len(resp.Propstats) == 0 {
			if st := re.Find(NS, "status"); st != nil {
				code, err := ParseStatusLine(st.TextContent())
				if err != nil {
					return Multistatus{}, err
				}
				resp.Status = code
			}
		}
		ms.Responses = append(ms.Responses, resp)
	}
	return ms, nil
}

// PropsByName indexes a Propstat list: name → property, keeping only
// entries with 200 status.
func PropsByName(pss []Propstat) map[xml.Name]Property {
	out := map[xml.Name]Property{}
	for _, ps := range pss {
		if ps.Status != http.StatusOK {
			continue
		}
		for _, p := range ps.Props {
			out[p.Name()] = p
		}
	}
	return out
}

// Live property names defined by RFC 2518 that this implementation
// serves.
var (
	PropCreationDate     = xml.Name{Space: NS, Local: "creationdate"}
	PropDisplayName      = xml.Name{Space: NS, Local: "displayname"}
	PropGetContentLength = xml.Name{Space: NS, Local: "getcontentlength"}
	PropGetContentType   = xml.Name{Space: NS, Local: "getcontenttype"}
	PropGetETag          = xml.Name{Space: NS, Local: "getetag"}
	PropGetLastModified  = xml.Name{Space: NS, Local: "getlastmodified"}
	PropResourceType     = xml.Name{Space: NS, Local: "resourcetype"}
	PropSupportedLock    = xml.Name{Space: NS, Local: "supportedlock"}
	PropLockDiscovery    = xml.Name{Space: NS, Local: "lockdiscovery"}
)

// LiveProps lists every live property the server computes.
var LiveProps = []xml.Name{
	PropCreationDate, PropDisplayName, PropGetContentLength,
	PropGetContentType, PropGetETag, PropGetLastModified,
	PropResourceType, PropSupportedLock, PropLockDiscovery,
}

// IsLiveProp reports whether name is a server-computed property.
func IsLiveProp(name xml.Name) bool {
	for _, lp := range LiveProps {
		if lp == name {
			return true
		}
	}
	return false
}

// LockScope is the scope of a WebDAV lock.
type LockScope int

// Lock scopes (RFC 2518 supports write locks with these scopes).
const (
	LockExclusive LockScope = iota
	LockShared
)

// String returns the scope's element name.
func (s LockScope) String() string {
	if s == LockShared {
		return "shared"
	}
	return "exclusive"
}

// LockInfo is a parsed LOCK request body.
type LockInfo struct {
	Scope LockScope
	Owner string // opaque owner XML flattened to text
}

// ParseLockInfo parses a LOCK request body. An empty body indicates a
// lock refresh; ok is false in that case.
func ParseLockInfo(r io.Reader) (li LockInfo, ok bool, err error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return LockInfo{}, false, err
	}
	if len(strings.TrimSpace(string(body))) == 0 {
		return LockInfo{}, false, nil
	}
	root, err := xmldom.ParseBytes(body)
	if err != nil {
		return LockInfo{}, false, fmt.Errorf("davproto: bad lockinfo: %w", err)
	}
	if root.Name.Space != NS || root.Name.Local != "lockinfo" {
		return LockInfo{}, false, fmt.Errorf("davproto: expected DAV:lockinfo, got %s", root.Name.Local)
	}
	li = LockInfo{Scope: LockExclusive}
	if sc := root.Find(NS, "lockscope"); sc != nil && sc.Find(NS, "shared") != nil {
		li.Scope = LockShared
	}
	if ow := root.Find(NS, "owner"); ow != nil {
		li.Owner = strings.TrimSpace(ow.TextContent())
	}
	return li, true, nil
}

// MarshalLockInfo builds a LOCK request body.
func MarshalLockInfo(li LockInfo) []byte {
	root := xmldom.NewElement(NS, "lockinfo")
	scope := root.Add(NS, "lockscope")
	scope.Add(NS, li.Scope.String())
	root.Add(NS, "locktype").Add(NS, "write")
	if li.Owner != "" {
		root.AddText(NS, "owner", li.Owner)
	}
	return xmldom.MarshalDocument(root)
}

// ActiveLock describes a granted lock.
type ActiveLock struct {
	Token   string // opaquelocktoken:... URI
	Root    string // resource path the lock was granted on
	Scope   LockScope
	Owner   string
	Depth   Depth
	Timeout time.Duration // 0 means infinite
}

// ToXML renders the DAV:activelock element.
func (al ActiveLock) ToXML() *xmldom.Node {
	n := xmldom.NewElement(NS, "activelock")
	n.Add(NS, "locktype").Add(NS, "write")
	n.Add(NS, "lockscope").Add(NS, al.Scope.String())
	n.AddText(NS, "depth", al.Depth.String())
	if al.Owner != "" {
		n.AddText(NS, "owner", al.Owner)
	}
	n.AddText(NS, "timeout", FormatTimeout(al.Timeout))
	n.Add(NS, "locktoken").AddText(NS, "href", al.Token)
	return n
}

// ActiveLockFromXML parses a DAV:activelock element.
func ActiveLockFromXML(n *xmldom.Node) (ActiveLock, error) {
	var al ActiveLock
	if sc := n.Find(NS, "lockscope"); sc != nil && sc.Find(NS, "shared") != nil {
		al.Scope = LockShared
	}
	if d := n.Find(NS, "depth"); d != nil {
		depth, err := ParseDepth(d.TextContent(), DepthInfinity)
		if err != nil {
			return ActiveLock{}, err
		}
		al.Depth = depth
	}
	if ow := n.Find(NS, "owner"); ow != nil {
		al.Owner = strings.TrimSpace(ow.TextContent())
	}
	if to := n.Find(NS, "timeout"); to != nil {
		d, err := ParseTimeout(strings.TrimSpace(to.TextContent()))
		if err != nil {
			return ActiveLock{}, err
		}
		al.Timeout = d
	}
	if lt := n.Find(NS, "locktoken"); lt != nil {
		if href := lt.Find(NS, "href"); href != nil {
			al.Token = strings.TrimSpace(href.TextContent())
		}
	}
	return al, nil
}

// FormatTimeout renders a lock timeout header/element value.
func FormatTimeout(d time.Duration) string {
	if d <= 0 {
		return "Infinite"
	}
	return fmt.Sprintf("Second-%d", int(d.Seconds()))
}

// maxTimeoutSeconds is RFC 4918 §10.7's ceiling on "Second-n".
const maxTimeoutSeconds = 1<<32 - 1

// ParseTimeout parses a Timeout header value ("Second-n", "Infinite",
// or a comma-separated preference list from which the first supported
// entry is taken). An empty value yields 0 (infinite). A "Second-n"
// above 2³²−1 is clamped to that, so no value wraps time.Duration into
// a negative (never-expiring) or tiny timeout.
func ParseTimeout(h string) (time.Duration, error) {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0, nil
	}
	for _, part := range strings.Split(h, ",") {
		part = strings.TrimSpace(part)
		if strings.EqualFold(part, "Infinite") {
			return 0, nil
		}
		if rest, ok := strings.CutPrefix(part, "Second-"); ok {
			secs, err := strconv.ParseUint(rest, 10, 64)
			if errors.Is(err, strconv.ErrRange) {
				secs, err = maxTimeoutSeconds, nil
			}
			if err != nil {
				return 0, fmt.Errorf("davproto: bad timeout %q", part)
			}
			return time.Duration(min(secs, maxTimeoutSeconds)) * time.Second, nil
		}
	}
	return 0, fmt.Errorf("davproto: bad Timeout header %q", h)
}

// ParseIfTokens extracts every opaquelocktoken URI from an If header.
// This is the simplified tagged-list handling mod_dav-era clients
// relied on: any submitted token that matches the resource's lock
// authorizes the request.
func ParseIfTokens(h string) []string {
	var tokens []string
	for {
		i := strings.Index(h, "opaquelocktoken:")
		if i < 0 {
			return tokens
		}
		rest := h[i:]
		end := strings.IndexAny(rest, ">) \t")
		if end < 0 {
			end = len(rest)
		}
		tokens = append(tokens, rest[:end])
		h = rest[end:]
	}
}
