package davserver

import (
	"bytes"
	"context"
	"encoding/xml"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/davproto"
	"repro/internal/store"
	"repro/internal/xmldom"
)

// Every 207 this server sends — PROPFIND, SEARCH, the version-tree
// REPORT and the PROPPATCH result — is written here, without a DOM.
// Every dead property is stored as the self-contained fragment
// davproto.Property.Encode wrote at PROPPATCH time, so answering a read
// needs no parse: each stored value is known to be well-formed
// (xmldom.WellFormedFragment) and copied into the body as it is. A
// member from ListWithProps usually arrives vouched for: its
// MemberProps.Checked says the store checked its values once, when it
// built the view they come from. The values of any other resource — a
// Depth-0 target, a member whose view holds a value that is not a
// fragment, a version-controlled resource — are checked here, one pass
// each, no allocation. The envelope is fixed strings; live properties,
// a handful per resource, still go through liveProp and
// xmldom.MarshalTo. PROPFIND and SEARCH read their targets the same
// way (eachTarget), so a SEARCH costs the store what a PROPFIND of its
// scope does.
//
// The body is assembled in one pooled buffer and sent with
// Content-Length in a single Write. Chunked streaming would bound the
// memory of a Depth: infinity listing, but the body is buffered again by
// http.TimeoutHandler whenever -request-timeout is set, and the
// benchmark's isolated-call metrics capture a 207 only when its length
// is declared; see DESIGN §9 and ROADMAP item 3(c).

const (
	multistatusOpen  = xml.Header + `<D:multistatus xmlns:D="DAV:">`
	multistatusClose = `</D:multistatus>`
	propstatOpen     = `<D:propstat><D:prop>`
)

var (
	propstatOK       = `</D:prop><D:status>` + davproto.StatusLine(http.StatusOK) + `</D:status></D:propstat>`
	propstatNotFound = `</D:prop><D:status>` + davproto.StatusLine(http.StatusNotFound) + `</D:status></D:propstat>`
)

// multistatusBufs recycles response bodies between requests.
var multistatusBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf keeps one huge Depth: infinity listing from pinning its
// buffer in the pool forever.
const maxPooledBuf = 4 << 20

// multistatus answers 207 with the responses fill writes between the
// fixed envelope strings. If fill fails, the request fails instead
// (h.fail) and nothing of the 207 is sent.
func (h *Handler) multistatus(w http.ResponseWriter, r *http.Request, fill func(buf *bytes.Buffer) error) {
	buf := multistatusBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBuf {
			buf.Reset()
			multistatusBufs.Put(buf)
		}
	}()
	buf.WriteString(multistatusOpen)
	if err := fill(buf); err != nil {
		h.fail(w, r, err)
		return
	}
	buf.WriteString(multistatusClose)

	w.Header().Set("Content-Type", `text/xml; charset="utf-8"`)
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusMultiStatus)
	w.Write(buf.Bytes())
}

// handlePropfind writes each target into the response as it arrives.
func (h *Handler) handlePropfind(w http.ResponseWriter, r *http.Request, p string) {
	depth, err := davproto.ParseDepth(r.Header.Get("Depth"), davproto.DepthInfinity)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if h.refusedDeep(w, depth) {
		return
	}
	pf, err := davproto.ParsePropfind(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	h.multistatus(w, r, func(buf *bytes.Buffer) error {
		pw := propfindWriter{h: h, pf: pf, buf: buf}
		return h.eachTarget(r.Context(), p, depth, pw.response)
	})
}

// eachTarget hands fn, pre-order, every resource a read of p at depth
// covers, each with its dead properties: p, then its members (Depth 1)
// or all its descendants (infinity). It reads through the store's
// batched path, so a Depth-1 listing costs one locked pass through
// cached property databases. The version store is left out of a listing
// of the live tree; a walk that starts inside it lists it.
func (h *Handler) eachTarget(ctx context.Context, p string, depth davproto.Depth, fn func(store.MemberProps)) error {
	ri, props, err := h.store.StatWithProps(ctx, p)
	if err != nil {
		return err
	}
	root := store.MemberProps{Info: ri, Props: props}
	if depth == davproto.DepthInfinity {
		return store.WalkWithProps(ctx, h.store, root, func(m store.MemberProps) error {
			if visible(m.Info.Path) || !visible(p) {
				fn(m)
			}
			return nil
		})
	}
	fn(root)
	if depth == davproto.Depth0 || !ri.IsCollection {
		return nil
	}
	members, err := h.store.ListWithProps(ctx, p)
	if err != nil {
		return err
	}
	for _, m := range members {
		if visible(m.Info.Path) {
			fn(m)
		}
	}
	return nil
}

// propfindWriter writes DAV:response elements for one request. names
// and missing are scratch space reused from resource to resource.
type propfindWriter struct {
	h       *Handler
	pf      davproto.Propfind
	buf     *bytes.Buffer
	names   []xml.Name
	missing []xml.Name
}

// response writes one resource's entry from its pre-resolved info and
// stored properties.
func (pw *propfindWriter) response(mp store.MemberProps) {
	buf := pw.buf
	buf.WriteString(`<D:response>`)
	pw.h.writeHref(buf, mp.Info.Path)
	if pw.pf.Kind == davproto.PropfindProps {
		pw.named(mp)
	} else {
		pw.all(mp, pw.pf.Kind == davproto.PropfindPropName)
	}
	buf.WriteString(`</D:response>`)
}

// all answers allprop and propname: every applicable live property,
// then every dead one sorted by namespace and local name, in one 200
// propstat. A stored value that is not a well-formed fragment is logged
// and left out; the versioning bookkeeping is never listed.
func (pw *propfindWriter) all(mp store.MemberProps, namesOnly bool) {
	buf := pw.buf
	buf.WriteString(propstatOpen)
	for _, name := range davproto.LiveProps {
		if prop, ok := pw.h.liveProp(mp.Info, name); ok {
			if namesOnly {
				writeEmptyProp(buf, name)
			} else {
				xmldom.MarshalTo(buf, prop.Node())
			}
		}
	}
	pw.names = pw.names[:0]
	for name := range mp.Props {
		if name.Space != vcNS {
			pw.names = append(pw.names, name)
		}
	}
	slices.SortFunc(pw.names, func(a, b xml.Name) int {
		if c := strings.Compare(a.Space, b.Space); c != 0 {
			return c
		}
		return strings.Compare(a.Local, b.Local)
	})
	for _, name := range pw.names {
		raw := mp.Props[name]
		switch {
		case !mp.Checked && !xmldom.WellFormedFragment(raw):
			pw.h.logf("dav: undecodable stored property %v on %s", name, mp.Info.Path)
		case namesOnly:
			writeEmptyProp(buf, name)
		default:
			buf.Write(raw)
		}
	}
	buf.WriteString(propstatOK)
}

// named answers a <prop> request: the properties found, in request
// order, in a 200 propstat, then the others in a 404 propstat. A dead
// property whose stored value is not a well-formed fragment is logged
// and reported 404; the versioning bookkeeping is 404 without a word.
func (pw *propfindWriter) named(mp store.MemberProps) {
	buf := pw.buf
	pw.missing = pw.missing[:0]
	found := 0
	for _, name := range pw.pf.Props {
		var live davproto.Property
		var raw []byte
		ok := false
		if davproto.IsLiveProp(name) {
			live, ok = pw.h.liveProp(mp.Info, name)
		} else if name.Space != vcNS {
			if raw, ok = mp.Props[name]; ok && !mp.Checked && !xmldom.WellFormedFragment(raw) {
				pw.h.logf("dav: undecodable stored property %v on %s", name, mp.Info.Path)
				ok = false
			}
		}
		if !ok {
			pw.missing = append(pw.missing, name)
			continue
		}
		if found == 0 {
			buf.WriteString(propstatOpen)
		}
		found++
		if n := live.Node(); n != nil {
			xmldom.MarshalTo(buf, n)
		} else {
			buf.Write(raw)
		}
	}
	if found > 0 {
		buf.WriteString(propstatOK)
	}
	if len(pw.missing) > 0 {
		buf.WriteString(propstatOpen)
		for _, name := range pw.missing {
			writeEmptyProp(buf, name)
		}
		buf.WriteString(propstatNotFound)
	}
	if found == 0 && len(pw.missing) == 0 {
		buf.WriteString(propstatOpen)
		buf.WriteString(propstatOK)
	}
}

// writeEmptyProp writes a property element that carries only its name,
// as propname listings and 404 propstats do.
func writeEmptyProp(buf *bytes.Buffer, name xml.Name) {
	xmldom.MarshalTo(buf, xmldom.NewElement(name.Space, name.Local))
}

// writeHref writes the DAV:href of resource p, as the client addresses
// it: a URI reference (RFC 4918 §8.3), every byte of the path but '/'
// and RFC 3986's unreserved characters percent-encoded. What it writes
// needs no XML escaping.
func (h *Handler) writeHref(buf *bytes.Buffer, p string) {
	buf.WriteString(`<D:href>`)
	writeEscapedPath(buf, h.opts.Prefix)
	writeEscapedPath(buf, p)
	buf.WriteString(`</D:href>`)
}

// writeEscapedPath writes p percent-encoded as writeHref does. The
// run of bytes before the first that needs an escape, the whole of
// most paths, is copied in one step.
func writeEscapedPath(buf *bytes.Buffer, p string) {
	i := 0
	for i < len(p) && hrefSafe[p[i]] {
		i++
	}
	buf.WriteString(p[:i])
	const hex = "0123456789ABCDEF"
	for ; i < len(p); i++ {
		if c := p[i]; hrefSafe[c] {
			buf.WriteByte(c)
		} else {
			buf.Write([]byte{'%', hex[c>>4], hex[c&15]})
		}
	}
}

// hrefSafe marks the bytes an href carries as they are: '/' and RFC
// 3986's unreserved characters.
var hrefSafe = func() (safe [256]bool) {
	for _, c := range []byte("/-._~0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz") {
		safe[c] = true
	}
	return safe
}()

// propstatEnd closes a propstat with a status that has no fixed string
// (propstatOK, propstatNotFound).
func propstatEnd(buf *bytes.Buffer, status int) {
	buf.WriteString(`</D:prop><D:status>`)
	buf.WriteString(davproto.StatusLine(status))
	buf.WriteString(`</D:status></D:propstat>`)
}
