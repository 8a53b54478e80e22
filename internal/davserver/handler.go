package davserver

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"html"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/davproto"
	"repro/internal/store"
	"repro/internal/store/pathlock"
	"repro/internal/xmldom"
)

// DefaultMaxPropBytes is the per-property size limit. The paper set a
// 10 MB limit after its robustness testing, noting that production
// systems should set it "as low as possible for a given application".
const DefaultMaxPropBytes = 10 << 20

// Options tunes a Handler.
type Options struct {
	// MaxPropBytes caps the encoded size of a single dead property.
	// Zero means DefaultMaxPropBytes; negative means unlimited (used
	// by the robustness experiment to reproduce the paper's 100 MB
	// property test).
	MaxPropBytes int
	// Prefix is stripped from request URL paths before they are
	// interpreted as resource paths (e.g. "/dav").
	Prefix string
	// Logger receives request errors; nil discards them.
	Logger *slog.Logger
	// Degraded, when set, reports whether the server is browned out
	// (in davd, the SLO's burn-rate bit): while it returns true, Depth:
	// infinity PROPFIND and SEARCH are refused with the RFC 4918
	// finite-depth precondition. Nil means never degraded.
	Degraded func() bool
}

// Handler serves the WebDAV protocol over a Store.
type Handler struct {
	store store.Store
	locks *LockManager
	// gate is the write gate. Only write takes it, for the whole of a
	// state-changing method: its lock check, its read, its If-Match /
	// If-None-Match evaluation and its store writes are then one atomic
	// sequence against every other write on the path, so no lock is
	// granted and no write lands between another request's checks and
	// its write. It is hierarchical like the store's locks (a collection
	// DELETE waits for the PUTs inside it), and waiting on it is
	// cancellable.
	gate *pathlock.Manager
	opts Options
	// deepCapped counts Depth: infinity PROPFINDs and SEARCHes refused
	// while degraded.
	deepCapped atomic.Uint64
}

// NewHandler builds a Handler over s.
func NewHandler(s store.Store, opts *Options) *Handler {
	h := &Handler{store: s, locks: NewLockManager(), gate: pathlock.NewManager()}
	if opts != nil {
		h.opts = *opts
	}
	if h.opts.MaxPropBytes == 0 {
		h.opts.MaxPropBytes = DefaultMaxPropBytes
	}
	return h
}

// Locks exposes the lock manager (tests, tooling).
func (h *Handler) Locks() *LockManager { return h.locks }

func (h *Handler) logf(format string, args ...any) {
	if h.opts.Logger != nil {
		h.opts.Logger.Error(fmt.Sprintf(format, args...))
	}
}

// resourcePath maps a decoded URL path (a url.URL's Path) to a
// canonical store path. It decodes nothing: a '%' in it is a byte of
// the resource's name.
func (h *Handler) resourcePath(urlPath string) (string, error) {
	p := urlPath
	if h.opts.Prefix != "" {
		var ok bool
		p, ok = strings.CutPrefix(p, h.opts.Prefix)
		if !ok {
			return "", fmt.Errorf("%w: outside prefix %q", store.ErrBadPath, h.opts.Prefix)
		}
	}
	return store.CleanPath(p)
}

// ServeHTTP dispatches one DAV request. Every store call below receives
// r.Context(), so a client that disconnects mid-request cancels the
// work it queued — lock waits end, DBM scans stop, journalled writes
// roll back at their next safe checkpoint — instead of running to
// completion for nobody.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p, err := h.resourcePath(r.URL.Path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := guardVersionStore(r.Method, p); err != nil {
		http.Error(w, err.Error(), http.StatusForbidden)
		return
	}
	switch r.Method {
	case http.MethodOptions:
		h.handleOptions(w, r)
	case http.MethodGet, http.MethodHead:
		h.handleGet(w, r, p)
	case http.MethodPut:
		h.handlePut(w, r, p)
	case http.MethodDelete:
		h.handleDelete(w, r, p)
	case "MKCOL":
		h.handleMkcol(w, r, p)
	case "COPY", "MOVE":
		h.handleCopyMove(w, r, p)
	case "PROPFIND":
		h.handlePropfind(w, r, p)
	case "PROPPATCH":
		h.handleProppatch(w, r, p)
	case "LOCK":
		h.handleLock(w, r, p)
	case "UNLOCK":
		h.handleUnlock(w, r, p)
	case "SEARCH":
		h.handleSearch(w, r, p)
	case "VERSION-CONTROL":
		h.handleVersionControl(w, r, p)
	case "REPORT":
		h.handleReport(w, r, p)
	default:
		w.Header().Set("Allow", allowHeader)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

const allowHeader = "OPTIONS, GET, HEAD, PUT, DELETE, MKCOL, COPY, MOVE, PROPFIND, PROPPATCH, LOCK, UNLOCK, SEARCH, VERSION-CONTROL, REPORT"

func (h *Handler) handleOptions(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("DAV", "1,2,version-control")
	// Advertise the DASL basicsearch capability (SEARCH method).
	w.Header().Set("DASL", "<DAV:basicsearch>")
	w.Header().Set("MS-Author-Via", "DAV")
	w.Header().Set("Allow", allowHeader)
	w.WriteHeader(http.StatusOK)
}

// statusForErr maps store and lock errors to HTTP statuses.
func statusForErr(err error) int {
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &tooBig):
		// The BodyLimit middleware tripped mid-read (e.g. a chunked
		// upload with no Content-Length to reject up front).
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, store.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, store.ErrExists):
		return http.StatusMethodNotAllowed
	case errors.Is(err, store.ErrConflict):
		return http.StatusConflict
	case errors.Is(err, store.ErrIsCollection), errors.Is(err, store.ErrNotCollection):
		return http.StatusConflict
	case errors.Is(err, store.ErrBadPath):
		return http.StatusBadRequest
	case errors.Is(err, ErrLocked):
		return http.StatusLocked
	case errors.Is(err, store.ErrRecovering):
		// The store is still resolving journal intents after a crash;
		// the condition is transient, so tell clients when to retry.
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		// The client disconnected; the store abandoned its work. Nobody
		// reads this response — the code exists for the access log and
		// so the request counter can classify the abort.
		return statusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		// The per-operation deadline (davd -store-op-timeout) fired:
		// the server was too slow, not the client. Transient by
		// definition, so 503 + Retry-After like recovery.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// statusClientClosedRequest is the nginx-convention 499 recorded when a
// client disconnects before the response: not a server error, not a
// client protocol error, just an abandoned request. observeRequest
// gives it its own "aborted" class so SLO burn rates ignore it.
const statusClientClosedRequest = 499

// recoveryRetryAfter is the Retry-After hint on 503s during crash
// recovery: long enough that a client does not hammer a recovering
// server, short enough that small stores (which recover in
// milliseconds) are not penalized.
const recoveryRetryAfter = "5"

func (h *Handler) fail(w http.ResponseWriter, r *http.Request, err error) {
	// Cancellation is not failure. A client abort is log-only (nobody
	// reads the response, and paging on it would punish the server for
	// the client's network); a per-op deadline is a server-side
	// overload signal and retryable. Both count reclaimed work.
	switch {
	case errors.Is(err, context.Canceled):
		storeCancelledClient.Add(1)
		if h.opts.Logger != nil {
			h.opts.Logger.Info(fmt.Sprintf(
				"dav: %s %s: client disconnected, store work abandoned", r.Method, r.URL.Path))
		}
		w.WriteHeader(statusClientClosedRequest)
		return
	case errors.Is(err, context.DeadlineExceeded):
		storeCancelledDeadline.Add(1)
		w.Header().Set("Retry-After", recoveryRetryAfter)
		http.Error(w, "store operation exceeded the server's per-operation deadline",
			http.StatusServiceUnavailable)
		return
	}
	code := statusForErr(err)
	if code == http.StatusInternalServerError {
		h.logf("dav: %s %s: %v", r.Method, r.URL.Path, err)
	}
	if errors.Is(err, store.ErrRecovering) {
		w.Header().Set("Retry-After", recoveryRetryAfter)
	}
	http.Error(w, err.Error(), code)
}

// storeCancelledClient / storeCancelledDeadline back the
// dav_store_cancelled_total{reason} metric: store operations abandoned
// because the requesting client disconnected vs. cut off by the
// configured per-operation deadline.
var storeCancelledClient, storeCancelledDeadline atomic.Int64

// submittedTokens extracts lock tokens from the If header.
func submittedTokens(r *http.Request) []string {
	return davproto.ParseIfTokens(r.Header.Get("If"))
}

// handleGet serves GET from one store.Get call: the headers, the
// If-None-Match answer and the body all come from the generation that
// call opened, so a PUT racing the read cannot make them disagree.
// HEAD opens nothing and describes the resource from Stat.
func (h *Handler) handleGet(w http.ResponseWriter, r *http.Request, p string) {
	head := r.Method == http.MethodHead
	var (
		rc  io.ReadCloser
		ri  store.ResourceInfo
		err error
	)
	if head {
		ri, err = h.store.Stat(r.Context(), p)
	} else {
		rc, ri, err = h.store.Get(r.Context(), p)
	}
	if ri.IsCollection || errors.Is(err, store.ErrIsCollection) {
		h.serveCollectionIndex(w, r, p)
		return
	}
	if err != nil {
		h.fail(w, r, err)
		return
	}
	if !head {
		defer rc.Close()
	}
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagListMatches(inm, ri.ETag) {
		w.Header().Set("ETag", ri.ETag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", ri.ContentType)
	w.Header().Set("Content-Length", strconv.FormatInt(ri.Size, 10))
	w.Header().Set("ETag", ri.ETag)
	w.Header().Set("Last-Modified", ri.ModTime.UTC().Format(http.TimeFormat))
	if head {
		w.WriteHeader(http.StatusOK)
		return
	}
	// CopyN, not Copy: the *io.LimitedReader it wraps the document in is
	// the shape net's sendfile path recognises, where Go 1.24's
	// os.File.WriteTo (which io.Copy prefers) hands it one it does not.
	if _, err := io.CopyN(w, rc, ri.Size); err != nil {
		h.logf("dav: GET %s: %v", p, err)
	}
}

// serveCollectionIndex renders a minimal HTML listing, supporting the
// paper's "users can run standard Web browsers to surf the Ecce
// database" scenario.
func (h *Handler) serveCollectionIndex(w http.ResponseWriter, r *http.Request, p string) {
	members, err := h.store.ListWithProps(r.Context(), p)
	if err != nil {
		h.fail(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
		return
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "<html><head><title>Index of %s</title></head><body>\n", html.EscapeString(p))
	fmt.Fprintf(&sb, "<h1>Index of %s</h1>\n<ul>\n", html.EscapeString(p))
	if p != "/" {
		fmt.Fprintf(&sb, `<li><a href="%s">..</a></li>`+"\n",
			html.EscapeString(h.opts.Prefix+store.ParentPath(p)))
	}
	for _, m := range members {
		if !visible(m.Info.Path) && visible(p) {
			continue // the version store stays out of the live tree's listings
		}
		name := m.Info.Name()
		if m.Info.IsCollection {
			name += "/"
		}
		fmt.Fprintf(&sb, `<li><a href="%s">%s</a> (%d bytes)</li>`+"\n",
			html.EscapeString(h.opts.Prefix+m.Info.Path), html.EscapeString(name), m.Info.Size)
	}
	sb.WriteString("</ul></body></html>\n")
	io.WriteString(w, sb.String())
}

// etagListMatches reports whether an If-Match/If-None-Match header
// value matches etag. "*" matches any existing representation; weak
// validators compare by their opaque part (weak comparison is what
// RFC 7232 asks of If-None-Match, and sufficient for If-Match's use on
// state-changing methods here).
func etagListMatches(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		t := strings.TrimPrefix(strings.TrimSpace(part), "W/")
		if t != "" && t == strings.TrimPrefix(etag, "W/") {
			return true
		}
	}
	return false
}

// checkPreconditions evaluates If-Match / If-None-Match against the
// target's current state for state-changing methods, per RFC 7232:
// If-Match fails on a missing resource or an unlisted ETag, If-None-Match
// fails when a listed (or, with "*", any) representation exists. It
// reports ok=false when the request must fail with 412.
func checkPreconditions(r *http.Request, ri store.ResourceInfo, exists bool) bool {
	if im := r.Header.Get("If-Match"); im != "" {
		if !exists || !etagListMatches(im, ri.ETag) {
			return false
		}
	}
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		if exists && etagListMatches(inm, ri.ETag) {
			return false
		}
	}
	return true
}

// readMode says what write reads of the request-URI before a method's
// body runs.
type readMode uint8

const (
	readIfAsked readMode = iota // Stat, only when If-Match or If-None-Match asks
	readInfo                    // Stat
	readProps                   // StatWithProps: the body needs the dead properties
)

// current is what write read of the request-URI: err is nil or wraps
// store.ErrNotFound, and all of it is zero when nothing was read.
type current struct {
	ri    store.ResourceInfo
	props map[xml.Name][]byte
	err   error
}

// write is the one path of every state-changing method: PUT, DELETE,
// MKCOL, COPY, MOVE, PROPPATCH, LOCK's create and grant, and
// VERSION-CONTROL. It holds the write gate on gated (nil: p,
// exclusive), refuses with 423 unless the If header submits the token
// of every lock on the locked paths, reads p as read says (any error
// but ErrNotFound fails the request), answers 412 when If-Match or
// If-None-Match fails against that read (RFC 7232 §3), and only then
// runs body, still under the gate.
func (h *Handler) write(w http.ResponseWriter, r *http.Request, p string, gated []pathlock.Req,
	locked []string, read readMode, body func(current)) {
	if gated == nil {
		gated = []pathlock.Req{{Path: p, Mode: pathlock.Exclusive}}
	}
	g, err := h.gate.Acquire(r.Context(), gated...)
	if err != nil {
		h.fail(w, r, err)
		return
	}
	defer g.Release()
	tokens := submittedTokens(r)
	for _, q := range locked {
		if !h.locks.CanWrite(q, tokens) {
			h.fail(w, r, fmt.Errorf("%w: %s", ErrLocked, q))
			return
		}
	}
	var cur current
	switch {
	case read == readProps:
		cur.ri, cur.props, cur.err = h.store.StatWithProps(r.Context(), p)
	case read == readInfo || r.Header.Get("If-Match") != "" || r.Header.Get("If-None-Match") != "":
		cur.ri, cur.err = h.store.Stat(r.Context(), p)
	}
	if cur.err != nil && !errors.Is(cur.err, store.ErrNotFound) {
		h.fail(w, r, cur.err)
		return
	}
	if !checkPreconditions(r, cur.ri, cur.err == nil) {
		http.Error(w, "precondition failed", http.StatusPreconditionFailed)
		return
	}
	body(cur)
}

func (h *Handler) handlePut(w http.ResponseWriter, r *http.Request, p string) {
	// The one read gives the preconditions their state and
	// auto-versioning its bookkeeping.
	h.write(w, r, p, nil, []string{p}, readProps, func(cur current) {
		if cur.err == nil && cur.ri.IsCollection {
			http.Error(w, "cannot PUT to a collection", http.StatusMethodNotAllowed)
			return
		}
		created, err := h.store.Put(r.Context(), p, r.Body, r.Header.Get("Content-Type"))
		if err != nil {
			h.fail(w, r, err)
			return
		}
		if created {
			w.WriteHeader(http.StatusCreated)
			return
		}
		// Auto-versioning: a write to a version-controlled document
		// appends a new version snapshot, under load as at rest.
		if err := h.autoVersionAfterPut(context.WithoutCancel(r.Context()), p, cur.props); err != nil {
			h.logf("dav: auto-version %s: %v", p, err)
		}
		w.WriteHeader(http.StatusNoContent)
	})
}

func (h *Handler) handleDelete(w http.ResponseWriter, r *http.Request, p string) {
	if p == "/" {
		http.Error(w, "cannot delete the root collection", http.StatusForbidden)
		return
	}
	h.write(w, r, p, nil, []string{p}, readIfAsked, func(current) {
		if err := h.store.Delete(r.Context(), p); err != nil {
			h.fail(w, r, err)
			return
		}
		h.locks.ReleaseTree(p)
		w.WriteHeader(http.StatusNoContent)
	})
}

func (h *Handler) handleMkcol(w http.ResponseWriter, r *http.Request, p string) {
	// RFC 2518: a request body is allowed to be rejected as
	// unsupported.
	if body, _ := io.ReadAll(io.LimitReader(r.Body, 1)); len(body) > 0 {
		http.Error(w, "MKCOL request bodies are not supported", http.StatusUnsupportedMediaType)
		return
	}
	h.write(w, r, p, nil, []string{p, store.ParentPath(p)}, readIfAsked, func(current) {
		if err := h.store.Mkcol(r.Context(), p); err != nil {
			h.fail(w, r, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
	})
}

// parseDestination resolves the Destination header to a store path.
func (h *Handler) parseDestination(r *http.Request) (string, error) {
	dest := r.Header.Get("Destination")
	if dest == "" {
		return "", fmt.Errorf("%w: missing Destination header", store.ErrBadPath)
	}
	u, err := url.Parse(dest)
	if err != nil {
		return "", fmt.Errorf("%w: bad Destination %q", store.ErrBadPath, dest)
	}
	if u.Host != "" && r.Host != "" && u.Host != r.Host {
		return "", fmt.Errorf("%w: cross-server Destination %q", store.ErrBadPath, dest)
	}
	return h.resourcePath(u.Path)
}

func (h *Handler) handleCopyMove(w http.ResponseWriter, r *http.Request, src string) {
	dst, err := h.parseDestination(r)
	if err != nil {
		h.fail(w, r, err)
		return
	}
	// The Destination header must not target the read-only version
	// store either.
	if err := guardVersionStore(r.Method, dst); err != nil {
		http.Error(w, err.Error(), http.StatusForbidden)
		return
	}
	if dst == src {
		http.Error(w, "source and destination are the same resource", http.StatusForbidden)
		return
	}
	if store.IsAncestor(src, dst) || store.IsAncestor(dst, src) {
		http.Error(w, "source and destination overlap", http.StatusForbidden)
		return
	}
	depth, err := davproto.ParseDepth(r.Header.Get("Depth"), davproto.DepthInfinity)
	if err != nil || depth == davproto.Depth1 {
		http.Error(w, "Depth must be 0 or infinity", http.StatusBadRequest)
		return
	}
	if r.Method == "MOVE" && depth != davproto.DepthInfinity {
		http.Error(w, "MOVE requires Depth: infinity", http.StatusBadRequest)
		return
	}
	overwrite := true
	switch strings.ToUpper(strings.TrimSpace(r.Header.Get("Overwrite"))) {
	case "", "T":
	case "F":
		overwrite = false
	default:
		http.Error(w, "bad Overwrite header", http.StatusBadRequest)
		return
	}
	// COPY reads its source, so the source is held shared until the copy
	// ends: no write lands on it between an If-Match read and the copy.
	srcMode := pathlock.Shared
	locked := []string{dst}
	if r.Method == "MOVE" {
		srcMode = pathlock.Exclusive
		locked = append(locked, src)
	}
	gated := []pathlock.Req{{Path: dst, Mode: pathlock.Exclusive}, {Path: src, Mode: srcMode}}
	transfer := func() error {
		if r.Method == "COPY" {
			return h.store.CopyTreeAtomic(r.Context(), src, dst, store.CopyOptions{Recurse: depth == davproto.DepthInfinity})
		}
		return h.store.Rename(r.Context(), src, dst)
	}
	// The store answers for both ends: a missing source is ErrNotFound
	// before an existing destination is ErrExists, which Overwrite
	// resolves.
	h.write(w, r, src, gated, locked, readIfAsked, func(current) {
		err := transfer()
		replaced := errors.Is(err, store.ErrExists)
		if replaced {
			if !overwrite {
				http.Error(w, "destination exists", http.StatusPreconditionFailed)
				return
			}
			if err = h.store.Delete(r.Context(), dst); err == nil {
				h.locks.ReleaseTree(dst)
				err = transfer()
			}
		}
		if err != nil {
			h.fail(w, r, err)
			return
		}
		if r.Method == "MOVE" {
			h.locks.ReleaseTree(src)
		}
		if replaced {
			w.WriteHeader(http.StatusNoContent)
		} else {
			w.WriteHeader(http.StatusCreated)
		}
	})
}

// liveProp computes a live property for a resource, reporting ok=false
// for properties that do not apply (e.g. getcontentlength on a
// collection).
func (h *Handler) liveProp(ri store.ResourceInfo, name xml.Name) (davproto.Property, bool) {
	switch name {
	case davproto.PropCreationDate:
		return davproto.NewTextProperty(name.Space, name.Local,
			ri.CreateTime.UTC().Format(time.RFC3339)), true
	case davproto.PropDisplayName:
		return davproto.NewTextProperty(name.Space, name.Local, ri.Name()), true
	case davproto.PropGetLastModified:
		return davproto.NewTextProperty(name.Space, name.Local,
			ri.ModTime.UTC().Format(http.TimeFormat)), true
	case davproto.PropResourceType:
		n := xmldom.NewElement(davproto.NS, "resourcetype")
		if ri.IsCollection {
			n.Add(davproto.NS, "collection")
		}
		return davproto.NewNodeProperty(n), true
	case davproto.PropGetContentLength:
		if ri.IsCollection {
			return davproto.Property{}, false
		}
		return davproto.NewTextProperty(name.Space, name.Local,
			strconv.FormatInt(ri.Size, 10)), true
	case davproto.PropGetContentType:
		if ri.IsCollection {
			return davproto.Property{}, false
		}
		return davproto.NewTextProperty(name.Space, name.Local, ri.ContentType), true
	case davproto.PropGetETag:
		if ri.IsCollection {
			return davproto.Property{}, false
		}
		return davproto.NewTextProperty(name.Space, name.Local, ri.ETag), true
	case davproto.PropSupportedLock:
		n := xmldom.NewElement(davproto.NS, "supportedlock")
		for _, scope := range []string{"exclusive", "shared"} {
			le := n.Add(davproto.NS, "lockentry")
			le.Add(davproto.NS, "lockscope").Add(davproto.NS, scope)
			le.Add(davproto.NS, "locktype").Add(davproto.NS, "write")
		}
		return davproto.NewNodeProperty(n), true
	case davproto.PropLockDiscovery:
		n := xmldom.NewElement(davproto.NS, "lockdiscovery")
		for _, al := range h.locks.LocksOn(ri.Path) {
			n.AppendChild(al.ToXML())
		}
		return davproto.NewNodeProperty(n), true
	default:
		return davproto.Property{}, false
	}
}

func (h *Handler) handleProppatch(w http.ResponseWriter, r *http.Request, p string) {
	ops, err := davproto.ParseProppatch(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Phase 1: validate. RFC 2518 makes PROPPATCH atomic: if any
	// instruction fails, none are applied and the others report 424
	// (Failed Dependency).
	statuses := make([]int, len(ops))
	anyFailed := false
	for i, op := range ops {
		switch {
		case davproto.IsLiveProp(op.Prop.Name()):
			statuses[i] = http.StatusConflict // protected property
			anyFailed = true
		case op.Prop.Name().Space == vcNS:
			// Versioning bookkeeping is server-managed.
			statuses[i] = http.StatusConflict
			anyFailed = true
		case !op.Remove && h.opts.MaxPropBytes > 0 && len(op.Prop.Encode()) > h.opts.MaxPropBytes:
			// The configurable limit the paper recommends (10 MB
			// default).
			statuses[i] = http.StatusInsufficientStorage
			anyFailed = true
		default:
			statuses[i] = http.StatusOK
		}
	}
	// The one read of the resource: it must exist, and its properties
	// are the undo snapshot phase 2 rolls back to.
	h.write(w, r, p, nil, []string{p}, readProps, func(cur current) {
		if cur.err != nil {
			h.fail(w, r, cur.err)
			return
		}
		if anyFailed {
			for i, st := range statuses {
				if st == http.StatusOK {
					statuses[i] = http.StatusFailedDependency
				}
			}
			h.writeProppatchResult(w, r, p, ops, statuses)
			return
		}
		// Phase 2: apply, with rollback on unexpected storage errors. The
		// snapshot's values are read-only aliases; the rollback only
		// writes them back.
		applyErr := error(nil)
		failedAt := -1
		for i, op := range ops {
			if op.Remove {
				applyErr = h.store.PropDelete(r.Context(), p, op.Prop.Name())
			} else {
				applyErr = h.store.PropPut(r.Context(), p, op.Prop.Name(), op.Prop.Encode())
			}
			if applyErr != nil {
				failedAt = i
				break
			}
		}
		if applyErr != nil {
			// The rollback restores atomicity, so it must not itself be
			// cut short by the cancellation that may have caused
			// applyErr: run it under a context detached from the
			// request's.
			rbctx := context.WithoutCancel(r.Context())
			for i := failedAt - 1; i >= 0; i-- {
				name := ops[i].Prop.Name()
				if prev, had := cur.props[name]; had {
					h.store.PropPut(rbctx, p, name, prev)
				} else {
					h.store.PropDelete(rbctx, p, name)
				}
			}
			h.logf("dav: PROPPATCH %s: %v", p, applyErr)
			for i := range statuses {
				if i == failedAt {
					statuses[i] = http.StatusInternalServerError
				} else {
					statuses[i] = http.StatusFailedDependency
				}
			}
		}
		h.writeProppatchResult(w, r, p, ops, statuses)
	})
}

// writeProppatchResult answers with one propstat per status, in
// ascending order, each naming its properties in request order.
func (h *Handler) writeProppatchResult(w http.ResponseWriter, r *http.Request, p string, ops []davproto.PatchOp, statuses []int) {
	order := slices.Clone(statuses)
	slices.Sort(order)
	order = slices.Compact(order)
	h.multistatus(w, r, func(buf *bytes.Buffer) error {
		buf.WriteString(`<D:response>`)
		h.writeHref(buf, p)
		for _, st := range order {
			buf.WriteString(propstatOpen)
			for i, op := range ops {
				if statuses[i] == st {
					writeEmptyProp(buf, op.Prop.Name())
				}
			}
			propstatEnd(buf, st)
		}
		buf.WriteString(`</D:response>`)
		return nil
	})
}

func (h *Handler) handleLock(w http.ResponseWriter, r *http.Request, p string) {
	timeout, err := davproto.ParseTimeout(r.Header.Get("Timeout"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	li, hasBody, err := davproto.ParseLockInfo(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	if !hasBody {
		// Lock refresh: the token arrives in the If header.
		tokens := submittedTokens(r)
		if len(tokens) == 0 {
			http.Error(w, "refresh requires a lock token in the If header", http.StatusBadRequest)
			return
		}
		al, err := h.locks.Refresh(tokens[0], timeout)
		if err != nil {
			http.Error(w, err.Error(), http.StatusPreconditionFailed)
			return
		}
		h.writeLockResponse(w, al, http.StatusOK)
		return
	}

	depth, err := davproto.ParseDepth(r.Header.Get("Depth"), davproto.DepthInfinity)
	if err != nil || depth == davproto.Depth1 {
		http.Error(w, "LOCK Depth must be 0 or infinity", http.StatusBadRequest)
		return
	}
	// Under the gate, a PUT cannot land between the read and the create,
	// and one queued behind the LOCK checks the lock it granted. LOCK
	// checks no lock itself: the grant refuses a conflicting one.
	h.write(w, r, p, nil, nil, readInfo, func(cur current) {
		created := false
		if cur.err != nil {
			// RFC 2518: locking an unmapped URL creates a (lock-null)
			// resource; we model it as an empty document.
			if _, err := h.store.Put(r.Context(), p, strings.NewReader(""), ""); err != nil {
				h.fail(w, r, err)
				return
			}
			created = true
		}
		al, err := h.locks.Lock(p, li.Scope, depth, li.Owner, timeout)
		if err != nil {
			if errors.Is(err, ErrLocked) {
				http.Error(w, err.Error(), http.StatusLocked)
			} else {
				http.Error(w, err.Error(), http.StatusBadRequest)
			}
			return
		}
		code := http.StatusOK
		if created {
			code = http.StatusCreated
		}
		w.Header().Set("Lock-Token", "<"+al.Token+">")
		h.writeLockResponse(w, al, code)
	})
}

// writeLockResponse renders <D:prop><D:lockdiscovery> with the active
// lock.
func (h *Handler) writeLockResponse(w http.ResponseWriter, al davproto.ActiveLock, code int) {
	prop := xmldom.NewElement(davproto.NS, "prop")
	prop.Add(davproto.NS, "lockdiscovery").AppendChild(al.ToXML())
	body := xmldom.MarshalDocument(prop)
	w.Header().Set("Content-Type", `text/xml; charset="utf-8"`)
	w.WriteHeader(code)
	w.Write(body)
}

func (h *Handler) handleUnlock(w http.ResponseWriter, r *http.Request, _ string) {
	token := strings.TrimSpace(r.Header.Get("Lock-Token"))
	token = strings.TrimPrefix(token, "<")
	token = strings.TrimSuffix(token, ">")
	if token == "" {
		http.Error(w, "missing Lock-Token header", http.StatusBadRequest)
		return
	}
	if err := h.locks.Unlock(token); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// brownoutRetryAfter is the Retry-After attached to brownout refusals.
// The SLO's degraded bit clears only once a burst has left its 5-minute
// window, so a longer hint than the admission queue's drain estimate is
// honest.
const brownoutRetryAfter = "10"

// refusedDeep refuses a Depth: infinity PROPFIND or SEARCH while the
// server is browned out, and reports whether it did. An unbounded walk
// is the most expensive read the protocol offers; it is refused the
// RFC 4918 §9.1 way, so compliant clients fall back to iterative
// Depth: 1 listings.
func (h *Handler) refusedDeep(w http.ResponseWriter, depth davproto.Depth) bool {
	if depth != davproto.DepthInfinity || h.opts.Degraded == nil || !h.opts.Degraded() {
		return false
	}
	h.deepCapped.Add(1)
	h.writeFiniteDepthRequired(w)
	return true
}

// writeFiniteDepthRequired renders the RFC 4918 §9.1
// <DAV:propfind-finite-depth/> precondition: this server (while browned
// out) does not serve Depth: infinity PROPFIND or SEARCH.
func (h *Handler) writeFiniteDepthRequired(w http.ResponseWriter) {
	n := xmldom.NewElement(davproto.NS, "error")
	n.Add(davproto.NS, "propfind-finite-depth")
	body := xmldom.MarshalDocument(n)
	w.Header().Set("Content-Type", `text/xml; charset="utf-8"`)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set("Retry-After", brownoutRetryAfter)
	w.WriteHeader(http.StatusForbidden)
	w.Write(body)
}
