// Package davclient is the client side of the Ecce data architecture:
// a WebDAV library mirroring the C++ HTTP/DAV classes the paper built
// at PNNL. It supports persistent or per-request connections (the
// paper found, anomalously, that reconnecting per request was faster
// in its environment — the connection-policy ablation measures this)
// and two 207-response parsers: a DOM parser (the measured Xerces
// configuration) and a streaming SAX parser (the paper's anticipated
// optimization).
package davclient

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/davproto"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/xmldom"
)

// ParserKind selects how multistatus bodies are parsed.
type ParserKind int

// Parser kinds.
const (
	// ParserSAX reads the response in one streaming pass and builds a
	// tree only for a property value that is not plain text.
	ParserSAX ParserKind = iota
	// ParserDOM builds a full document tree first: the paper's measured
	// configuration, kept as Table 1's paper-fidelity arm.
	ParserDOM
)

// Config configures a Client.
type Config struct {
	// BaseURL is the server root, e.g. "http://host:8080" or
	// "http://host:8080/dav".
	BaseURL string
	// Username/Password enable HTTP basic authentication when set.
	Username, Password string
	// Persistent enables HTTP/1.1 persistent connections. When false
	// every request opens a fresh connection, mirroring the paper's
	// reconnect-per-request configuration.
	Persistent bool
	// Parser selects the multistatus parser (default ParserSAX).
	Parser ParserKind
	// Timeout bounds each request; zero means no timeout.
	Timeout time.Duration
	// Retry enables automatic retries of idempotent requests on
	// transient failures; nil disables them (every request gets one
	// attempt, the pre-resilience behaviour).
	Retry *RetryPolicy
	// Transport overrides the underlying round tripper. When set,
	// Persistent is ignored; the chaos harness uses this to inject
	// transport faults between client and server.
	Transport http.RoundTripper
	// Metrics, when set, records client-side telemetry into the given
	// registry: requests issued, retries, backoff sleeps, and retry
	// budget exhaustion.
	Metrics *obs.Registry
	// Tracer, when set, opens one root span per logical operation
	// ("dav.client <METHOD>", spanning every retry attempt, each of
	// which gets a child span) and propagates the trace to the server
	// via the traceparent header.
	Tracer *trace.Tracer
}

// Client is a WebDAV client. It is safe for concurrent use.
type Client struct {
	base     *url.URL
	cfg      Config
	http     *http.Client
	requests *atomic.Int64
	retry    *retrier
	met      *clientMetrics
	ctx      context.Context // default per-request context; nil = Background
}

// StatusError reports an unexpected HTTP status.
type StatusError struct {
	Method string
	Path   string
	Code   int
	Body   string // first KB of the response body
	// RetryAfter is the parsed Retry-After delay from the response, if
	// any — the retry layer honors it for 429/503 rejections.
	RetryAfter time.Duration
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("davclient: %s %s: %d %s", e.Method, e.Path, e.Code, http.StatusText(e.Code))
}

// Is lets errors.Is match two StatusErrors by code alone, so callers
// can compare against &StatusError{Code: 404} without knowing the
// method or path.
func (e *StatusError) Is(target error) bool {
	t, ok := target.(*StatusError)
	return ok && t.Code == e.Code
}

// IsStatus reports whether err is, or wraps, a StatusError with the
// given code. It sees through fmt.Errorf("%w") wrapping — including
// the retry layer's attempt annotations — via errors.As.
func IsStatus(err error, code int) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == code
}

// New builds a client from cfg.
func New(cfg Config) (*Client, error) {
	base, err := url.Parse(cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("davclient: bad base URL %q: %w", cfg.BaseURL, err)
	}
	if base.Scheme == "" || base.Host == "" {
		return nil, fmt.Errorf("davclient: base URL %q must be absolute", cfg.BaseURL)
	}
	base.Path = strings.TrimSuffix(base.Path, "/")
	var tr http.RoundTripper = &http.Transport{
		DisableKeepAlives:   !cfg.Persistent,
		MaxIdleConns:        8,
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     15 * time.Second, // the paper's keepalive window
	}
	if cfg.Transport != nil {
		tr = cfg.Transport
	}
	return &Client{
		base:     base,
		cfg:      cfg,
		http:     &http.Client{Transport: tr, Timeout: cfg.Timeout},
		requests: &atomic.Int64{},
		retry:    newRetrier(cfg.Retry),
		met:      newClientMetrics(cfg.Metrics),
	}, nil
}

// Close releases idle connections.
func (c *Client) Close() {
	type idleCloser interface{ CloseIdleConnections() }
	if tr, ok := c.http.Transport.(idleCloser); ok {
		tr.CloseIdleConnections()
	}
}

// RequestCount returns the number of HTTP requests issued, including
// retries.
func (c *Client) RequestCount() int64 { return c.requests.Load() }

// RetryCount returns how many automatic retries this client has
// performed (zero when no RetryPolicy is configured).
func (c *Client) RetryCount() int64 {
	if c.retry == nil {
		return 0
	}
	return c.retry.retries.Load()
}

// WithContext returns a shallow copy of the client whose requests run
// under ctx: cancellation aborts in-flight requests and pending retry
// backoffs. The copy shares the transport, counters, and retry budget
// with its parent.
func (c *Client) WithContext(ctx context.Context) *Client {
	c2 := *c
	c2.ctx = ctx
	return &c2
}

// context resolves the per-request context.
func (c *Client) context() context.Context {
	if c.ctx != nil {
		return c.ctx
	}
	return context.Background()
}

// urlFor resolves a resource path against the base URL.
func (c *Client) urlFor(p string) string {
	u := *c.base
	u.Path = c.hrefFor(p)
	return u.String()
}

// hrefFor is a resource path as the server addresses it: under the base
// URL's path.
func (c *Client) hrefFor(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return c.base.Path + p
}

// do issues a request, enforcing the expected status codes. With a
// RetryPolicy configured, idempotent requests whose bodies can be
// rewound are retried on transient failures; the final error is
// annotated with the attempt count but still matches IsStatus /
// errors.As classification.
//
// Every attempt of one logical operation shares a single X-Request-ID
// — taken from the context when the caller stamped one with
// obs.WithRequestID, freshly generated otherwise — so the operation is
// traceable end-to-end through the server's access log.
//
// With a Tracer configured, the whole logical operation is one root
// span covering every retry attempt and backoff sleep; each attempt is
// a child span, and the traceparent header carries the trace to the
// server. When the caller supplied no request ID, it is minted from the
// trace ID, so access-log lines and traces join on one identifier.
func (c *Client) do(method, p string, headers map[string]string, body io.Reader, want ...int) (*http.Response, error) {
	ctx := c.context()
	var root *trace.Span
	if c.cfg.Tracer != nil {
		ctx, root = c.cfg.Tracer.Start(ctx, "dav.client "+method,
			trace.Str("method", method), trace.Str("path", p))
	}
	reqID := obs.RequestIDFrom(ctx)
	if reqID == "" && root != nil {
		reqID = root.TraceID().String()
	}
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	rw, rewindable := newRewinder(body)
	attempts := c.retry.attemptsFor(method, rewindable)
	var lastErr error
	finalAttempt := 1
	for attempt := 1; ; attempt++ {
		finalAttempt = attempt
		if attempt > 1 {
			if err := rw.rewind(); err != nil {
				lastErr = fmt.Errorf("davclient: %s %s: rewind for retry: %w", method, p, err)
				break
			}
		}
		attemptCtx := ctx
		var att *trace.Span
		if root != nil {
			attemptCtx, att = trace.Child(ctx, "dav.client.attempt",
				trace.Int("attempt", int64(attempt)))
		}
		resp, err := c.once(attemptCtx, method, p, reqID, headers, body, want)
		att.EndErr(err)
		if err == nil {
			root.SetAttr(trace.Int("attempts", int64(attempt)))
			root.End()
			return resp, nil
		}
		lastErr = err
		if attempt >= attempts || !c.retry.retryableErr(err) {
			break
		}
		if !c.retry.takeBudget() {
			c.met.countBudgetExhausted()
			break
		}
		c.met.countRetry()
		delay := c.retry.delay(attempt, lastErr)
		c.met.observeBackoff(delay)
		if err := c.retry.policy.Sleep(ctx, delay); err != nil {
			break // context cancelled while backing off
		}
	}
	root.SetAttr(trace.Int("attempts", int64(finalAttempt)))
	root.EndErr(lastErr)
	return nil, lastErr
}

// once issues exactly one HTTP request.
func (c *Client) once(ctx context.Context, method, p, reqID string, headers map[string]string, body io.Reader, want []int) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.urlFor(p), body)
	if err != nil {
		return nil, err
	}
	req.Header.Set(obs.RequestIDHeader, reqID)
	trace.Inject(ctx, req.Header)
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	if c.cfg.Username != "" {
		req.SetBasicAuth(c.cfg.Username, c.cfg.Password)
	}
	c.requests.Add(1)
	c.met.countRequest()
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("davclient: %s %s: %w", method, p, err)
	}
	for _, w := range want {
		if resp.StatusCode == w {
			return resp, nil
		}
	}
	excerpt, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
	resp.Body.Close()
	se := &StatusError{
		Method: method, Path: p, Code: resp.StatusCode, Body: string(excerpt),
		RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
	}
	// Load shedding (429, or 503 carrying backoff guidance) is counted
	// apart from failure: the server is telling us to slow down, not
	// that it is broken.
	if se.Code == http.StatusTooManyRequests ||
		(se.Code == http.StatusServiceUnavailable && se.RetryAfter > 0) {
		c.met.countShed()
	}
	return nil, se
}

// parseRetryAfter reads a Retry-After header: delta-seconds or an HTTP
// date. Unparseable or absent values yield zero.
func parseRetryAfter(v string) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// discard drains and closes a response body so the connection can be
// reused.
func discard(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// Options performs an OPTIONS request and returns the DAV compliance
// classes header.
func (c *Client) Options(p string) (string, error) {
	resp, err := c.do(http.MethodOptions, p, nil, nil, http.StatusOK)
	if err != nil {
		return "", err
	}
	defer discard(resp)
	return resp.Header.Get("DAV"), nil
}

// Put stores a document, reporting whether it was created (true) or
// replaced (false).
func (c *Client) Put(p string, body io.Reader, contentType string) (bool, error) {
	headers := map[string]string{}
	if contentType != "" {
		headers["Content-Type"] = contentType
	}
	resp, err := c.do(http.MethodPut, p, headers, body, http.StatusCreated, http.StatusNoContent)
	if err != nil {
		return false, err
	}
	defer discard(resp)
	return resp.StatusCode == http.StatusCreated, nil
}

// PutBytes stores a document from a byte slice.
func (c *Client) PutBytes(p string, body []byte, contentType string) (bool, error) {
	return c.Put(p, bytes.NewReader(body), contentType)
}

// Get retrieves a document body.
func (c *Client) Get(p string) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := c.GetTo(p, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// getBufSize is the step GetTo reads a body in for a writer without
// its own ReadFrom, where io.Copy would take 32 KiB at a time.
const getBufSize = 256 << 10

var getBufs = sync.Pool{New: func() any { b := make([]byte, getBufSize); return &b }}

// GetTo streams a document body into w and returns the byte count.
func (c *Client) GetTo(p string, w io.Writer) (int64, error) {
	resp, err := c.do(http.MethodGet, p, nil, nil, http.StatusOK)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, ok := w.(io.ReaderFrom); ok {
		return io.Copy(w, resp.Body)
	}
	buf := getBufs.Get().(*[]byte)
	defer getBufs.Put(buf)
	return io.CopyBuffer(w, resp.Body, *buf)
}

// Exists reports whether a resource exists.
func (c *Client) Exists(p string) (bool, error) {
	resp, err := c.do(http.MethodHead, p, nil, nil, http.StatusOK)
	if err != nil {
		if IsStatus(err, http.StatusNotFound) {
			return false, nil
		}
		return false, err
	}
	discard(resp)
	return true, nil
}

// Stat fetches a resource's live properties via a Depth: 0 PROPFIND.
func (c *Client) Stat(p string) (map[xml.Name]davproto.Property, error) {
	ms, err := c.PropFindAll(p, davproto.Depth0)
	if err != nil {
		return nil, err
	}
	if len(ms.Responses) == 0 {
		return nil, fmt.Errorf("davclient: empty multistatus for %s", p)
	}
	return davproto.PropsByName(ms.Responses[0].Propstats), nil
}

// Mkcol creates a collection.
func (c *Client) Mkcol(p string) error {
	resp, err := c.do("MKCOL", p, nil, nil, http.StatusCreated)
	if err != nil {
		return err
	}
	discard(resp)
	return nil
}

// MkcolAll creates a collection and any missing ancestors.
func (c *Client) MkcolAll(p string) error {
	p = strings.Trim(p, "/")
	if p == "" {
		return nil
	}
	prefix := ""
	for _, seg := range strings.Split(p, "/") {
		prefix += "/" + seg
		err := c.Mkcol(prefix)
		if err != nil && !IsStatus(err, http.StatusMethodNotAllowed) {
			return err
		}
	}
	return nil
}

// Delete removes a resource (recursively for collections).
func (c *Client) Delete(p string) error {
	resp, err := c.do(http.MethodDelete, p, nil, nil, http.StatusNoContent, http.StatusOK)
	if err != nil {
		return err
	}
	discard(resp)
	return nil
}

// copyMoveHeaders assembles Destination/Depth/Overwrite headers.
func (c *Client) copyMoveHeaders(dst string, depth davproto.Depth, overwrite bool) map[string]string {
	h := map[string]string{
		"Destination": c.urlFor(dst),
		"Depth":       depth.String(),
	}
	if overwrite {
		h["Overwrite"] = "T"
	} else {
		h["Overwrite"] = "F"
	}
	return h
}

// Copy duplicates src to dst on the server.
func (c *Client) Copy(src, dst string, depth davproto.Depth, overwrite bool) error {
	resp, err := c.do("COPY", src, c.copyMoveHeaders(dst, depth, overwrite), nil,
		http.StatusCreated, http.StatusNoContent)
	if err != nil {
		return err
	}
	discard(resp)
	return nil
}

// Move relocates src to dst on the server.
func (c *Client) Move(src, dst string, overwrite bool) error {
	resp, err := c.do("MOVE", src, c.copyMoveHeaders(dst, davproto.DepthInfinity, overwrite), nil,
		http.StatusCreated, http.StatusNoContent)
	if err != nil {
		return err
	}
	discard(resp)
	return nil
}

// PropFind issues a PROPFIND and parses the 207 response with the
// configured parser.
func (c *Client) PropFind(p string, depth davproto.Depth, pf davproto.Propfind) (davproto.Multistatus, error) {
	headers := map[string]string{
		"Depth":        depth.String(),
		"Content-Type": `text/xml; charset="utf-8"`,
	}
	resp, err := c.do("PROPFIND", p, headers, bytes.NewReader(davproto.MarshalPropfind(pf)),
		http.StatusMultiStatus)
	if err != nil {
		return davproto.Multistatus{}, err
	}
	return c.parseMultistatus(resp)
}

// parseMultistatus reads a 207 with the configured parser and closes
// it. Both parsers take the body whole; a response that states its
// length is read into one buffer of that size.
func (c *Client) parseMultistatus(resp *http.Response) (davproto.Multistatus, error) {
	defer resp.Body.Close()
	var body io.Reader = resp.Body
	if n := resp.ContentLength; n > 0 && n <= maxPresizedBody {
		body = sizedBody{resp.Body, int(n)}
	}
	if c.cfg.Parser == ParserDOM {
		return davproto.ParseMultistatus(body)
	}
	return parseMultistatusSAX(body)
}

// maxPresizedBody is the largest buffer a Content-Length header alone
// makes the client allocate; a longer body grows as it arrives.
const maxPresizedBody = 64 << 20

// sizedBody is a response body that knows its length, which is what
// xmldom looks for to read it in one piece.
type sizedBody struct {
	io.Reader
	n int
}

func (b sizedBody) Len() int { return b.n }

// PropFindAll fetches all properties (allprop).
func (c *Client) PropFindAll(p string, depth davproto.Depth) (davproto.Multistatus, error) {
	return c.PropFind(p, depth, davproto.Propfind{Kind: davproto.PropfindAllProp})
}

// PropFindNames fetches property names only.
func (c *Client) PropFindNames(p string, depth davproto.Depth) (davproto.Multistatus, error) {
	return c.PropFind(p, depth, davproto.Propfind{Kind: davproto.PropfindPropName})
}

// PropFindSelected fetches the named properties.
func (c *Client) PropFindSelected(p string, depth davproto.Depth, names ...xml.Name) (davproto.Multistatus, error) {
	return c.PropFind(p, depth, davproto.Propfind{Kind: davproto.PropfindProps, Props: names})
}

// Search issues a DASL SEARCH request (basicsearch subset) and parses
// the 207 result — the server-side query capability the paper
// anticipated. The request is addressed to the scope resource, and the
// scope href in its body lies under the base URL's path as that does.
func (c *Client) Search(bs davproto.BasicSearch) (davproto.Multistatus, error) {
	headers := map[string]string{"Content-Type": `text/xml; charset="utf-8"`}
	scope := bs.Scope
	bs.Scope = c.hrefFor(scope)
	resp, err := c.do("SEARCH", scope, headers, bytes.NewReader(davproto.MarshalSearch(bs)),
		http.StatusMultiStatus)
	if err != nil {
		return davproto.Multistatus{}, err
	}
	return c.parseMultistatus(resp)
}

// VersionControl puts a document under version control (its current
// state becomes version 1); subsequent Puts create new versions
// automatically.
func (c *Client) VersionControl(p string) error {
	resp, err := c.do("VERSION-CONTROL", p, nil, nil, http.StatusOK)
	if err != nil {
		return err
	}
	discard(resp)
	return nil
}

// VersionInfo describes one entry of a version history.
type VersionInfo struct {
	Href string // GET this path to retrieve the old state
	Name string // version number as assigned by the server
	Size int64
}

// VersionTree fetches a document's version history via a
// DAV:version-tree REPORT, oldest first.
func (c *Client) VersionTree(p string) ([]VersionInfo, error) {
	body := xmldom.MarshalDocument(xmldom.NewElement(davproto.NS, "version-tree"))
	headers := map[string]string{"Content-Type": `text/xml; charset="utf-8"`}
	resp, err := c.do("REPORT", p, headers, bytes.NewReader(body), http.StatusMultiStatus)
	if err != nil {
		return nil, err
	}
	ms, err := c.parseMultistatus(resp)
	if err != nil {
		return nil, err
	}
	out := make([]VersionInfo, 0, len(ms.Responses))
	for _, r := range ms.Responses {
		vi := VersionInfo{Href: r.Href}
		props := davproto.PropsByName(r.Propstats)
		if vn, ok := props[xml.Name{Space: davproto.NS, Local: "version-name"}]; ok {
			vi.Name = vn.Text()
		}
		if cl, ok := props[davproto.PropGetContentLength]; ok {
			vi.Size, _ = strconv.ParseInt(cl.Text(), 10, 64)
		}
		out = append(out, vi)
	}
	return out, nil
}

// PropPatch applies property operations and returns the per-property
// statuses.
func (c *Client) PropPatch(p string, ops []davproto.PatchOp) (davproto.Multistatus, error) {
	headers := map[string]string{"Content-Type": `text/xml; charset="utf-8"`}
	resp, err := c.do("PROPPATCH", p, headers, bytes.NewReader(davproto.MarshalProppatch(ops)),
		http.StatusMultiStatus)
	if err != nil {
		return davproto.Multistatus{}, err
	}
	return c.parseMultistatus(resp)
}

// SetProps sets properties and fails if any instruction is rejected.
func (c *Client) SetProps(p string, props ...davproto.Property) error {
	ops := make([]davproto.PatchOp, len(props))
	for i, prop := range props {
		ops[i] = davproto.PatchOp{Prop: prop}
	}
	return c.propPatchStrict(p, ops)
}

// RemoveProps removes properties and fails if any instruction is
// rejected.
func (c *Client) RemoveProps(p string, names ...xml.Name) error {
	ops := make([]davproto.PatchOp, len(names))
	for i, n := range names {
		ops[i] = davproto.PatchOp{Remove: true, Prop: davproto.NewTextProperty(n.Space, n.Local, "")}
	}
	return c.propPatchStrict(p, ops)
}

func (c *Client) propPatchStrict(p string, ops []davproto.PatchOp) error {
	ms, err := c.PropPatch(p, ops)
	if err != nil {
		return err
	}
	for _, r := range ms.Responses {
		for _, ps := range r.Propstats {
			if ps.Status != http.StatusOK {
				name := ""
				if len(ps.Props) > 0 {
					name = ps.Props[0].Name().Local
				}
				return fmt.Errorf("davclient: PROPPATCH %s: property %q rejected with %d", p, name, ps.Status)
			}
		}
	}
	return nil
}

// GetProp fetches one dead or live property value's text.
func (c *Client) GetProp(p string, name xml.Name) (davproto.Property, bool, error) {
	ms, err := c.PropFindSelected(p, davproto.Depth0, name)
	if err != nil {
		return davproto.Property{}, false, err
	}
	if len(ms.Responses) == 0 {
		return davproto.Property{}, false, fmt.Errorf("davclient: empty multistatus for %s", p)
	}
	prop, ok := davproto.PropsByName(ms.Responses[0].Propstats)[name]
	return prop, ok, nil
}

// Lock acquires a write lock.
func (c *Client) Lock(p string, scope davproto.LockScope, depth davproto.Depth, owner string, timeout time.Duration) (davproto.ActiveLock, error) {
	headers := map[string]string{
		"Depth":        depth.String(),
		"Timeout":      davproto.FormatTimeout(timeout),
		"Content-Type": `text/xml; charset="utf-8"`,
	}
	body := davproto.MarshalLockInfo(davproto.LockInfo{Scope: scope, Owner: owner})
	resp, err := c.do("LOCK", p, headers, bytes.NewReader(body), http.StatusOK, http.StatusCreated)
	if err != nil {
		return davproto.ActiveLock{}, err
	}
	defer resp.Body.Close()
	return parseLockResponse(resp)
}

// RefreshLock extends an existing lock.
func (c *Client) RefreshLock(p, token string, timeout time.Duration) (davproto.ActiveLock, error) {
	headers := map[string]string{
		"If":      "(<" + token + ">)",
		"Timeout": davproto.FormatTimeout(timeout),
	}
	resp, err := c.do("LOCK", p, headers, nil, http.StatusOK)
	if err != nil {
		return davproto.ActiveLock{}, err
	}
	defer resp.Body.Close()
	return parseLockResponse(resp)
}

// Unlock releases a lock.
func (c *Client) Unlock(p, token string) error {
	resp, err := c.do("UNLOCK", p, map[string]string{"Lock-Token": "<" + token + ">"}, nil,
		http.StatusNoContent)
	if err != nil {
		return err
	}
	discard(resp)
	return nil
}

// WithIf returns a derived client that attaches the given lock token
// to every request via the If header — convenient for write sequences
// under one lock.
func (c *Client) WithIf(token string) *LockedClient {
	return &LockedClient{c: c, token: token}
}

// LockedClient decorates write operations with a lock token.
type LockedClient struct {
	c     *Client
	token string
}

// Put stores a document under the lock.
func (lc *LockedClient) Put(p string, body io.Reader, contentType string) (bool, error) {
	headers := map[string]string{"If": "(<" + lc.token + ">)"}
	if contentType != "" {
		headers["Content-Type"] = contentType
	}
	resp, err := lc.c.do(http.MethodPut, p, headers, body, http.StatusCreated, http.StatusNoContent)
	if err != nil {
		return false, err
	}
	defer discard(resp)
	return resp.StatusCode == http.StatusCreated, nil
}

// Delete removes a resource under the lock.
func (lc *LockedClient) Delete(p string) error {
	resp, err := lc.c.do(http.MethodDelete, p, map[string]string{"If": "(<" + lc.token + ">)"}, nil,
		http.StatusNoContent, http.StatusOK)
	if err != nil {
		return err
	}
	discard(resp)
	return nil
}

// SetProps sets properties under the lock.
func (lc *LockedClient) SetProps(p string, props ...davproto.Property) error {
	ops := make([]davproto.PatchOp, len(props))
	for i, prop := range props {
		ops[i] = davproto.PatchOp{Prop: prop}
	}
	headers := map[string]string{
		"Content-Type": `text/xml; charset="utf-8"`,
		"If":           "(<" + lc.token + ">)",
	}
	resp, err := lc.c.do("PROPPATCH", p, headers,
		bytes.NewReader(davproto.MarshalProppatch(ops)), http.StatusMultiStatus)
	if err != nil {
		return err
	}
	ms, err := lc.c.parseMultistatus(resp)
	if err != nil {
		return err
	}
	for _, r := range ms.Responses {
		for _, ps := range r.Propstats {
			if ps.Status != http.StatusOK {
				return fmt.Errorf("davclient: locked PROPPATCH %s rejected with %d", p, ps.Status)
			}
		}
	}
	return nil
}

// parseLockResponse extracts the active lock from a LOCK response.
func parseLockResponse(resp *http.Response) (davproto.ActiveLock, error) {
	ms, err := io.ReadAll(resp.Body)
	if err != nil {
		return davproto.ActiveLock{}, err
	}
	root, err := parseLockXML(ms)
	if err != nil {
		return davproto.ActiveLock{}, err
	}
	if tok := strings.Trim(resp.Header.Get("Lock-Token"), "<>"); tok != "" {
		root.Token = tok
	}
	return root, nil
}
