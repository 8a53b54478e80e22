package main

import (
	"bufio"
	"context"
	"encoding/json"
	"encoding/xml"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/davclient"
	"repro/internal/davproto"
	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/tools"
)

// A span is one call into one layer. The layer is the name's prefix up
// to the first dot ("store.put" belongs to store); the root span of an
// operation is named "op". Times are nanoseconds since the recorder was
// made.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for an operation's root
	Op     int64  `json:"op"`     // spans of one operation share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	if s.Name == "op" {
		return "harness"
	}
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// recorder keeps spans in memory until the run ends. Every wrapper in
// this file checks on first, so a run with the recorder off executes
// the same code minus the bookkeeping — that is the run
// trace.overhead_ratio compares against.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
	// Inputs for the isolated-call measurements, captured where the
	// traced run produced them.
	body []byte // largest 207 body a client received
	prop []byte // largest stored dead-property encoding the store saw
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) captureProp(v []byte) {
	r.mu.Lock()
	if len(v) > len(r.prop) {
		r.prop = append([]byte(nil), v...)
	}
	r.mu.Unlock()
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// track is one client goroutine's stack of open spans. A closed-loop
// client runs one call at a time, so the innermost open span is the
// parent of whatever starts next; no context needs threading through
// core and tools, whose signatures carry none.
type track struct {
	rec   *recorder
	op    int64
	open  []int64
	names []string
}

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (t *track) begin(name string) func() {
	if t == nil || !t.rec.on.Load() {
		return func() {}
	}
	id := t.rec.ids.Add(1)
	var parent int64
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open, t.names = append(t.open, id), append(t.names, name)
	start := t.rec.now()
	return func() {
		end := t.rec.now()
		t.open, t.names = t.open[:len(t.open)-1], t.names[:len(t.names)-1]
		t.rec.add(span{ID: id, Parent: parent, Op: t.op, Name: name, Start: start, End: end})
	}
}

// beginOp opens the root span of operation number op.
func (t *track) beginOp(op int64) func() {
	if t != nil {
		t.op = op
	}
	return t.begin("op")
}

func (t *track) innermost() (id int64, name string) {
	if n := len(t.open); n > 0 {
		return t.open[n-1], t.names[n-1]
	}
	return 0, ""
}

// spanHeader carries "parent:op" from the client's transport to the
// server's handler wrapper, the one boundary a goroutine-local stack
// cannot cross.
const spanHeader = "X-Bench-Span"

// meter is the http.RoundTripper handed to davclient.Config.Transport.
// It always times each request from RoundTrip to the moment the caller
// closes the response body and counts bytes; with a track it also
// records spans.
type meter struct {
	base http.RoundTripper
	tk   *track

	requests int64
	reqBytes int64                // PUT and PROPPATCH request bodies: the user's bytes
	respKB   float64              // response body bytes read, in KiB
	lat      map[string][]float64 // per-method request latency, ms
}

func newMeter(tk *track) *meter {
	// The settings davclient.New gives a Persistent client.
	return &meter{tk: tk, lat: map[string][]float64{}, base: &http.Transport{
		MaxIdleConns: 8, MaxIdleConnsPerHost: 8, IdleConnTimeout: 15 * time.Second,
	}}
}

func (m *meter) CloseIdleConnections() {
	m.base.(*http.Transport).CloseIdleConnections()
}

func (m *meter) RoundTrip(req *http.Request) (*http.Response, error) {
	m.requests++
	if (req.Method == http.MethodPut || req.Method == "PROPPATCH") && req.ContentLength > 0 {
		m.reqBytes += req.ContentLength
	}
	b := &meteredBody{m: m, method: req.Method, began: time.Now()}
	if tk := m.tk; tk != nil && tk.rec.on.Load() {
		// A call that reached the transport through core has no
		// benchmark-owned davclient wrapper above it (core holds a
		// concrete *davclient.Client), so the transport opens the
		// davclient span itself: from RoundTrip to body close, which is
		// all of davclient's work except building the request.
		if _, name := tk.innermost(); !strings.HasPrefix(name, "davclient.") {
			b.endClient = tk.begin("davclient." + strings.ToLower(req.Method))
		}
		b.rec, b.op = tk.rec, tk.op
		b.id = tk.rec.ids.Add(1)
		b.parent, _ = tk.innermost()
		b.start = tk.rec.now()
		req = req.Clone(req.Context()) // a RoundTripper must not alter its caller's request
		req.Header.Set(spanHeader, strconv.FormatInt(b.id, 10)+":"+strconv.FormatInt(b.op, 10))
	}
	resp, err := m.base.RoundTrip(req)
	b.waited = time.Since(b.began)
	if err != nil {
		b.finish()
		return nil, err
	}
	if b.rec != nil && resp.StatusCode == http.StatusMultiStatus {
		b.rec.mu.Lock()
		if resp.ContentLength > int64(len(b.rec.body)) {
			b.capture = make([]byte, 0, resp.ContentLength)
		}
		b.rec.mu.Unlock()
	}
	b.ReadCloser = resp.Body
	resp.Body = b
	return resp, nil
}

// meteredBody watches one response body. The http span it records ends
// at start + (time inside RoundTrip) + (time inside Read): the time the
// client spent waiting on the wire and the server. What the caller does
// between reads — davclient's DOM parse consumes the body as it arrives
// — stays out of it and so lands in davclient's self time, which is
// where the paper put it.
type meteredBody struct {
	io.ReadCloser
	m      *meter
	method string
	began  time.Time
	waited time.Duration
	done   bool

	rec        *recorder
	id, parent int64
	op, start  int64
	endClient  func()
	capture    []byte
}

func (b *meteredBody) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := b.ReadCloser.Read(p)
	b.waited += time.Since(t0)
	b.m.respKB += float64(n) / 1024
	if b.capture != nil {
		b.capture = append(b.capture, p[:n]...)
	}
	return n, err
}

func (b *meteredBody) Close() error {
	err := b.ReadCloser.Close()
	b.finish()
	return err
}

func (b *meteredBody) finish() {
	if b.done {
		return
	}
	b.done = true
	b.m.lat[b.method] = append(b.m.lat[b.method], float64(time.Since(b.began))/1e6)
	if b.rec == nil {
		return
	}
	b.rec.add(span{ID: b.id, Parent: b.parent, Op: b.op, Name: "http." + strings.ToLower(b.method),
		Start: b.start, End: b.start + int64(b.waited)})
	if b.capture != nil {
		b.rec.mu.Lock()
		if len(b.capture) > len(b.rec.body) {
			b.rec.body = b.capture
		}
		b.rec.mu.Unlock()
	}
	if b.endClient != nil {
		b.endClient()
	}
}

// spanRef is the handler span a store call made on behalf of a request
// nests under; it rides the request context, which davserver hands to
// every store method.
type spanRef struct{ id, op int64 }

type spanRefKey struct{}

// spanHandler wraps davserver.NewHandler's handler.
type spanHandler struct {
	next http.Handler
	rec  *recorder
}

func (h spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	hdr := r.Header.Get(spanHeader)
	if hdr == "" || !h.rec.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	ps, os, _ := strings.Cut(hdr, ":")
	parent, _ := strconv.ParseInt(ps, 10, 64)
	op, _ := strconv.ParseInt(os, 10, 64)
	id := h.rec.ids.Add(1)
	start := h.rec.now()
	ctx := context.WithValue(r.Context(), spanRefKey{}, spanRef{id, op})
	h.next.ServeHTTP(w, r.WithContext(ctx))
	h.rec.add(span{ID: id, Parent: parent, Op: op, Name: "davserver." + strings.ToLower(r.Method),
		Start: start, End: h.rec.now()})
}

// spanStore wraps the FSStore the in-process server runs on. It holds
// the concrete type so the optional fast paths — BatchReader,
// TreeCopier, Renamer — are forwarded and the traced server takes the
// same routes production does.
type spanStore struct {
	fs  *store.FSStore
	rec *recorder
}

var (
	_ store.Store       = (*spanStore)(nil)
	_ store.BatchReader = (*spanStore)(nil)
	_ store.TreeCopier  = (*spanStore)(nil)
	_ store.Renamer     = (*spanStore)(nil)
)

func (s *spanStore) span(ctx context.Context, name string) func() {
	ref, ok := ctx.Value(spanRefKey{}).(spanRef)
	if !ok || !s.rec.on.Load() {
		return func() {}
	}
	id, start := s.rec.ids.Add(1), s.rec.now()
	return func() {
		s.rec.add(span{ID: id, Parent: ref.id, Op: ref.op, Name: name, Start: start, End: s.rec.now()})
	}
}

func (s *spanStore) Stat(ctx context.Context, p string) (store.ResourceInfo, error) {
	defer s.span(ctx, "store.stat")()
	return s.fs.Stat(ctx, p)
}

func (s *spanStore) List(ctx context.Context, p string) ([]store.ResourceInfo, error) {
	defer s.span(ctx, "store.list")()
	return s.fs.List(ctx, p)
}

func (s *spanStore) Mkcol(ctx context.Context, p string) error {
	defer s.span(ctx, "store.mkcol")()
	return s.fs.Mkcol(ctx, p)
}

// Put's span includes reading the request body from the network: the
// store pulls the bytes itself while it stages the file.
func (s *spanStore) Put(ctx context.Context, p string, r io.Reader, contentType string) (bool, error) {
	defer s.span(ctx, "store.put")()
	return s.fs.Put(ctx, p, r, contentType)
}

// Get's span covers opening the document; the handler streams the
// returned *os.File afterwards, and that copy is davserver's time.
func (s *spanStore) Get(ctx context.Context, p string) (io.ReadCloser, store.ResourceInfo, error) {
	defer s.span(ctx, "store.get")()
	return s.fs.Get(ctx, p)
}

func (s *spanStore) Delete(ctx context.Context, p string) error {
	defer s.span(ctx, "store.delete")()
	return s.fs.Delete(ctx, p)
}

func (s *spanStore) PropPut(ctx context.Context, p string, name xml.Name, value []byte) error {
	if s.rec.on.Load() {
		s.rec.captureProp(value)
	}
	defer s.span(ctx, "store.prop_put")()
	return s.fs.PropPut(ctx, p, name, value)
}

func (s *spanStore) PropGet(ctx context.Context, p string, name xml.Name) ([]byte, bool, error) {
	defer s.span(ctx, "store.prop_get")()
	return s.fs.PropGet(ctx, p, name)
}

func (s *spanStore) PropDelete(ctx context.Context, p string, name xml.Name) error {
	defer s.span(ctx, "store.prop_delete")()
	return s.fs.PropDelete(ctx, p, name)
}

func (s *spanStore) PropNames(ctx context.Context, p string) ([]xml.Name, error) {
	defer s.span(ctx, "store.prop_names")()
	return s.fs.PropNames(ctx, p)
}

func (s *spanStore) PropAll(ctx context.Context, p string) (map[xml.Name][]byte, error) {
	defer s.span(ctx, "store.prop_all")()
	return s.fs.PropAll(ctx, p)
}

func (s *spanStore) Close() error { return s.fs.Close() }

func (s *spanStore) captureProps(props map[xml.Name][]byte) {
	if s.rec.on.Load() {
		for _, v := range props {
			s.rec.captureProp(v)
		}
	}
}

func (s *spanStore) StatWithProps(ctx context.Context, p string) (store.ResourceInfo, map[xml.Name][]byte, error) {
	end := s.span(ctx, "store.stat_with_props")
	ri, props, err := s.fs.StatWithProps(ctx, p)
	end()
	s.captureProps(props)
	return ri, props, err
}

func (s *spanStore) ListWithProps(ctx context.Context, p string) ([]store.MemberProps, error) {
	end := s.span(ctx, "store.list_with_props")
	members, err := s.fs.ListWithProps(ctx, p)
	end()
	if len(members) > 0 {
		s.captureProps(members[0].Props)
	}
	return members, err
}

func (s *spanStore) CopyTreeAtomic(ctx context.Context, src, dst string, opts store.CopyOptions) error {
	defer s.span(ctx, "store.copy_tree")()
	return s.fs.CopyTreeAtomic(ctx, src, dst, opts)
}

func (s *spanStore) Rename(ctx context.Context, src, dst string) error {
	defer s.span(ctx, "store.rename")()
	return s.fs.Rename(ctx, src, dst)
}

// spanStorage wraps core.DAVStorage. Populate runs with the recorder
// off, so only the methods a measured operation reaches — the six
// core.LoadBundle calls — record spans; the rest pass through the
// embedded interface.
type spanStorage struct {
	core.DataStorage
	tk *track
}

func (s spanStorage) LoadCalculation(p string) (model.Calculation, error) {
	defer s.tk.begin("core.load_calculation")()
	return s.DataStorage.LoadCalculation(p)
}

func (s spanStorage) LoadMolecule(p string) (*chem.Molecule, error) {
	defer s.tk.begin("core.load_molecule")()
	return s.DataStorage.LoadMolecule(p)
}

func (s spanStorage) LoadBasis(p string) (*chem.BasisSet, error) {
	defer s.tk.begin("core.load_basis")()
	return s.DataStorage.LoadBasis(p)
}

func (s spanStorage) LoadTasks(p string) ([]model.Task, error) {
	defer s.tk.begin("core.load_tasks")()
	return s.DataStorage.LoadTasks(p)
}

func (s spanStorage) LoadJob(p string) (model.Job, error) {
	defer s.tk.begin("core.load_job")()
	return s.DataStorage.LoadJob(p)
}

func (s spanStorage) LoadProperties(p string) ([]model.Property, error) {
	defer s.tk.begin("core.load_properties")()
	return s.DataStorage.LoadProperties(p)
}

// spanViewer wraps tools.CalcViewer.Load.
type spanViewer struct {
	v  *tools.CalcViewer
	tk *track
}

func (v spanViewer) Load(calcPath string) (string, error) {
	defer v.tk.begin("tools.calcviewer_load")()
	return v.v.Load(calcPath)
}

// spanDav wraps the davclient calls the workloads make directly.
type spanDav struct {
	c  *davclient.Client
	tk *track
}

func (d spanDav) Mkcol(p string) error {
	defer d.tk.begin("davclient.mkcol")()
	return d.c.Mkcol(p)
}

func (d spanDav) Put(p string, body io.Reader, contentType string) error {
	defer d.tk.begin("davclient.put")()
	_, err := d.c.Put(p, body, contentType)
	return err
}

func (d spanDav) GetTo(p string, w io.Writer) (int64, error) {
	defer d.tk.begin("davclient.get")()
	return d.c.GetTo(p, w)
}

func (d spanDav) Delete(p string) error {
	defer d.tk.begin("davclient.delete")()
	return d.c.Delete(p)
}

func (d spanDav) Copy(src, dst string) error {
	defer d.tk.begin("davclient.copy")()
	return d.c.Copy(src, dst, davproto.DepthInfinity, false)
}

func (d spanDav) SetProps(p string, props ...davproto.Property) error {
	defer d.tk.begin("davclient.proppatch")()
	return d.c.SetProps(p, props...)
}

func (d spanDav) PropFindSelected(p string, depth davproto.Depth, names ...xml.Name) (davproto.Multistatus, error) {
	defer d.tk.begin("davclient.propfind")()
	return d.c.PropFindSelected(p, depth, names...)
}

func (d spanDav) PropFindAll(p string, depth davproto.Depth) (davproto.Multistatus, error) {
	defer d.tk.begin("davclient.propfind")()
	return d.c.PropFindAll(p, depth)
}

// layerTimes is what one set of spans says about where operations'
// time went.
type layerTimes struct {
	Ops       int
	RootMs    float64            // Σ root span durations
	SelfMs    map[string]float64 // layer → Σ self time
	BusyMs    map[string]float64 // layer → Σ span durations
	Calls     map[string]int     // layer → span count
	SelfSumMs float64            // Σ self over every span
}

// selfTimes computes each span's self time — its duration minus its
// children's durations, floored at zero — and sums by layer. Children
// of one client-side span run one after another, so durations subtract
// exactly; a floor is reached only where client and server genuinely
// overlap (the server writes the next chunk while the client checks the
// last), and SelfSumMs/RootMs shows how much of that there was.
func selfTimes(spans []span) layerTimes {
	lt := layerTimes{SelfMs: map[string]float64{}, BusyMs: map[string]float64{}, Calls: map[string]int{}}
	children := map[int64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range spans {
		dur := s.End - s.Start
		self := dur - children[s.ID]
		if self < 0 {
			self = 0
		}
		l := s.layer()
		lt.SelfMs[l] += float64(self) / 1e6
		lt.BusyMs[l] += float64(dur) / 1e6
		lt.Calls[l]++
		lt.SelfSumMs += float64(self) / 1e6
		if s.Parent == 0 {
			lt.Ops++
			lt.RootMs += float64(dur) / 1e6
		}
	}
	return lt
}
