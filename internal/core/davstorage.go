package core

import (
	"encoding/xml"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"path"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/chem"
	"repro/internal/davclient"
	"repro/internal/davproto"
	"repro/internal/model"
)

// Well-known member names within a calculation collection (Figure 4:
// "objects recognizable by domain scientists were mapped to separate
// DAV documents").
const (
	memberMolecule   = "molecule"
	memberBasis      = "basis"
	memberTasks      = "tasks"
	memberJob        = "job"
	memberProperties = "properties"
)

// Additional job time properties.
var (
	propJobSubmit = EcceName("jobsubmit")
	propJobStart  = EcceName("jobstart")
	propJobEnd    = EcceName("jobend")
)

// DAVStorage implements DataStorage over a WebDAV repository — the
// Ecce 2.0 architecture. Object paths map 1:1 to resource paths, so
// every object is independently addressable, carries its own metadata,
// and remains visible to non-Ecce DAV clients.
//
// It keeps the document bodies it has read (the client cache the paper
// says "would be relatively straightforward to add"), each under the
// strong ETag it was served with. A kept body answers a read only
// inside an open Prefetch view that lists the document under that same
// ETag, so another client's write is seen by the next listing.
type DAVStorage struct {
	c *davclient.Client

	mu sync.Mutex
	// views are the open Prefetch listings, newest last.
	views []*view
	// finiteUntil is when a server that refused a Depth: infinity
	// PROPFIND may next be asked for one: now plus its Retry-After.
	finiteUntil time.Time
	// bodies are the kept bodies, at most bodyBytes of them.
	bodies *davclient.BodyCache
}

// bodyBytes bounds the bodies a DAVStorage keeps.
const bodyBytes = 64 << 20

var (
	_ DataStorage = (*DAVStorage)(nil)
	_ Annotator   = (*DAVStorage)(nil)
	_ Finder      = (*DAVStorage)(nil)
)

// NewDAVStorage wraps a DAV client whose base URL is the repository
// root.
func NewDAVStorage(c *davclient.Client) *DAVStorage {
	return &DAVStorage{c: c, bodies: davclient.NewBodyCache(bodyBytes)}
}

// Client exposes the underlying DAV client (benchmarks, tooling).
func (s *DAVStorage) Client() *davclient.Client { return s.c }

// Close implements DataStorage.
func (s *DAVStorage) Close() error {
	s.c.Close()
	return nil
}

// mapErr converts transport errors to core errors.
func mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case davclient.IsStatus(err, http.StatusNotFound):
		return fmt.Errorf("%w: %v", ErrNotFound, err)
	case davclient.IsStatus(err, http.StatusMethodNotAllowed),
		davclient.IsStatus(err, http.StatusPreconditionFailed):
		return fmt.Errorf("%w: %v", ErrExists, err)
	default:
		return err
	}
}

// textProp builds an ecce text property.
func textProp(name xml.Name, value string) davproto.Property {
	return davproto.NewTextProperty(name.Space, name.Local, value)
}

// CreateProject implements DataStorage.
func (s *DAVStorage) CreateProject(p string, proj model.Project) error {
	defer s.wrote(p)
	if err := mapErr(s.c.Mkcol(p)); err != nil {
		return err
	}
	created := proj.Created
	if created.IsZero() {
		created = time.Now()
	}
	return mapErr(s.c.SetProps(p,
		textProp(PropObjectType, string(TypeProject)),
		textProp(PropDescription, proj.Description),
		textProp(EcceName("name"), proj.Name),
		textProp(PropCreatedAt, created.UTC().Format(time.RFC3339Nano)),
	))
}

// LoadProject implements DataStorage.
func (s *DAVStorage) LoadProject(p string) (model.Project, error) {
	props, err := s.propsOf(p, PropObjectType, PropDescription, EcceName("name"), PropCreatedAt)
	if err != nil {
		return model.Project{}, err
	}
	if props[PropObjectType] != string(TypeProject) {
		return model.Project{}, fmt.Errorf("%w: %s is not a project", ErrNotFound, p)
	}
	proj := model.Project{Name: props[EcceName("name")], Description: props[PropDescription]}
	if t, err := time.Parse(time.RFC3339Nano, props[PropCreatedAt]); err == nil {
		proj.Created = t
	}
	return proj, nil
}

// resource is one resource of a PROPFIND answer: its path, its ETag
// when the answer lists one, and the text of each selected property it
// has.
type resource struct {
	path, etag string
	props      map[xml.Name]string
}

// read fetches the named properties of p and, at depth 0 or 1, of its
// members, p first: from an open Prefetch view that holds them, else
// with a PROPFIND.
func (s *DAVStorage) read(p string, depth davproto.Depth, names ...xml.Name) ([]resource, error) {
	if v := s.viewOver(p, names...); v != nil {
		return v.read(cleanPath(p), depth)
	}
	return s.fetch(p, depth, names...)
}

// fetch PROPFINDs the named properties of p and, at depth, of what lies
// under it, in the server's order: p first, then pre-order.
func (s *DAVStorage) fetch(p string, depth davproto.Depth, names ...xml.Name) ([]resource, error) {
	ms, err := s.c.PropFindSelected(p, depth, names...)
	if err != nil {
		return nil, mapErr(err)
	}
	out := make([]resource, len(ms.Responses))
	for i, r := range ms.Responses {
		props := map[xml.Name]string{}
		for _, ps := range r.Propstats {
			if ps.Status != http.StatusOK {
				continue
			}
			for _, prop := range ps.Props {
				props[prop.Name()] = prop.Text()
			}
		}
		out[i] = resource{path: s.pathOf(r), etag: props[davproto.PropGetETag], props: props}
	}
	return out, nil
}

// pathOf is the storage path a 207 response names: its href without
// the base URL's path, decoded.
func (s *DAVStorage) pathOf(r davproto.Response) string {
	return s.c.PathOf(strings.TrimSuffix(r.Href, "/"))
}

// propsOf fetches selected properties of one resource as text.
func (s *DAVStorage) propsOf(p string, names ...xml.Name) (map[xml.Name]string, error) {
	rs, err := s.read(p, davproto.Depth0, names...)
	if err != nil {
		return nil, err
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	return rs[0].props, nil
}

// List implements DataStorage.
func (s *DAVStorage) List(p string) ([]Entry, error) {
	ms, err := s.c.PropFindSelected(p, davproto.Depth1, PropObjectType, davproto.PropResourceType)
	if err != nil {
		return nil, mapErr(err)
	}
	base := strings.TrimSuffix(p, "/")
	var entries []Entry
	for _, r := range ms.Responses {
		href := s.pathOf(r)
		if href == base || href == "/" {
			continue // the container itself
		}
		props := davproto.PropsByName(r.Propstats)
		typ := TypeDocument
		if ot, ok := props[PropObjectType]; ok && ot.Text() != "" {
			typ = ObjectType(ot.Text())
		}
		entries = append(entries, Entry{Name: path.Base(href), Path: href, Type: typ})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Path < entries[j].Path })
	return entries, nil
}

// CreateCalculation implements DataStorage.
func (s *DAVStorage) CreateCalculation(p string, c model.Calculation) error {
	defer s.wrote(p)
	if err := mapErr(s.c.Mkcol(p)); err != nil {
		return err
	}
	return s.SaveCalculation(p, c)
}

// SaveCalculation implements DataStorage.
func (s *DAVStorage) SaveCalculation(p string, c model.Calculation) error {
	defer s.wrote(p)
	created := c.Created
	if created.IsZero() {
		created = time.Now()
	}
	return mapErr(s.c.SetProps(p,
		textProp(PropObjectType, string(TypeCalculation)),
		textProp(EcceName("name"), c.Name),
		textProp(PropState, c.State.String()),
		textProp(PropTheory, c.Theory),
		textProp(PropAnnotation, c.Annotation),
		textProp(PropCreatedAt, created.UTC().Format(time.RFC3339Nano)),
	))
}

// The properties each reader selects, and their union, which a
// Prefetch selects.
var (
	calculationNames = []xml.Name{PropObjectType, EcceName("name"), PropState,
		PropTheory, PropAnnotation, PropCreatedAt}
	moleculeNames = []xml.Name{PropFormat, PropSymmetry, PropCharge, EcceName("name")}
	taskNames     = []xml.Name{PropObjectType, EcceName("name"), PropTaskKind, PropSequence}
	jobNames      = []xml.Name{PropObjectType, PropJobHost, PropJobQueue,
		PropJobBatchID, PropJobNodes, PropJobStatus, propJobSubmit, propJobStart, propJobEnd}
	propertyNames = []xml.Name{PropObjectType}
	// A Prefetch also selects each document's ETag, which a kept body
	// must match to answer a read.
	bundleNames = union(calculationNames, moleculeNames, taskNames, jobNames, propertyNames,
		[]xml.Name{davproto.PropGetETag})
)

// union is the names in sets, each once, in order of first appearance.
func union(sets ...[]xml.Name) []xml.Name {
	var out []xml.Name
	for _, set := range sets {
		for _, name := range set {
			if !slices.Contains(out, name) {
				out = append(out, name)
			}
		}
	}
	return out
}

// LoadCalculation implements DataStorage.
func (s *DAVStorage) LoadCalculation(p string) (model.Calculation, error) {
	props, err := s.propsOf(p, calculationNames...)
	if err != nil {
		return model.Calculation{}, err
	}
	if props[PropObjectType] != string(TypeCalculation) {
		return model.Calculation{}, fmt.Errorf("%w: %s is not a calculation", ErrNotFound, p)
	}
	c := model.Calculation{
		Name:       props[EcceName("name")],
		Theory:     props[PropTheory],
		Annotation: props[PropAnnotation],
	}
	if st, err := model.ParseState(props[PropState]); err == nil {
		c.State = st
	}
	if t, err := time.Parse(time.RFC3339Nano, props[PropCreatedAt]); err == nil {
		c.Created = t
	}
	return c, nil
}

// SaveMolecule implements DataStorage: the molecule document holds the
// open-format geometry while formula/symmetry/charge/format become
// metadata so other applications can discover it "without
// understanding the rest of the Ecce schema".
func (s *DAVStorage) SaveMolecule(calcPath string, mol *chem.Molecule, format string) error {
	body, err := chem.Encode(mol, format)
	if err != nil {
		return err
	}
	docPath := path.Join(calcPath, memberMolecule)
	defer s.wrote(docPath)
	ctype := "chemical/x-xyz"
	if format == chem.FormatPDB {
		ctype = "chemical/x-pdb"
	}
	if _, err := s.c.PutBytes(docPath, body, ctype); err != nil {
		return mapErr(err)
	}
	return mapErr(s.c.SetProps(docPath,
		textProp(PropObjectType, string(TypeMolecule)),
		textProp(PropFormat, format),
		textProp(PropFormula, mol.Formula()),
		textProp(PropSymmetry, mol.Symmetry),
		textProp(PropCharge, strconv.Itoa(mol.Charge)),
		textProp(EcceName("name"), mol.Name),
	))
}

// LoadMolecule implements DataStorage.
func (s *DAVStorage) LoadMolecule(calcPath string) (*chem.Molecule, error) {
	docPath := path.Join(calcPath, memberMolecule)
	props, err := s.propsOf(docPath, moleculeNames...)
	if err != nil {
		return nil, err
	}
	body, err := s.get(docPath)
	if err != nil {
		return nil, err
	}
	format := props[PropFormat]
	if format == "" {
		format = chem.FormatXYZ
	}
	mol, err := chem.Decode(body, format)
	if err != nil {
		return nil, err
	}
	// Metadata is authoritative for the attributes it carries.
	if props[EcceName("name")] != "" {
		mol.Name = props[EcceName("name")]
	}
	mol.Symmetry = props[PropSymmetry]
	if c, err := strconv.Atoi(props[PropCharge]); err == nil {
		mol.Charge = c
	}
	return mol, nil
}

// SaveBasis implements DataStorage.
func (s *DAVStorage) SaveBasis(calcPath string, bs *chem.BasisSet) error {
	docPath := path.Join(calcPath, memberBasis)
	defer s.wrote(docPath)
	if _, err := s.c.PutBytes(docPath, bs.Encode(), "text/plain"); err != nil {
		return mapErr(err)
	}
	return mapErr(s.c.SetProps(docPath,
		textProp(PropObjectType, string(TypeBasisSet)),
		textProp(PropBasisName, bs.Name),
	))
}

// LoadBasis implements DataStorage.
func (s *DAVStorage) LoadBasis(calcPath string) (*chem.BasisSet, error) {
	docPath := path.Join(calcPath, memberBasis)
	if v := s.viewOver(docPath); v != nil {
		if _, err := v.read(cleanPath(docPath), davproto.Depth0); err != nil {
			return nil, err // no GET for a document the listing lacks
		}
	}
	body, err := s.get(docPath)
	if err != nil {
		return nil, err
	}
	return chem.ParseBasisBytes(body)
}

// taskDocName renders the sequence-ordered document name for a task.
func taskDocName(t model.Task) string {
	name := slugify(t.Name)
	if name == "" {
		name = string(t.Kind)
	}
	return fmt.Sprintf("%02d-%s", t.Sequence, name)
}

// SaveTask implements DataStorage. Tasks live in a tasks collection;
// the paper locates the task list "through the collection mechanism".
func (s *DAVStorage) SaveTask(calcPath string, t model.Task) error {
	tasksPath := path.Join(calcPath, memberTasks)
	defer s.wrote(tasksPath)
	if err := s.c.Mkcol(tasksPath); err != nil && !davclient.IsStatus(err, http.StatusMethodNotAllowed) {
		return mapErr(err)
	}
	docPath := path.Join(tasksPath, taskDocName(t))
	if _, err := s.c.PutBytes(docPath, []byte(t.InputDeck), "text/plain"); err != nil {
		return mapErr(err)
	}
	return mapErr(s.c.SetProps(docPath,
		textProp(PropObjectType, string(TypeTask)),
		textProp(EcceName("name"), t.Name),
		textProp(PropTaskKind, string(t.Kind)),
		textProp(PropSequence, strconv.Itoa(t.Sequence)),
	))
}

// LoadTasks implements DataStorage, returning tasks ordered by
// sequence.
func (s *DAVStorage) LoadTasks(calcPath string) ([]model.Task, error) {
	listing, err := s.read(path.Join(calcPath, memberTasks), davproto.Depth1, taskNames...)
	if errors.Is(err, ErrNotFound) {
		return nil, nil // no tasks yet
	}
	if err != nil {
		return nil, err
	}
	var tasks []model.Task
	for _, r := range listing {
		if r.props[PropObjectType] != string(TypeTask) {
			continue
		}
		t := model.Task{
			Name: r.props[EcceName("name")],
			Kind: model.TaskKind(r.props[PropTaskKind]),
		}
		if seq, err := strconv.Atoi(r.props[PropSequence]); err == nil {
			t.Sequence = seq
		}
		deck, err := s.get(r.path)
		if err != nil {
			return nil, err
		}
		t.InputDeck = string(deck)
		tasks = append(tasks, t)
	}
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].Sequence < tasks[j].Sequence })
	return tasks, nil
}

// SaveJob implements DataStorage: the job is a pure-metadata document.
func (s *DAVStorage) SaveJob(calcPath string, j model.Job) error {
	docPath := path.Join(calcPath, memberJob)
	defer s.wrote(docPath)
	if _, err := s.c.PutBytes(docPath, nil, "text/plain"); err != nil {
		return mapErr(err)
	}
	fmtTime := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	return mapErr(s.c.SetProps(docPath,
		textProp(PropObjectType, string(TypeJob)),
		textProp(PropJobHost, j.Host),
		textProp(PropJobQueue, j.Queue),
		textProp(PropJobBatchID, j.BatchID),
		textProp(PropJobNodes, strconv.Itoa(j.NodeCount)),
		textProp(PropJobStatus, string(j.Status)),
		textProp(propJobSubmit, fmtTime(j.SubmitTime)),
		textProp(propJobStart, fmtTime(j.StartTime)),
		textProp(propJobEnd, fmtTime(j.EndTime)),
	))
}

// LoadJob implements DataStorage.
func (s *DAVStorage) LoadJob(calcPath string) (model.Job, error) {
	docPath := path.Join(calcPath, memberJob)
	props, err := s.propsOf(docPath, jobNames...)
	if err != nil {
		return model.Job{}, err
	}
	if props[PropObjectType] != string(TypeJob) {
		return model.Job{}, fmt.Errorf("%w: %s is not a job", ErrNotFound, docPath)
	}
	j := model.Job{
		Host:    props[PropJobHost],
		Queue:   props[PropJobQueue],
		BatchID: props[PropJobBatchID],
		Status:  model.JobStatus(props[PropJobStatus]),
	}
	if n, err := strconv.Atoi(props[PropJobNodes]); err == nil {
		j.NodeCount = n
	}
	parse := func(s string) time.Time {
		t, _ := time.Parse(time.RFC3339Nano, s)
		return t
	}
	j.SubmitTime = parse(props[propJobSubmit])
	j.StartTime = parse(props[propJobStart])
	j.EndTime = parse(props[propJobEnd])
	return j, nil
}

// slugify renders a path-safe lowercase token.
func slugify(s string) string {
	var sb strings.Builder
	lastDash := true
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			sb.WriteRune(r)
			lastDash = false
		default:
			if !lastDash {
				sb.WriteByte('-')
				lastDash = true
			}
		}
	}
	return strings.TrimRight(sb.String(), "-")
}

// propDocName derives a stable, collision-resistant document name for
// an output property.
func propDocName(name string) string {
	h := fnv.New32a()
	h.Write([]byte(name))
	slug := slugify(name)
	if slug == "" {
		slug = "prop"
	}
	return fmt.Sprintf("%s-%08x", slug, h.Sum32())
}

// SaveProperty implements DataStorage: one document per property with
// discoverable metadata.
func (s *DAVStorage) SaveProperty(calcPath string, p model.Property) error {
	propsPath := path.Join(calcPath, memberProperties)
	defer s.wrote(propsPath)
	if err := s.c.Mkcol(propsPath); err != nil && !davclient.IsStatus(err, http.StatusMethodNotAllowed) {
		return mapErr(err)
	}
	body, err := EncodeProperty(&p)
	if err != nil {
		return err
	}
	docPath := path.Join(propsPath, propDocName(p.Name))
	if _, err := s.c.PutBytes(docPath, body, "application/octet-stream"); err != nil {
		return mapErr(err)
	}
	dims := make([]string, len(p.Dims))
	for i, d := range p.Dims {
		dims[i] = strconv.Itoa(d)
	}
	return mapErr(s.c.SetProps(docPath,
		textProp(PropObjectType, string(TypeProperty)),
		textProp(PropPropName, p.Name),
		textProp(PropUnits, p.Units),
		textProp(PropDims, strings.Join(dims, " ")),
	))
}

// LoadProperty implements DataStorage.
func (s *DAVStorage) LoadProperty(calcPath, name string) (model.Property, error) {
	docPath := path.Join(calcPath, memberProperties, propDocName(name))
	body, err := s.get(docPath)
	if err != nil {
		return model.Property{}, err
	}
	return DecodeProperty(body)
}

// LoadProperties implements DataStorage.
func (s *DAVStorage) LoadProperties(calcPath string) ([]model.Property, error) {
	listing, err := s.read(path.Join(calcPath, memberProperties), davproto.Depth1, propertyNames...)
	if errors.Is(err, ErrNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []model.Property
	for _, r := range listing {
		if r.props[PropObjectType] != string(TypeProperty) {
			continue
		}
		body, err := s.get(r.path)
		if err != nil {
			return nil, err
		}
		p, err := DecodeProperty(body)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Prefetch implements DataStorage with one PROPFIND Depth: infinity
// of p selecting every name the per-object readers select: what exists
// under p and all its metadata. The readers then send only the GETs of
// the documents they return that s does not keep under the ETag the
// listing names: no PROPFIND, and no probe of a part that is absent. A
// server that refuses the unbounded PROPFIND (RFC 4918
// §9.1: davd while browned out, Apache mod_dav by default) is read
// object by object, and is not asked again until its Retry-After has
// passed. The view is shared by every goroutine using s, and each write
// method closes the views its path touches (wrote).
func (s *DAVStorage) Prefetch(p string) (func(), error) {
	s.mu.Lock()
	refused := time.Now().Before(s.finiteUntil)
	s.mu.Unlock()
	if refused {
		return func() {}, nil
	}
	listing, err := s.fetch(p, davproto.DepthInfinity, bundleNames...)
	if se := refusedDepth(err); se != nil {
		s.mu.Lock()
		s.finiteUntil = time.Now().Add(se.RetryAfter)
		s.mu.Unlock()
		return func() {}, nil
	}
	if err != nil {
		return nil, err
	}
	root := cleanPath(p)
	if len(listing) == 0 || listing[0].path != root {
		// An answer whose hrefs this client cannot place: let the
		// readers ask for each object by its own path.
		return func() {}, nil
	}
	v := &view{root: root, listing: listing}
	s.mu.Lock()
	s.views = append(s.views, v)
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.views = slices.DeleteFunc(s.views, func(o *view) bool { return o == v })
		s.mu.Unlock()
	}, nil
}

// view is a Prefetch listing: bundleNames of root and of everything
// under it, root first.
type view struct {
	root    string
	listing []resource
}

// viewOver returns the newest open view that holds names for p, or nil.
func (s *DAVStorage) viewOver(p string, names ...xml.Name) *view {
	for _, name := range names {
		if !slices.Contains(bundleNames, name) {
			return nil
		}
	}
	p = cleanPath(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.newestOver(p)
}

// newestOver returns the newest open view whose root is the clean path
// p or lies above it, or nil; s.mu is held.
func (s *DAVStorage) newestOver(p string) *view {
	for i := len(s.views) - 1; i >= 0; i-- {
		if v := s.views[i]; within(p, v.root) {
			return v
		}
	}
	return nil
}

// wrote closes the open views a write to p may have made stale: those
// whose root is p, lies under p, or lies above it; and it drops the
// bodies kept for p and under it. Every write method defers it, so the
// view is gone once the write has returned.
func (s *DAVStorage) wrote(p string) {
	p = cleanPath(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.views = slices.DeleteFunc(s.views, func(v *view) bool { return within(p, v.root) || within(v.root, p) })
	s.bodies.Drop(p)
}

// get reads the body of document p. A body s keeps under the ETag that
// the newest open view over p lists for it answers without a request;
// else one GET does, and its body is kept when it came with a strong
// ETag. The body returned may be the one kept: callers must not
// modify it.
func (s *DAVStorage) get(p string) ([]byte, error) {
	p = cleanPath(p)
	s.mu.Lock()
	if v := s.newestOver(p); v != nil {
		if data, ok := s.bodies.Get(p, v.etag(p)); ok {
			s.mu.Unlock()
			return data, nil
		}
	}
	s.mu.Unlock()
	data, etag, err := s.c.GetETag(p)
	if err != nil {
		return nil, mapErr(err)
	}
	s.keep(p, etag, data)
	return data, nil
}

// keep keeps data as the body of p served under etag (BodyCache.Put).
func (s *DAVStorage) keep(p, etag string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bodies.Put(p, etag, data)
}

// within reports whether the clean path p is root or lies under it.
func within(p, root string) bool {
	return p == root || strings.HasPrefix(p, strings.TrimSuffix(root, "/")+"/")
}

// etag is the ETag the listing names for p, "" if it names none.
func (v *view) etag(p string) string {
	for _, r := range v.listing {
		if r.path == p {
			return r.etag
		}
	}
	return ""
}

// read answers as DAVStorage.read would from the server: p, then at
// Depth 1 its members; a p the listing lacks is not found.
func (v *view) read(p string, depth davproto.Depth) ([]resource, error) {
	var out []resource
	for _, r := range v.listing { // pre-order: p before its members
		if r.path == p || depth == davproto.Depth1 && path.Dir(r.path) == p {
			out = append(out, r)
		}
	}
	if len(out) == 0 || out[0].path != p {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	return out, nil
}

// cleanPath is p as a resource path in a 207 names it.
func cleanPath(p string) string { return path.Clean("/" + p) }

// refusedDepth returns err if it is the RFC 4918 §9.1 refusal of a
// Depth: infinity PROPFIND or SEARCH, else nil.
func refusedDepth(err error) *davclient.StatusError {
	var se *davclient.StatusError
	if errors.As(err, &se) && se.Code == http.StatusForbidden &&
		strings.Contains(se.Body, "propfind-finite-depth") {
		return se
	}
	return nil
}

// walk reads root and everything under it with one Depth: 1 PROPFIND
// per collection, selecting names: how a tree is read from a server
// that refuses Depth: infinity. It returns each resource's response
// once, and the paths of the collections it listed, root first.
func (s *DAVStorage) walk(root string, names ...xml.Name) ([]davproto.Response, []string, error) {
	names = append(slices.Clip(names), davproto.PropResourceType)
	var out []davproto.Response
	dirs := []string{cleanPath(root)}
	for i := 0; i < len(dirs); i++ {
		ms, err := s.c.PropFindSelected(dirs[i], davproto.Depth1, names...)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range ms.Responses {
			p := s.pathOf(r)
			if p == dirs[i] {
				if i == 0 {
					out = append(out, r)
				}
				continue // listed already as a member of its parent
			}
			out = append(out, r)
			rt, ok := davproto.PropsByName(r.Propstats)[davproto.PropResourceType]
			if ok && rt.Node().Find(davproto.NS, "collection") != nil {
				dirs = append(dirs, p)
			}
		}
	}
	return out, dirs, nil
}

// SaveRawFile implements DataStorage.
func (s *DAVStorage) SaveRawFile(calcPath, name string, data []byte, contentType string) error {
	docPath := path.Join(calcPath, name)
	defer s.wrote(docPath)
	if _, err := s.c.PutBytes(docPath, data, contentType); err != nil {
		return mapErr(err)
	}
	return mapErr(s.c.SetProps(docPath, textProp(PropObjectType, string(TypeDocument))))
}

// LoadRawFile implements DataStorage. The caller owns the body it
// returns: a copy of a kept one.
func (s *DAVStorage) LoadRawFile(calcPath, name string) ([]byte, error) {
	body, err := s.get(path.Join(calcPath, name))
	if err != nil {
		return nil, err
	}
	return slices.Clone(body), nil
}

// Copy implements DataStorage via server-side COPY (Table 1's "copy
// hierarchy" runs entirely on the server).
func (s *DAVStorage) Copy(src, dst string) error {
	defer s.wrote(dst)
	return mapErr(s.c.Copy(src, dst, davproto.DepthInfinity, false))
}

// Delete implements DataStorage.
func (s *DAVStorage) Delete(p string) error {
	defer s.wrote(p)
	return mapErr(s.c.Delete(p))
}

// Annotate implements Annotator: any application can attach new
// metadata without Ecce's involvement.
func (s *DAVStorage) Annotate(p string, name xml.Name, value string) error {
	defer s.wrote(p)
	return mapErr(s.c.SetProps(p, davproto.NewTextProperty(name.Space, name.Local, value)))
}

// ReadAnnotation implements Annotator.
func (s *DAVStorage) ReadAnnotation(p string, name xml.Name) (string, bool, error) {
	prop, ok, err := s.c.GetProp(p, name)
	if err != nil {
		return "", false, mapErr(err)
	}
	if !ok {
		return "", false, nil
	}
	return prop.Text(), true, nil
}

// FindByMetadata implements Finder. It prefers a server-side DASL
// SEARCH (the paper's anticipated optimization, which returns only
// resources carrying the property) and falls back to a depth-infinity
// PROPFIND walk against servers without SEARCH support. A server that
// refuses Depth: infinity (davd while browned out) is walked one
// collection at a time.
func (s *DAVStorage) FindByMetadata(root string, name xml.Name, pred func(string) bool) ([]string, error) {
	ms, err := s.c.Search(davproto.BasicSearch{
		Select: []xml.Name{name},
		Scope:  root,
		Depth:  davproto.DepthInfinity,
		Where:  davproto.IsDefinedExpr{Prop: name},
	})
	if davclient.IsStatus(err, http.StatusMethodNotAllowed) ||
		davclient.IsStatus(err, http.StatusNotImplemented) ||
		davclient.IsStatus(err, http.StatusBadRequest) {
		// No SEARCH support: walk with PROPFIND instead.
		ms, err = s.c.PropFindSelected(root, davproto.DepthInfinity, name)
	}
	if refusedDepth(err) != nil {
		ms.Responses, _, err = s.walk(root, name)
	}
	if err != nil {
		return nil, mapErr(err)
	}
	return s.filterHits(ms, name, pred), nil
}

// FindWhere runs an arbitrary DASL expression server-side, returning
// matching paths (no PROPFIND fallback: rich expressions cannot be
// evaluated client-side without fetching everything). A server that
// refuses a Depth: infinity SEARCH is searched one collection at a
// time, Depth: 1 each.
func (s *DAVStorage) FindWhere(root string, where davproto.SearchExpr, selectName xml.Name) ([]string, error) {
	bs := davproto.BasicSearch{
		Select: []xml.Name{selectName},
		Scope:  root,
		Depth:  davproto.DepthInfinity,
		Where:  where,
	}
	ms, err := s.c.Search(bs)
	if refusedDepth(err) != nil {
		ms.Responses, err = s.searchEach(root, bs)
	}
	if err != nil {
		return nil, mapErr(err)
	}
	var hits []string
	for _, r := range ms.Responses {
		hits = append(hits, s.pathOf(r))
	}
	sort.Strings(hits)
	return slices.Compact(hits), nil
}

// searchEach runs bs at Depth: 1 in root and in each collection under
// it. A collection answers in its own scope and in its parent's.
func (s *DAVStorage) searchEach(root string, bs davproto.BasicSearch) ([]davproto.Response, error) {
	_, dirs, err := s.walk(root)
	if err != nil {
		return nil, err
	}
	var out []davproto.Response
	bs.Depth = davproto.Depth1
	for _, bs.Scope = range dirs {
		ms, err := s.c.Search(bs)
		if err != nil {
			return nil, err
		}
		out = append(out, ms.Responses...)
	}
	return out, nil
}

// filterHits is the paths of the responses whose property satisfies
// pred.
func (s *DAVStorage) filterHits(ms davproto.Multistatus, name xml.Name, pred func(string) bool) []string {
	var hits []string
	for _, r := range ms.Responses {
		props := davproto.PropsByName(r.Propstats)
		prop, ok := props[name]
		if !ok {
			continue
		}
		if pred == nil || pred(prop.Text()) {
			hits = append(hits, s.pathOf(r))
		}
	}
	sort.Strings(hits)
	return hits
}
