package store

import (
	"bytes"
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"maps"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/store/pathlock"
	"repro/internal/xmldom"
)

// MemStore is an in-memory Store used by tests and micro-benchmarks
// that want to exclude filesystem noise.
//
// Concurrency mirrors FSStore: logical isolation comes from the shared
// hierarchical path-lock manager (readers of one resource proceed
// together, disjoint subtrees never interact, an exclusive collection
// lock covers its subtree), while a short internal mutex only guards
// the physical map structure during each already-locked operation.
// Cancellation is honoured at the lock layer: a caller whose context
// is done before its path lock is granted gets ctx.Err() and never
// touches the map.
type MemStore struct {
	state *memState
}

// memState is the shared backing of a MemStore.
type memState struct {
	locks *pathlock.Manager
	mu    sync.Mutex // guards res and resource contents
	res   map[string]*memResource
	now   func() time.Time
	// version is the last value handed to a body write; every write and
	// every copy takes the next one, so no two bodies a MemStore has
	// held share an ETag, whatever their paths and sizes.
	version int64
}

type memResource struct {
	isCollection bool
	data         []byte
	contentType  string
	props        map[xml.Name][]byte
	modTime      time.Time
	createTime   time.Time
	version      int64 // memState.version at the body's write, feeds the ETag
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty store containing only the root
// collection.
func NewMemStore() *MemStore {
	st := &memState{
		locks: pathlock.NewManager(),
		res:   map[string]*memResource{},
		now:   time.Now,
	}
	st.res["/"] = &memResource{isCollection: true, props: map[xml.Name][]byte{},
		modTime: st.now(), createTime: st.now()}
	return &MemStore{state: st}
}

// nextVersion hands out the version of a body being written. Caller
// holds mu.
func (st *memState) nextVersion() int64 {
	st.version++
	return st.version
}

// LockStats snapshots the hierarchical path-lock counters.
func (s *MemStore) LockStats() pathlock.Stats { return s.state.locks.Stats() }

// Close implements Store.
func (s *MemStore) Close() error { return nil }

// infoFor builds a ResourceInfo snapshot. Caller holds state.mu.
func (s *MemStore) infoFor(p string, r *memResource) ResourceInfo {
	ri := ResourceInfo{
		Path:         p,
		IsCollection: r.isCollection,
		ModTime:      r.modTime,
		CreateTime:   r.createTime,
	}
	if !r.isCollection {
		ri.Size = int64(len(r.data))
		ri.ContentType = r.contentType
		if ri.ContentType == "" {
			ri.ContentType = inferContentType(p)
		}
		ri.ETag = fmt.Sprintf(`"%x-%x"`, len(r.data), r.version)
	}
	return ri
}

// Stat implements Store.
func (s *MemStore) Stat(ctx context.Context, p string) (ResourceInfo, error) {
	cp, err := CleanPath(p)
	if err != nil {
		return ResourceInfo{}, err
	}
	g, err := s.state.locks.RLock(ctx, cp)
	if err != nil {
		return ResourceInfo{}, err
	}
	defer g.Release()
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	r, ok := s.state.res[cp]
	if !ok {
		return ResourceInfo{}, fmt.Errorf("%w: %s", ErrNotFound, cp)
	}
	return s.infoFor(cp, r), nil
}

// list returns the sorted member snapshot of cp, each member's property
// map copied in the same pass. Caller holds the path lock; list takes
// state.mu itself.
func (s *MemStore) list(cp string) ([]MemberProps, error) {
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	r, ok := s.state.res[cp]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, cp)
	}
	if !r.isCollection {
		return nil, fmt.Errorf("%w: %s", ErrNotCollection, cp)
	}
	prefix := cp
	if prefix != "/" {
		prefix += "/"
	}
	var out []MemberProps
	for q, qr := range s.state.res {
		if q == cp || !strings.HasPrefix(q, prefix) {
			continue
		}
		if strings.Contains(q[len(prefix):], "/") {
			continue // grandchild
		}
		props := copyProps(qr.props)
		out = append(out, MemberProps{Info: s.infoFor(q, qr), Props: props, Checked: wellFormed(props)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Info.Path < out[j].Info.Path })
	return out, nil
}

// wellFormed is MemberProps.Checked for a member's properties: MemStore
// keeps no view to remember a verdict in, so it checks them per call.
func wellFormed(props map[xml.Name][]byte) bool {
	for _, v := range props {
		if !xmldom.WellFormedFragment(v) {
			return false
		}
	}
	return true
}

func copyProps(props map[xml.Name][]byte) map[xml.Name][]byte {
	out := make(map[xml.Name][]byte, len(props))
	for n, v := range props {
		out[n] = append([]byte(nil), v...)
	}
	return out
}

// StatWithProps implements BatchReader.
func (s *MemStore) StatWithProps(ctx context.Context, p string) (ResourceInfo, map[xml.Name][]byte, error) {
	cp, err := CleanPath(p)
	if err != nil {
		return ResourceInfo{}, nil, err
	}
	g, err := s.state.locks.RLock(ctx, cp)
	if err != nil {
		return ResourceInfo{}, nil, err
	}
	defer g.Release()
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	r, ok := s.state.res[cp]
	if !ok {
		return ResourceInfo{}, nil, fmt.Errorf("%w: %s", ErrNotFound, cp)
	}
	return s.infoFor(cp, r), copyProps(r.props), nil
}

// ListWithProps implements BatchReader.
func (s *MemStore) ListWithProps(ctx context.Context, p string) ([]MemberProps, error) {
	cp, err := CleanPath(p)
	if err != nil {
		return nil, err
	}
	g, err := s.state.locks.RLock(ctx, cp)
	if err != nil {
		return nil, err
	}
	defer g.Release()
	return s.list(cp)
}

// parentOK reports whether p's parent exists and is a collection.
// Caller holds state.mu.
func (s *MemStore) parentOK(p string) bool {
	parent, ok := s.state.res[ParentPath(p)]
	return ok && parent.isCollection
}

// Mkcol implements Store.
func (s *MemStore) Mkcol(ctx context.Context, p string) error {
	cp, err := CleanPath(p)
	if err != nil {
		return err
	}
	if cp == "/" {
		return fmt.Errorf("%w: /", ErrExists)
	}
	g, err := s.state.locks.Lock(ctx, cp)
	if err != nil {
		return err
	}
	defer g.Release()
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	if _, ok := s.state.res[cp]; ok {
		return fmt.Errorf("%w: %s", ErrExists, cp)
	}
	if !s.parentOK(cp) {
		return fmt.Errorf("%w: %s", ErrConflict, ParentPath(cp))
	}
	now := s.state.now()
	s.state.res[cp] = &memResource{isCollection: true, props: map[xml.Name][]byte{},
		modTime: now, createTime: now}
	return nil
}

// Put implements Store.
func (s *MemStore) Put(ctx context.Context, p string, r io.Reader, contentType string) (bool, error) {
	cp, err := CleanPath(p)
	if err != nil {
		return false, err
	}
	if cp == "/" {
		return false, fmt.Errorf("%w: cannot PUT to /", ErrIsCollection)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return false, err
	}
	g, err := s.state.locks.Lock(ctx, cp)
	if err != nil {
		return false, err
	}
	defer g.Release()
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	existing, ok := s.state.res[cp]
	if ok && existing.isCollection {
		return false, fmt.Errorf("%w: %s", ErrIsCollection, cp)
	}
	if !s.parentOK(cp) {
		return false, fmt.Errorf("%w: %s", ErrConflict, ParentPath(cp))
	}
	now := s.state.now()
	if ok {
		existing.data = data
		existing.modTime = now
		existing.version = s.state.nextVersion()
		if contentType != "" {
			existing.contentType = contentType
		}
		return false, nil
	}
	s.state.res[cp] = &memResource{data: data, contentType: contentType,
		props: map[xml.Name][]byte{}, modTime: now, createTime: now,
		version: s.state.nextVersion()}
	return true, nil
}

// Get implements Store.
func (s *MemStore) Get(ctx context.Context, p string) (io.ReadCloser, ResourceInfo, error) {
	cp, err := CleanPath(p)
	if err != nil {
		return nil, ResourceInfo{}, err
	}
	g, err := s.state.locks.RLock(ctx, cp)
	if err != nil {
		return nil, ResourceInfo{}, err
	}
	defer g.Release()
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	r, ok := s.state.res[cp]
	if !ok {
		return nil, ResourceInfo{}, fmt.Errorf("%w: %s", ErrNotFound, cp)
	}
	if r.isCollection {
		return nil, ResourceInfo{}, fmt.Errorf("%w: %s", ErrIsCollection, cp)
	}
	return io.NopCloser(bytes.NewReader(r.data)), s.infoFor(cp, r), nil
}

// Delete implements Store. The exclusive path lock covers the subtree,
// so the prefix sweep below cannot race any descendant operation.
func (s *MemStore) Delete(ctx context.Context, p string) error {
	cp, err := CleanPath(p)
	if err != nil {
		return err
	}
	if cp == "/" {
		return fmt.Errorf("%w: cannot delete /", ErrBadPath)
	}
	g, err := s.state.locks.Lock(ctx, cp)
	if err != nil {
		return err
	}
	defer g.Release()
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	r, ok := s.state.res[cp]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, cp)
	}
	delete(s.state.res, cp)
	if r.isCollection {
		prefix := cp + "/"
		for q := range s.state.res {
			if strings.HasPrefix(q, prefix) {
				delete(s.state.res, q)
			}
		}
	}
	return nil
}

// CopyTreeAtomic implements TreeCopier: the whole copy runs under one
// multi-path acquisition — Shared on the source subtree, Exclusive on
// the destination — plus the map mutex, so it is a consistent snapshot
// of the source and appears at the destination all at once.
func (s *MemStore) CopyTreeAtomic(ctx context.Context, src, dst string, opts CopyOptions) error {
	csrc, err := CleanPath(src)
	if err != nil {
		return err
	}
	cdst, err := CleanPath(dst)
	if err != nil {
		return err
	}
	if csrc == cdst || IsAncestor(csrc, cdst) {
		return fmt.Errorf("%w: cannot copy %q into itself", ErrBadPath, csrc)
	}
	g, err := s.state.locks.Acquire(ctx,
		pathlock.Req{Path: csrc, Mode: pathlock.Shared},
		pathlock.Req{Path: cdst, Mode: pathlock.Exclusive})
	if err != nil {
		return err
	}
	defer g.Release()
	s.state.mu.Lock()
	defer s.state.mu.Unlock()

	r, ok := s.state.res[csrc]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, csrc)
	}
	if _, ok := s.state.res[cdst]; ok {
		return fmt.Errorf("%w: %s", ErrExists, cdst)
	}
	now := s.state.now()
	if err := s.copyResLocked(r, cdst, now); err != nil {
		return err
	}
	if !r.isCollection || !opts.Recurse {
		return nil
	}
	// Snapshot the member paths before inserting destinations, sorted so
	// parents are created before their children.
	prefix := csrc + "/"
	var members []string
	for q := range s.state.res {
		if strings.HasPrefix(q, prefix) {
			members = append(members, q)
		}
	}
	sort.Strings(members)
	for _, q := range members {
		if err := s.copyResLocked(s.state.res[q], cdst+q[len(csrc):], now); err != nil {
			return err
		}
	}
	return nil
}

// Rename implements Renamer with FSStore.Rename's preconditions: both
// subtrees are locked exclusively and every resource moves as it is, so
// bodies, properties, timestamps and ETags survive.
func (s *MemStore) Rename(ctx context.Context, src, dst string) error {
	csrc, err := CleanPath(src)
	if err != nil {
		return err
	}
	cdst, err := CleanPath(dst)
	if err != nil {
		return err
	}
	if csrc == "/" || cdst == "/" || csrc == cdst ||
		IsAncestor(csrc, cdst) || IsAncestor(cdst, csrc) {
		return fmt.Errorf("%w: rename %q -> %q", ErrBadPath, src, dst)
	}
	g, err := s.state.locks.Acquire(ctx,
		pathlock.Req{Path: csrc, Mode: pathlock.Exclusive},
		pathlock.Req{Path: cdst, Mode: pathlock.Exclusive})
	if err != nil {
		return err
	}
	defer g.Release()
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	r, ok := s.state.res[csrc]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, csrc)
	}
	if _, ok := s.state.res[cdst]; ok {
		return fmt.Errorf("%w: %s", ErrExists, cdst)
	}
	if !s.parentOK(cdst) {
		return fmt.Errorf("%w: %s", ErrConflict, ParentPath(cdst))
	}
	delete(s.state.res, csrc)
	s.state.res[cdst] = r
	if r.isCollection {
		prefix := csrc + "/"
		for q, qr := range s.state.res {
			if strings.HasPrefix(q, prefix) {
				delete(s.state.res, q)
				s.state.res[cdst+q[len(csrc):]] = qr
			}
		}
	}
	return nil
}

// copyResLocked clones one resource to cdst, which does not exist. A
// document shares its body (Put never writes into one) and modTime, as
// FSStore's link does. Caller holds the path locks and state.mu.
func (s *MemStore) copyResLocked(r *memResource, cdst string, now time.Time) error {
	if !s.parentOK(cdst) {
		return fmt.Errorf("%w: %s", ErrConflict, ParentPath(cdst))
	}
	props := copyProps(r.props)
	maps.DeleteFunc(props, func(n xml.Name, _ []byte) bool { return n.Space == VersioningNS })
	if r.isCollection {
		s.state.res[cdst] = &memResource{isCollection: true, props: props,
			modTime: now, createTime: now}
		return nil
	}
	s.state.res[cdst] = &memResource{data: r.data,
		contentType: r.contentType, props: props,
		modTime: r.modTime, createTime: now, version: s.state.nextVersion()}
	return nil
}

// withResource looks up a resource under the appropriate path lock plus
// the map mutex.
func (s *MemStore) withResource(ctx context.Context, p string, write bool, fn func(*memResource) error) error {
	cp, err := CleanPath(p)
	if err != nil {
		return err
	}
	var g *pathlock.Guard
	if write {
		g, err = s.state.locks.Lock(ctx, cp)
	} else {
		g, err = s.state.locks.RLock(ctx, cp)
	}
	if err != nil {
		return err
	}
	defer g.Release()
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	r, ok := s.state.res[cp]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, cp)
	}
	return fn(r)
}

// PropPut implements Store.
func (s *MemStore) PropPut(ctx context.Context, p string, name xml.Name, value []byte) error {
	return s.withResource(ctx, p, true, func(r *memResource) error {
		r.props[name] = append([]byte(nil), value...)
		return nil
	})
}

// PropDelete implements Store.
func (s *MemStore) PropDelete(ctx context.Context, p string, name xml.Name) error {
	return s.withResource(ctx, p, true, func(r *memResource) error {
		delete(r.props, name)
		return nil
	})
}

// Len returns the number of resources (root included), for tests.
func (s *MemStore) Len() int {
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	return len(s.state.res)
}
