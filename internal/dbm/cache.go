package dbm

import (
	"container/list"
	"context"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs/trace"
)

// This file is the shared handle cache: a bounded, refcounted LRU of
// open DB handles keyed by file path, with single-flight opens. It
// replaces the open-read-close-per-operation pattern mod_dav used
// (and this repo reproduced through PR 3): a Depth:1 PROPFIND over N
// members used to pay N full open cycles; through the cache, a hot
// property database is opened once and then shared by every request
// that touches it until eviction or invalidation.
//
// Lifecycle rules:
//
//   - Acquire returns a Handle pinning the entry; the DB is never
//     closed while pinned. Handles are cheap and per-request.
//   - Eviction (LRU, beyond the capacity) and Invalidate close the DB
//     once the last pin is released.
//   - Invalidate must be called when the backing file is deleted or
//     renamed (the store's Delete and Rename paths do this). Compact
//     needs no invalidation: DB.Compact swaps the file under the same
//     *DB, so cached handles stay valid.

// CacheStats is a point-in-time snapshot of a cache's counters.
type CacheStats struct {
	Hits          int64 // Acquire calls served by an open handle
	Misses        int64 // Acquire calls that had to open the database
	Evictions     int64 // entries closed by LRU pressure
	Invalidations int64 // entries closed by Invalidate/InvalidatePrefix
	Open          int   // entries currently in the cache
	Pinned        int   // entries with at least one outstanding Handle
}

// Cache is a bounded, refcounted LRU of open databases. Safe for
// concurrent use.
type Cache struct {
	capacity int
	flavour  Flavour

	mu      sync.Mutex
	entries map[string]*cacheEntry
	idle    *list.List // refs==0 entries, most recently used at front

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
}

type cacheEntry struct {
	path  string
	db    *DB
	err   error
	ready chan struct{} // closed once the single-flight open finishes
	refs  int
	// doomed entries have been evicted or invalidated while pinned;
	// the last release closes them.
	doomed bool
	elem   *list.Element // position in idle, nil while pinned
}

// NewCache returns a cache of open databases of one flavour, holding at
// most capacity (at least 1) handles open.
func NewCache(capacity int, flavour Flavour) *Cache {
	return &Cache{
		capacity: capacity,
		flavour:  flavour,
		entries:  map[string]*cacheEntry{},
		idle:     list.New(),
	}
}

// Capacity returns the configured capacity.
func (c *Cache) Capacity() int { return c.capacity }

// Handle is a pinned reference to an open database. Operations on the
// handle are attributed to the Acquire context's trace (the "dbm.*"
// spans). Close releases the pin; it must be called exactly once.
type Handle struct {
	db    *DB
	ctx   context.Context
	cache *Cache
	entry *cacheEntry
}

// Acquire returns a pinned handle on the database at path, opening it
// if no cached handle exists. Concurrent Acquires of one path share a
// single open (single-flight); all callers see the same result. The
// open, when it happens, is recorded as a "dbm.open" span on ctx.
func (c *Cache) Acquire(ctx context.Context, path string) (*Handle, error) {
	c.mu.Lock()
	if e, ok := c.entries[path]; ok {
		e.pinLocked(c)
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			// The single-flight open failed; unpin and report it.
			c.release(e)
			return nil, e.err
		}
		c.hits.Add(1)
		return &Handle{db: e.db, ctx: ctx, cache: c, entry: e}, nil
	}

	// Miss: insert the placeholder, then open outside the lock so a
	// slow open never blocks hits on other paths.
	e := &cacheEntry{path: path, ready: make(chan struct{}), refs: 1}
	c.entries[path] = e
	c.mu.Unlock()

	c.misses.Add(1)
	_, end := trace.Region(ctx, "dbm.open",
		trace.Str("file", filepath.Base(path)), trace.Str("flavour", c.flavour.String()))
	db, err := Open(path, c.flavour)
	end(err)

	c.mu.Lock()
	e.db, e.err = db, err
	close(e.ready)
	if err != nil {
		// Failed entries are not cached; remove so the next Acquire
		// retries the open. Waiters pinned before removal observe err
		// via ready and unpin through release.
		if c.entries[path] == e {
			delete(c.entries, path)
		}
		e.doomed = true
		e.refs--
		c.mu.Unlock()
		return nil, err
	}
	toClose := c.trimLocked()
	c.mu.Unlock()
	for _, evicted := range toClose {
		evicted.Close()
	}
	return &Handle{db: db, ctx: ctx, cache: c, entry: e}, nil
}

// pinLocked takes a reference, removing the entry from the idle list if
// this is the first pin. Caller holds c.mu.
func (e *cacheEntry) pinLocked(c *Cache) {
	e.refs++
	if e.elem != nil {
		c.idle.Remove(e.elem)
		e.elem = nil
	}
}

// release drops one reference and disposes of the entry if it became
// doomed while pinned.
func (c *Cache) release(e *cacheEntry) {
	c.mu.Lock()
	var toClose []*DB
	e.refs--
	if e.refs == 0 {
		if e.doomed {
			toClose = append(toClose, e.db)
		} else {
			e.elem = c.idle.PushFront(e)
			toClose = c.trimLocked()
		}
	}
	c.mu.Unlock()
	for _, db := range toClose {
		db.Close()
	}
}

// trimLocked unlinks idle entries beyond the capacity, oldest first,
// and returns their databases for the caller to close after dropping
// c.mu — a slow Close must never stall unrelated Acquires. Pinned
// entries are not evictable, so the cache may transiently exceed its
// capacity under heavy pinning. Caller holds c.mu.
func (c *Cache) trimLocked() []*DB {
	var toClose []*DB
	for len(c.entries) > c.capacity {
		back := c.idle.Back()
		if back == nil {
			break // everything over capacity is pinned
		}
		e := back.Value.(*cacheEntry)
		c.idle.Remove(back)
		e.elem = nil
		delete(c.entries, e.path)
		c.evictions.Add(1)
		// refs==0 (it was idle): safe to close once the lock is gone.
		toClose = append(toClose, e.db)
	}
	return toClose
}

// Invalidate removes the entry for path, closing the database once (and
// if) its last pin is released. Call it after deleting or renaming the
// backing file. Invalidating an uncached path is a no-op.
func (c *Cache) Invalidate(path string) {
	c.mu.Lock()
	e, ok := c.entries[path]
	var toClose *DB
	if ok {
		delete(c.entries, path)
		c.invalidations.Add(1)
		e.doomed = true
		if e.elem != nil {
			c.idle.Remove(e.elem)
			e.elem = nil
		}
		if e.refs == 0 {
			toClose = e.db
		}
	}
	c.mu.Unlock()
	if toClose != nil {
		toClose.Close()
	}
}

// InvalidatePrefix invalidates every cached path under dir (inclusive).
// The store's subtree Delete and Rename use it: one directory removal
// can orphan many cached member databases.
func (c *Cache) InvalidatePrefix(dir string) {
	prefix := dir
	if sep := string(filepath.Separator); !strings.HasSuffix(prefix, sep) {
		prefix += sep
	}
	c.mu.Lock()
	var toClose []*DB
	for p, e := range c.entries {
		if p != dir && !strings.HasPrefix(p, prefix) {
			continue
		}
		delete(c.entries, p)
		c.invalidations.Add(1)
		e.doomed = true
		if e.elem != nil {
			c.idle.Remove(e.elem)
			e.elem = nil
		}
		if e.refs == 0 {
			toClose = append(toClose, e.db)
		}
	}
	c.mu.Unlock()
	for _, db := range toClose {
		db.Close()
	}
}

// Close closes every unpinned database and dooms the pinned ones (their
// last release closes them). The cache remains usable, but a store
// shutting down should not Acquire afterwards.
func (c *Cache) Close() error {
	c.mu.Lock()
	var toClose []*DB
	for p, e := range c.entries {
		delete(c.entries, p)
		e.doomed = true
		if e.elem != nil {
			c.idle.Remove(e.elem)
			e.elem = nil
		}
		if e.refs == 0 {
			toClose = append(toClose, e.db)
		}
	}
	c.mu.Unlock()
	var first error
	for _, db := range toClose {
		if err := db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	open := len(c.entries)
	pinned := 0
	for _, e := range c.entries {
		if e.refs > 0 {
			pinned++
		}
	}
	c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Open:          open,
		Pinned:        pinned,
	}
}

// Close releases the handle's pin.
func (h *Handle) Close() error {
	h.cache.release(h.entry)
	return nil
}

// DB exposes the underlying database. The caller must not Close it;
// lifetime belongs to the cache.
func (h *Handle) DB() *DB { return h.db }

// span opens a per-operation span on the handle's context. Cached
// databases carry no context of their own (they outlive any single
// request), so the handle supplies the attribution the plain DB methods
// would otherwise take from OpenContext's binding.
func (h *Handle) span(op string) func(*error) {
	_, end := trace.Region(h.ctx, op, trace.Str("file", filepath.Base(h.db.path)))
	return func(errp *error) { end(*errp) }
}

// Get reads a key through the handle (span: "dbm.get").
func (h *Handle) Get(key []byte) (val []byte, found bool, err error) {
	defer h.span("dbm.get")(&err)
	return h.db.Get(key)
}

// Put writes a key through the handle (span: "dbm.put").
func (h *Handle) Put(key, value []byte) (err error) {
	defer h.span("dbm.put")(&err)
	return h.db.Put(key, value)
}

// Delete removes a key through the handle (span: "dbm.delete").
func (h *Handle) Delete(key []byte) (found bool, err error) {
	defer h.span("dbm.delete")(&err)
	return h.db.Delete(key)
}

// ForEach iterates live pairs through the handle (span: "dbm.foreach").
// The walk checks the handle's request context between records, so a
// scan on behalf of a disconnected client stops instead of finishing a
// pointless iteration while holding the database mutex.
func (h *Handle) ForEach(fn func(key, value []byte) error) (err error) {
	defer h.span("dbm.foreach")(&err)
	ctx := h.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return h.db.ForEachContext(ctx, fn)
}
