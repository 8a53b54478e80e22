package dbm

import (
	"container/list"
	"context"
	"errors"
	"io/fs"
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
//   - Two bounds, each with its own LRU list of idle entries. The
//     capacity bounds the databases holding a file: past it, the least
//     recently used idle one that holds a file is parked (DB.park: its
//     file closed, its image and memo kept, a hit for the next
//     Acquire). The byte budget (cacheBudgetBytes) bounds what the
//     cached images and memos hold, parked or not: past it, the least
//     recently used idle entry is evicted, and only that counts as an
//     eviction. A database bigger than the whole byte budget lives only
//     while pinned — as does every other entry, the cache being over
//     budget for that long — and is dropped on its last release.
//   - Eviction and Invalidate close the DB once the last pin is
//     released.
//   - Invalidate must be called when the backing file is deleted or
//     renamed (the store's Delete and Rename paths do this). Compact
//     needs no invalidation: DB.Compact swaps the file under the same
//     *DB, so cached handles stay valid.

// cacheBudgetBytes bounds the memory the cached databases' resident
// images may hold; the same figure as the bound on the document bodies
// core.DAVStorage keeps.
const cacheBudgetBytes = 64 << 20

// CacheStats is a point-in-time snapshot of a cache's counters.
type CacheStats struct {
	Hits          int64 // Acquire calls served by a cached database, parked or not
	Misses        int64 // Acquire calls that had to open the database
	Evictions     int64 // entries closed by byte-budget pressure
	Invalidations int64 // entries closed by Invalidate/InvalidatePrefix
	Open          int   // cached databases holding a file, as of each one's last release
	Pinned        int   // entries with at least one outstanding Handle
	Bytes         int64 // resident image bytes, as of each entry's last release
}

// Cache is a bounded, refcounted LRU of open databases. Safe for
// concurrent use.
type Cache struct {
	capacity int   // bound on files: entries with hasFile
	budget   int64 // cacheBudgetBytes; a field so tests can shrink it
	flavour  Flavour

	mu        sync.Mutex
	entries   map[string]*cacheEntry
	idle      *list.List // refs==0 entries, most recently used at front
	idleFiles *list.List // the idle entries with hasFile, in the same order
	files     int        // entries with hasFile
	bytes     int64      // sum of entries' size

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
	size  int64 // db's resident bytes when last measured (open, release)
	// hasFile: db held its file when last looked at (open, release),
	// and the cache has not parked it since.
	hasFile bool
	// doomed entries have been evicted or invalidated while pinned;
	// the last release closes them.
	doomed   bool
	elem     *list.Element // position in idle, nil while pinned
	fileElem *list.Element // position in idleFiles, nil unless idle with hasFile
}

// NewCache returns a cache of databases of one flavour, holding at most
// capacity (at least 1) of their files open.
func NewCache(capacity int, flavour Flavour) *Cache {
	return &Cache{
		capacity:  capacity,
		budget:    cacheBudgetBytes,
		flavour:   flavour,
		entries:   map[string]*cacheEntry{},
		idle:      list.New(),
		idleFiles: list.New(),
	}
}

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
// if it is not cached (a parked database is cached: a hit). Concurrent
// Acquires of one path share a single open (single-flight); all callers
// see the same result. The open, when it happens, is recorded as a
// "dbm.open" span on ctx.
//
// With create false a database that does not exist is not created. The
// error then satisfies errors.Is(err, fs.ErrNotExist), and the call is
// neither a hit nor a miss nor a failed span: "no database" is an
// answer, and there was nothing to cache.
func (c *Cache) Acquire(ctx context.Context, path string, create bool) (*Handle, error) {
	c.mu.Lock()
	if e, ok := c.entries[path]; ok {
		e.pinLocked(c)
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			// The single-flight open failed; unpin and report it — unless
			// it was somebody's non-creating open and this caller creates.
			c.release(e)
			if create && errors.Is(e.err, fs.ErrNotExist) {
				return c.Acquire(ctx, path, create)
			}
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

	_, end := trace.Region(ctx, "dbm.open",
		trace.Str("file", filepath.Base(path)), trace.Str("flavour", c.flavour.String()))
	db, err := open(path, c.flavour, create)
	var size int64
	if errors.Is(err, fs.ErrNotExist) {
		end(nil)
	} else {
		end(err)
		c.misses.Add(1)
	}
	if err == nil {
		size = db.residentBytes()
	}

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
	if !e.doomed { // not invalidated while it was being opened
		e.size = size
		c.bytes += size
		c.setFileLocked(e, true)
	}
	toClose, toPark := c.trimLocked()
	c.mu.Unlock()
	closeAll(toClose)
	parkAll(toPark)
	return &Handle{db: db, ctx: ctx, cache: c, entry: e}, nil
}

// pinLocked takes a reference, removing the entry from the idle lists
// if this is the first pin. Caller holds c.mu.
func (e *cacheEntry) pinLocked(c *Cache) {
	e.refs++
	c.unidleLocked(e)
}

// unidleLocked takes e off the idle lists it is on. Caller holds c.mu.
func (c *Cache) unidleLocked(e *cacheEntry) {
	if e.elem != nil {
		c.idle.Remove(e.elem)
		e.elem = nil
	}
	if e.fileElem != nil {
		c.idleFiles.Remove(e.fileElem)
		e.fileElem = nil
	}
}

// setFileLocked records whether e's database holds its file. Caller
// holds c.mu.
func (c *Cache) setFileLocked(e *cacheEntry, has bool) {
	if has != e.hasFile {
		e.hasFile = has
		if has {
			c.files++
		} else {
			c.files--
		}
	}
}

// release drops one reference. A live entry's size and file are brought
// up to date (its holder may have written to it, which reopens a parked
// database) and the cache trimmed; an entry doomed while pinned is
// closed by its last release.
func (c *Cache) release(e *cacheEntry) {
	var size int64
	if e.db != nil {
		size = e.db.residentBytes()
	}
	c.mu.Lock()
	var toClose, toPark []*DB
	e.refs--
	if e.doomed {
		if e.refs == 0 {
			toClose = append(toClose, e.db)
		}
	} else {
		c.bytes += size - e.size
		e.size = size
		// Read under c.mu: a park in flight only ever turns it false, so
		// the count never misses a file an idle entry holds.
		c.setFileLocked(e, e.db.hasFile.Load())
		switch {
		case e.refs > 0:
		case size > c.budget:
			// It can never fit: drop it now instead of letting it push
			// every other idle entry out first.
			c.evictions.Add(1)
			toClose = append(toClose, c.unlinkLocked(e))
		default:
			e.elem = c.idle.PushFront(e)
			if e.hasFile {
				e.fileElem = c.idleFiles.PushFront(e)
			}
		}
		var closing []*DB
		closing, toPark = c.trimLocked()
		toClose = append(toClose, closing...)
	}
	c.mu.Unlock()
	closeAll(toClose)
	parkAll(toPark)
}

// unlinkLocked takes e out of the cache. It returns e's database if
// nothing pins it, for the caller to close after dropping c.mu (a slow
// Close must never stall unrelated Acquires); a pinned entry is doomed
// instead and its last release closes it. Caller holds c.mu.
func (c *Cache) unlinkLocked(e *cacheEntry) *DB {
	delete(c.entries, e.path)
	c.bytes -= e.size
	c.setFileLocked(e, false)
	e.doomed = true
	c.unidleLocked(e)
	if e.refs > 0 {
		return nil
	}
	return e.db
}

// closeAll closes what unlinkLocked returned (nil: nothing to close,
// the entry was pinned or its open had failed) and reports the first
// failure.
func closeAll(dbs []*DB) error {
	var first error
	for _, db := range dbs {
		if db == nil {
			continue
		}
		if err := db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// parkAll parks what trimLocked chose, after c.mu is dropped: a park
// may fsync. A failure costs nothing but the file staying open, which
// the entry's next release counts again.
func parkAll(dbs []*DB) {
	for _, db := range dbs {
		db.park()
	}
}

// trimLocked evicts idle entries, oldest first, while the cache is over
// its byte budget, returning their databases for closeAll; then, while
// more entries hold a file than the capacity allows, it takes the
// oldest idle ones holding a file off that count and returns their
// databases for parkAll. Pinned entries are neither evicted nor parked,
// so the cache may transiently exceed either bound under heavy pinning.
// Caller holds c.mu.
func (c *Cache) trimLocked() (toClose, toPark []*DB) {
	for c.bytes > c.budget {
		back := c.idle.Back()
		if back == nil {
			break // everything over the budget is pinned
		}
		c.evictions.Add(1)
		toClose = append(toClose, c.unlinkLocked(back.Value.(*cacheEntry)))
	}
	for c.files > c.capacity {
		back := c.idleFiles.Back()
		if back == nil {
			break // every file over the capacity is pinned
		}
		e := back.Value.(*cacheEntry)
		c.idleFiles.Remove(back)
		e.fileElem = nil
		c.setFileLocked(e, false)
		toPark = append(toPark, e.db)
	}
	return toClose, toPark
}

// Invalidate removes the entry for path, closing the database once (and
// if) its last pin is released. Call it after deleting or renaming the
// backing file. Invalidating an uncached path is a no-op.
func (c *Cache) Invalidate(path string) {
	c.mu.Lock()
	var toClose *DB
	if e, ok := c.entries[path]; ok {
		c.invalidations.Add(1)
		toClose = c.unlinkLocked(e)
	}
	c.mu.Unlock()
	closeAll([]*DB{toClose})
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
		c.invalidations.Add(1)
		toClose = append(toClose, c.unlinkLocked(e))
	}
	c.mu.Unlock()
	closeAll(toClose)
}

// Close closes every unpinned database and dooms the pinned ones (their
// last release closes them). The cache remains usable, but a store
// shutting down should not Acquire afterwards.
func (c *Cache) Close() error {
	c.mu.Lock()
	var toClose []*DB
	for _, e := range c.entries {
		toClose = append(toClose, c.unlinkLocked(e))
	}
	c.mu.Unlock()
	return closeAll(toClose)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	open, bytes := c.files, c.bytes
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
		Bytes:         bytes,
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

// span opens a per-operation span on the handle's context. A database
// carries no context of its own (a cached one outlives any single
// request), so the handle supplies the attribution.
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
