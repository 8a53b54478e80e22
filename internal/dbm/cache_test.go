package dbm

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func cachePath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), name)
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(4, GDBM)
	p := cachePath(t, "a.props")
	ctx := context.Background()

	h1, err := c.Acquire(ctx, p, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := h1.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	h1.Close()

	h2, err := c.Acquire(ctx, p, true)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := h2.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	h2.Close()

	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss 1 hit", s)
	}
	if s.Open != 1 || s.Pinned != 0 {
		t.Fatalf("stats = %+v, want 1 open 0 pinned", s)
	}
}

func TestCacheSharedHandleSameDB(t *testing.T) {
	c := NewCache(4, GDBM)
	p := cachePath(t, "a.props")
	ctx := context.Background()
	h1, err := c.Acquire(ctx, p, true)
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Close()
	h2, err := c.Acquire(ctx, p, true)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if h1.DB() != h2.DB() {
		t.Fatal("two pins on one path returned different DBs")
	}
}

// The capacity bounds open files, not cached databases: past it the
// least recently used idle database is parked, not evicted, and the
// next Acquire of it is a hit that opens nothing.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2, GDBM)
	defer c.Close()
	ctx := context.Background()
	paths := make([]string, 3)
	dbs := make([]*DB, 3)
	for i := range paths {
		paths[i] = cachePath(t, fmt.Sprintf("db%d.props", i))
		h, err := c.Acquire(ctx, paths[i], true)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Put([]byte("k"), []byte(paths[i])); err != nil {
			t.Fatal(err)
		}
		dbs[i] = h.DB()
		h.Close()
	}
	if s := c.Stats(); s.Open != 2 || s.Evictions != 0 || s.Misses != 3 {
		t.Fatalf("three databases at capacity 2: %+v; want 2 open files, 0 evictions, 3 misses", s)
	}
	for i, want := range []bool{false, true, true} { // the oldest was parked
		if got := dbs[i].hasFile.Load(); got != want {
			t.Errorf("db%d holds its file: %v, want %v", i, got, want)
		}
	}
	h, err := c.Acquire(ctx, paths[0], false)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := h.Get([]byte("k")); err != nil || !ok || string(v) != paths[0] {
		t.Errorf("Get on the parked database = %q, %v, %v", v, ok, err)
	}
	if h.DB() != dbs[0] || dbs[0].hasFile.Load() {
		t.Error("a read of the parked database reopened it or replaced it")
	}
	h.Close()
	if s := c.Stats(); s.Hits != 1 || s.Misses != 3 || s.Open != 2 {
		t.Fatalf("after re-acquiring the parked database: %+v; want 1 hit, still 3 misses and 2 open files", s)
	}
}

func TestCachePinnedEntrySurvivesEviction(t *testing.T) {
	c := NewCache(1, GDBM)
	ctx := context.Background()
	p0 := cachePath(t, "pinned.props")
	h, err := c.Acquire(ctx, p0, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Overflow the capacity while p0 is pinned.
	for i := 0; i < 3; i++ {
		h2, err := c.Acquire(ctx, cachePath(t, fmt.Sprintf("o%d.props", i)), true)
		if err != nil {
			t.Fatal(err)
		}
		h2.Close()
	}
	// The pinned handle must still work.
	if _, ok, err := h.Get([]byte("k")); err != nil || !ok {
		t.Fatalf("pinned handle unusable after LRU pressure: ok=%v err=%v", ok, err)
	}
	h.Close()
}

func TestCacheInvalidateClosesAfterLastPin(t *testing.T) {
	c := NewCache(4, GDBM)
	ctx := context.Background()
	p := cachePath(t, "a.props")
	h, err := c.Acquire(ctx, p, true)
	if err != nil {
		t.Fatal(err)
	}
	db := h.DB()
	c.Invalidate(p)
	// Still pinned: operations keep working.
	if err := h.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("doomed-but-pinned handle failed: %v", err)
	}
	h.Close()
	// Now closed: direct use reports ErrClosed.
	if _, _, err := db.Get([]byte("k")); err != ErrClosed {
		t.Fatalf("after last pin released, Get err = %v, want ErrClosed", err)
	}
	// Re-acquiring opens a fresh DB seeing the persisted data.
	h2, err := c.Acquire(ctx, p, true)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if _, ok, err := h2.Get([]byte("k")); err != nil || !ok {
		t.Fatalf("reopened DB lost data: ok=%v err=%v", ok, err)
	}
}

func TestCacheInvalidatePrefix(t *testing.T) {
	c := NewCache(8, GDBM)
	ctx := context.Background()
	dir := t.TempDir()
	sub := filepath.Join(dir, "sub")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	inside := filepath.Join(sub, "a.props")
	deeper := filepath.Join(sub, "x")
	if err := os.MkdirAll(deeper, 0o755); err != nil {
		t.Fatal(err)
	}
	nested := filepath.Join(deeper, "b.props")
	outside := filepath.Join(dir, "subx.props") // shares the string prefix, not the directory
	for _, p := range []string{inside, nested, outside} {
		h, err := c.Acquire(ctx, p, true)
		if err != nil {
			t.Fatal(err)
		}
		h.Close()
	}
	c.InvalidatePrefix(sub)
	s := c.Stats()
	if s.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2 (inside + nested)", s.Invalidations)
	}
	if s.Open != 1 {
		t.Fatalf("open = %d, want 1 (outside survives)", s.Open)
	}
}

func TestCacheSingleFlightOpen(t *testing.T) {
	c := NewCache(8, GDBM)
	ctx := context.Background()
	p := cachePath(t, "a.props")
	const workers = 16
	var wg sync.WaitGroup
	dbs := make([]*DB, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := c.Acquire(ctx, p, true)
			if err != nil {
				t.Error(err)
				return
			}
			dbs[i] = h.DB()
			h.Close()
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if dbs[i] != dbs[0] {
			t.Fatal("concurrent Acquires opened more than one DB")
		}
	}
	if s := c.Stats(); s.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (single-flight)", s.Misses)
	}
}

func TestCacheOpenErrorNotCached(t *testing.T) {
	c := NewCache(4, GDBM)
	ctx := context.Background()
	// A directory path cannot be opened as a database file.
	dir := t.TempDir()
	if _, err := c.Acquire(ctx, dir, true); err == nil {
		t.Fatal("Acquire of a directory succeeded")
	}
	if s := c.Stats(); s.Open != 0 {
		t.Fatalf("failed open left %d entries cached", s.Open)
	}
	// The failure is retried, not replayed from cache.
	if _, err := c.Acquire(ctx, dir, true); err == nil {
		t.Fatal("second Acquire of a directory succeeded")
	}
	if s := c.Stats(); s.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (errors are not cached)", s.Misses)
	}
}

func TestCacheCloseClosesIdleAndDoomsPinned(t *testing.T) {
	c := NewCache(8, GDBM)
	ctx := context.Background()
	idle, err := c.Acquire(ctx, cachePath(t, "idle.props"), true)
	if err != nil {
		t.Fatal(err)
	}
	idleDB := idle.DB()
	idle.Close()
	pinned, err := c.Acquire(ctx, cachePath(t, "pinned.props"), true)
	if err != nil {
		t.Fatal(err)
	}
	pinnedDB := pinned.DB()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := idleDB.Get([]byte("k")); err != ErrClosed {
		t.Fatal("idle DB not closed by cache Close")
	}
	// Pinned survives until its release.
	if err := pinned.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("pinned handle died on cache Close: %v", err)
	}
	pinned.Close()
	if _, _, err := pinnedDB.Get([]byte("k")); err != ErrClosed {
		t.Fatal("pinned DB not closed after last release")
	}
}

func TestCacheConcurrentStress(t *testing.T) {
	c := NewCache(4, GDBM)
	ctx := context.Background()
	dir := t.TempDir()
	paths := make([]string, 8)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("s%d.props", i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p := paths[(w+i)%len(paths)]
				h, err := c.Acquire(ctx, p, true)
				if err != nil {
					t.Error(err)
					return
				}
				key := []byte(fmt.Sprintf("k%d", w))
				if err := h.Put(key, []byte("v")); err != nil {
					t.Error(err)
				}
				if _, _, err := h.Get(key); err != nil {
					t.Error(err)
				}
				if i%17 == 0 {
					c.Invalidate(p)
				}
				h.Close()
			}
		}(w)
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// grow makes the database at path hold one value of n bytes through the
// cache, so the entry's resident size is at least n from that release on.
func grow(t *testing.T, c *Cache, path string, n int) {
	t.Helper()
	h, err := c.Acquire(context.Background(), path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.Put([]byte("k"), make([]byte, n)); err != nil {
		t.Fatal(err)
	}
}

// The byte budget evicts idle entries, oldest first, until what the
// cached databases hold fits. Each 3000-byte GDBM database holds 7 KiB
// with its bucket table: two fit in 20 KiB, three do not.
func TestCacheByteBudgetEvictsOldestIdle(t *testing.T) {
	c := NewCache(16, GDBM)
	c.budget = 20 << 10
	defer c.Close()
	paths := make([]string, 3)
	for i := range paths {
		paths[i] = cachePath(t, fmt.Sprintf("db%d.props", i))
		grow(t, c, paths[i], 3000)
	}
	s := c.Stats()
	if s.Open != 2 || s.Evictions != 1 || s.Bytes < 6000 || s.Bytes > c.budget {
		t.Fatalf("three 3000-byte databases under a 20 KiB budget: %+v; want 2 open, 1 eviction, 6000 <= bytes <= budget", s)
	}
	for i, wantMiss := range []bool{false, false, true} { // newest first; db0 went
		before := c.Stats().Misses
		h, err := c.Acquire(context.Background(), paths[2-i], false)
		if err != nil {
			t.Fatal(err)
		}
		h.Close()
		if miss := c.Stats().Misses > before; miss != wantMiss {
			t.Errorf("re-acquiring %s: miss = %v, want %v", filepath.Base(paths[2-i]), miss, wantMiss)
		}
	}
}

// Pinned entries are not evictable whatever the budget says, and a
// database that outgrows the whole budget is dropped by its last
// release — itself, not the entries that still fit. With their bucket
// tables the small and the pinned database hold 12 KiB, the big one
// 25 KiB.
func TestCacheByteBudgetPinnedAndOversized(t *testing.T) {
	c := NewCache(16, GDBM)
	c.budget = 20 << 10
	defer c.Close()
	ctx := context.Background()
	small, pinned, big := cachePath(t, "small.props"), cachePath(t, "pinned.props"), cachePath(t, "big.props")
	grow(t, c, small, 1000)
	grow(t, c, pinned, 3000)
	hp, err := c.Acquire(ctx, pinned, false)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := c.Acquire(ctx, big, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := hb.Put([]byte("k"), make([]byte, 20<<10)); err != nil {
		t.Fatal(err)
	}
	bigDB := hb.DB()
	hb.Close()
	if _, _, err := bigDB.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Errorf("Get on the over-budget database after its release: %v, want ErrClosed", err)
	}
	if _, _, err := hp.Get([]byte("k")); err != nil {
		t.Errorf("Get through the pinned handle: %v", err)
	}
	hp.Close()
	s := c.Stats()
	if s.Open != 2 || s.Evictions != 1 || s.Bytes > c.budget {
		t.Fatalf("after dropping the 20 KiB database: %+v; want small and pinned still open, 1 eviction", s)
	}
	// Served again while pinned — the cache is over budget for that long,
	// so the idle entries go — and again gone afterwards.
	hb, err = c.Acquire(ctx, big, false)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := hb.Get([]byte("k")); err != nil || !ok || len(v) != 20<<10 {
		t.Errorf("over-budget database, pinned: Get = %d bytes, %v, %v", len(v), ok, err)
	}
	bigDB = hb.DB()
	hb.Close()
	if _, _, err := bigDB.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Errorf("Get on the over-budget database after its second release: %v, want ErrClosed", err)
	}
	if s := c.Stats(); s.Open != 0 || s.Bytes != 0 {
		t.Errorf("after the second release: %+v, want nothing open", s)
	}
}

// A non-creating Acquire of a database that does not exist creates
// nothing and is neither a hit nor a miss; a creating Acquire behind it
// is an ordinary miss.
func TestCacheAcquireWithoutCreate(t *testing.T) {
	c := NewCache(4, GDBM)
	defer c.Close()
	ctx := context.Background()
	p := cachePath(t, "absent.props")
	for i := 0; i < 2; i++ {
		if _, err := c.Acquire(ctx, p, false); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("Acquire(create=false) of an absent database = %v, want fs.ErrNotExist", err)
		}
	}
	if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the non-creating Acquire left a file behind: %v", err)
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 || s.Open != 0 {
		t.Fatalf("stats after two absent lookups = %+v, want no hit, no miss, nothing open", s)
	}
	h, err := c.Acquire(ctx, p, true)
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	if s := c.Stats(); s.Misses != 1 || s.Open != 1 {
		t.Fatalf("stats after the creating Acquire = %+v, want 1 miss, 1 open", s)
	}
}
