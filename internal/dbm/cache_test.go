package dbm

import (
	"context"
	"fmt"
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

	h1, err := c.Acquire(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := h1.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	h1.Close()

	h2, err := c.Acquire(ctx, p)
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
	h1, err := c.Acquire(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Close()
	h2, err := c.Acquire(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if h1.DB() != h2.DB() {
		t.Fatal("two pins on one path returned different DBs")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2, GDBM)
	ctx := context.Background()
	paths := make([]string, 3)
	for i := range paths {
		paths[i] = cachePath(t, fmt.Sprintf("db%d.props", i))
		h, err := c.Acquire(ctx, paths[i])
		if err != nil {
			t.Fatal(err)
		}
		h.Close()
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	if s.Open != 2 {
		t.Fatalf("open = %d, want 2 (capacity)", s.Open)
	}
	// The oldest (paths[0]) was evicted; re-acquiring it is a miss.
	before := c.Stats().Misses
	h, err := c.Acquire(ctx, paths[0])
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	if c.Stats().Misses != before+1 {
		t.Fatal("evicted entry served as a hit")
	}
}

func TestCachePinnedEntrySurvivesEviction(t *testing.T) {
	c := NewCache(1, GDBM)
	ctx := context.Background()
	p0 := cachePath(t, "pinned.props")
	h, err := c.Acquire(ctx, p0)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Overflow the capacity while p0 is pinned.
	for i := 0; i < 3; i++ {
		h2, err := c.Acquire(ctx, cachePath(t, fmt.Sprintf("o%d.props", i)))
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
	h, err := c.Acquire(ctx, p)
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
	h2, err := c.Acquire(ctx, p)
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
		h, err := c.Acquire(ctx, p)
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
			h, err := c.Acquire(ctx, p)
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
	if _, err := c.Acquire(ctx, dir); err == nil {
		t.Fatal("Acquire of a directory succeeded")
	}
	if s := c.Stats(); s.Open != 0 {
		t.Fatalf("failed open left %d entries cached", s.Open)
	}
	// The failure is retried, not replayed from cache.
	if _, err := c.Acquire(ctx, dir); err == nil {
		t.Fatal("second Acquire of a directory succeeded")
	}
	if s := c.Stats(); s.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (errors are not cached)", s.Misses)
	}
}

func TestCacheCloseClosesIdleAndDoomsPinned(t *testing.T) {
	c := NewCache(8, GDBM)
	ctx := context.Background()
	idle, err := c.Acquire(ctx, cachePath(t, "idle.props"))
	if err != nil {
		t.Fatal(err)
	}
	idleDB := idle.DB()
	idle.Close()
	pinned, err := c.Acquire(ctx, cachePath(t, "pinned.props"))
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
				h, err := c.Acquire(ctx, p)
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
