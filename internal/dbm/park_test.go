package dbm

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// A write through a parked database reopens its file, lands in it, and
// survives the cache being closed and the database opened afresh, with
// the file structurally sound.
func TestParkedWriteSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	c := NewCache(1, GDBM)
	a, b := filepath.Join(dir, "a.props"), filepath.Join(dir, "b.props")
	grow(t, c, a, 10)
	grow(t, c, b, 10) // parks a
	h, err := c.Acquire(ctx, a, false)
	if err != nil {
		t.Fatal(err)
	}
	if h.DB().hasFile.Load() {
		t.Fatal("a is not parked at capacity 1 after b's release")
	}
	if err := h.Put([]byte("late"), []byte("written while parked")); err != nil {
		t.Fatal(err)
	}
	if !h.DB().hasFile.Load() {
		t.Fatal("the write did not reopen the parked database")
	}
	h.Close() // back at capacity: b, the older idle file, is parked now
	if s := c.Stats(); s.Open != 1 || s.Misses != 2 || s.Evictions != 0 {
		t.Fatalf("after the write: %+v; want 1 open file, 2 misses, 0 evictions", s)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	for _, p := range []string{a, b} {
		if err := Verify(p); err != nil {
			t.Fatalf("Verify(%s): %v", filepath.Base(p), err)
		}
	}
	db, err := Open(a, GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if v, ok, err := db.Get([]byte("late")); err != nil || !ok || string(v) != "written while parked" {
		t.Fatalf("after reopening: Get = %q, %v, %v", v, ok, err)
	}
	if v, ok, _ := db.Get([]byte("k")); !ok || len(v) != 10 {
		t.Fatalf("after reopening: the value written before parking is %d bytes, %v", len(v), ok)
	}
	if st, err := db.Stats(); err != nil || st.Keys != 2 || st.DeadBytes != 0 {
		t.Fatalf("after reopening: %+v, %v; want 2 keys, no dead bytes", st, err)
	}
}

// A file changed behind a parked database is never extended from the
// stale image: the next write loads the file as it now is and appends to
// that. Replaced by a rename (another inode), rewritten in place to
// another size, or touched in place at the same size but a later mtime.
func TestParkedDatabaseRereadsAChangedFile(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 30<<10) // past the 25 KiB preallocation
	cases := []struct {
		name   string
		theirs []byte // what the change stores under "theirs"; each drops "mine"
		change func(t *testing.T, path string)
	}{
		{"renamed over", []byte("replacement"), func(t *testing.T, path string) {
			other := path + ".new"
			db, err := Open(other, GDBM)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Put([]byte("theirs"), []byte("replacement")); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(other, path); err != nil {
				t.Fatal(err)
			}
		}},
		{"grown in place", big, func(t *testing.T, path string) {
			db, err := Open(path, GDBM)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Put([]byte("theirs"), big); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Delete([]byte("mine")); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"written in place, same size", []byte("replacement"), func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			db, err := Open(path, GDBM)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Put([]byte("theirs"), []byte("replacement")); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Delete([]byte("mine")); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			// A later clock tick than the park's, whatever the
			// filesystem's timestamp granularity.
			later := fi.ModTime().Add(time.Second)
			if err := os.Chtimes(path, later, later); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "p.props")
			db, err := Open(path, GDBM)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := db.Put([]byte("mine"), []byte("stale")); err != nil {
				t.Fatal(err)
			}
			memoSnapshot(t, db)
			if err := db.park(); err != nil {
				t.Fatal(err)
			}
			tc.change(t, path)
			// Reads of the parked database still serve its own image.
			if v, ok, err := db.Get([]byte("mine")); err != nil || !ok || string(v) != "stale" {
				t.Fatalf("parked Get = %q, %v, %v", v, ok, err)
			}
			if err := db.Put([]byte("after"), []byte("reopened")); err != nil {
				t.Fatal(err)
			}
			// The file as changed plus the write; nothing of the stale
			// image ("mine") is in either.
			want := map[string][]byte{"theirs": tc.theirs, "after": []byte("reopened")}
			checkImage(t, db, want, "the first write after the change")
		})
	}
}

// A parked database whose file is gone fails its next write and creates
// nothing; reads go on serving the image.
func TestParkedDatabaseWithoutItsFileFailsWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gone.props")
	db, err := Open(path, SDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.park(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k2"), []byte("v2")); !os.IsNotExist(err) {
		t.Fatalf("Put on a parked database without its file = %v, want not-exist", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("the failed write left a file behind: %v", err)
	}
	if v, ok, err := db.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get after the failed write = %q, %v, %v", v, ok, err)
	}
}

// Readers and writers over four times as many databases as the cache
// may hold files for. Under -race this is the proof that parking, the
// reopen on write and eviction leave no shared state unguarded; after
// it the file bound holds and every writer's last value is in its file.
func TestCacheParkingUnderConcurrentUse(t *testing.T) {
	const capacity, workers, rounds = 4, 8, 300
	c := NewCache(capacity, GDBM)
	c.budget = 64 << 10 // small enough that byte eviction runs too
	dir := t.TempDir()
	paths := make([]string, 4*capacity)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("c%d.props", i))
	}
	ctx := context.Background()
	last := make([]map[string]string, workers) // per worker: path -> last value written
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		last[w] = map[string]string{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			key := []byte(fmt.Sprintf("w%d", w))
			for i := 0; i < rounds; i++ {
				p := paths[rng.Intn(len(paths))]
				h, err := c.Acquire(ctx, p, true)
				if err != nil {
					t.Error(err)
					return
				}
				switch rng.Intn(4) {
				case 0:
					v := fmt.Sprintf("%d-%d", w, i)
					if err := h.Put(key, []byte(v)); err != nil {
						t.Error(err)
					}
					last[w][p] = v
				case 1:
					if err := h.ForEach(func(k, v []byte) error { return nil }); err != nil {
						t.Error(err)
					}
				case 2:
					if _, err := h.DB().Memo(func() (any, int64, error) {
						return h.DB().Len(), 8, nil
					}); err != nil {
						t.Error(err)
					}
				default:
					if v, ok, err := h.Get(key); err != nil || (ok != (last[w][p] != "")) || string(v) != last[w][p] {
						t.Errorf("worker %d: Get in %s = %q, %v, %v; it last wrote %q", w, filepath.Base(p), v, ok, err, last[w][p])
					}
				}
				h.Close()
			}
		}(w)
	}
	wg.Wait()
	if s := c.Stats(); s.Open > capacity || s.Pinned != 0 {
		t.Fatalf("after the workers: %+v; want at most %d open files, nothing pinned", s, capacity)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for w, written := range last {
		for p, want := range written {
			db, err := Open(p, GDBM)
			if err != nil {
				t.Fatal(err)
			}
			v, ok, err := db.Get([]byte(fmt.Sprintf("w%d", w)))
			db.Close()
			if err != nil || !ok || string(v) != want {
				t.Errorf("%s: worker %d's value = %q, %v, %v; want %q", filepath.Base(p), w, v, ok, err, want)
			}
		}
	}
}

// After every release the cache holds at most its capacity of files,
// and a second pass over the same databases opens none of them.
func TestCacheFileBoundHoldsAfterEveryRelease(t *testing.T) {
	const capacity = 3
	c := NewCache(capacity, SDBM)
	defer c.Close()
	ctx := context.Background()
	dir := t.TempDir()
	for pass := 0; pass < 2; pass++ {
		before := c.Stats()
		for i := 0; i < 5*capacity; i++ {
			h, err := c.Acquire(ctx, filepath.Join(dir, fmt.Sprintf("f%d.props", i)), true)
			if err != nil {
				t.Fatal(err)
			}
			if pass == 0 {
				if err := h.Put([]byte("k"), []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			} else if v, ok, err := h.Get([]byte("k")); err != nil || !ok || v[0] != byte(i) {
				t.Fatalf("pass 2, f%d: Get = %v, %v, %v", i, v, ok, err)
			}
			h.Close()
			if s := c.Stats(); s.Open > capacity {
				t.Fatalf("pass %d, after releasing f%d: %d files open, capacity %d", pass+1, i, s.Open, capacity)
			}
		}
		if pass == 1 {
			if s := c.Stats(); s.Misses != before.Misses || s.Evictions != 0 {
				t.Fatalf("the second pass: %+v (before %+v); want no new miss, no eviction", s, before)
			}
		}
	}
}

// Parked databases stay cached only while the byte budget holds them,
// and a database of a few bytes still counts its bucket table: eight
// tiny GDBM databases under a 10 KiB budget keep two cached.
func TestByteBudgetBoundsParkedDatabases(t *testing.T) {
	c := NewCache(1, GDBM)
	c.budget = 10 << 10
	defer c.Close()
	dir := t.TempDir()
	for i := 0; i < 8; i++ {
		grow(t, c, filepath.Join(dir, fmt.Sprintf("t%d.props", i)), 1)
	}
	if s := c.Stats(); s.Open != 1 || s.Evictions != 6 || s.Bytes > c.budget {
		t.Fatalf("eight tiny databases, capacity 1, 10 KiB budget: %+v; want 1 open file, 6 evictions, bytes within the budget", s)
	}
}
