package dbm

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"testing"
)

// Memo keeps what build returned until the next write, hands a value
// built across a write to its caller without keeping it, keeps nothing
// from a failed build, and refuses a closed database.
func TestMemoLivesUntilTheNextWrite(t *testing.T) {
	db := openTemp(t, GDBM)
	builds := 0
	build := func() (any, int64, error) {
		builds++
		return new(int), 0, nil
	}
	memoOf := func() any {
		t.Helper()
		v, err := db.Memo(build)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	first := memoOf()
	if again := memoOf(); again != first || builds != 1 {
		t.Fatalf("second Memo with no write between: same value %v, %d builds; want the kept one, 1 build", again == first, builds)
	}
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	second := memoOf()
	if second == first || builds != 2 {
		t.Fatalf("Memo after a Put: same value %v, %d builds; want a new one", second == first, builds)
	}

	// A write that lands while build reads: this caller gets the value,
	// nobody after it does.
	if err := db.Put([]byte("k"), []byte("before the build")); err != nil {
		t.Fatal(err)
	}
	racing, err := db.Memo(func() (any, int64, error) {
		if err := db.Put([]byte("k"), []byte("during the build")); err != nil {
			return nil, 0, err
		}
		return new(int), 0, nil
	})
	if err != nil || racing == nil {
		t.Fatalf("Memo with a write inside build = %v, %v", racing, err)
	}
	if after := memoOf(); after == racing || after == second {
		t.Fatal("Memo returns a value built before, or across, the last write")
	}

	failed := errors.New("build failed")
	kept := memoOf()
	if _, err := db.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Memo(func() (any, int64, error) { return new(int), 0, failed }); !errors.Is(err, failed) {
		t.Fatalf("Memo with a failing build = %v, want its error", err)
	}
	if after := memoOf(); after == kept {
		t.Fatal("a failed build left the value from before the Delete in place")
	}

	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	compacted := memoOf()
	if compacted == kept || builds < 4 {
		t.Fatal("Memo after Compact returned the value from before it")
	}
	db.Close()
	if _, err := db.Memo(build); !errors.Is(err, ErrClosed) {
		t.Fatalf("Memo on a closed database = %v, want ErrClosed", err)
	}
}

// The bytes a memo's builder reports count in the handle cache's Bytes
// beside the image, and leave with the handle.
func TestMemoBytesCountInTheCacheBudget(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(4, GDBM)
	defer c.Close()
	path := filepath.Join(dir, "m.props")
	h, err := c.Acquire(context.Background(), path, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	h.Close()
	image := c.Stats().Bytes

	h, err = c.Acquire(context.Background(), path, false)
	if err != nil {
		t.Fatal(err)
	}
	const memoBytes = 5000
	if _, err := h.DB().Memo(func() (any, int64, error) { return new(int), memoBytes, nil }); err != nil {
		t.Fatal(err)
	}
	h.Close()
	if got := c.Stats().Bytes; got != image+memoBytes {
		t.Fatalf("cache Bytes with a %d-byte memo = %d, want %d", memoBytes, got, image+memoBytes)
	}
	c.Invalidate(path)
	if got := c.Stats().Bytes; got != 0 {
		t.Fatalf("cache Bytes after Invalidate = %d, want 0", got)
	}
}

// Opening a database reads its file into a pooled buffer and keeps a
// right-sized copy of the records: a fresh GDBM file, 25 KiB of
// preallocation with no record in it, costs an open its bucket table and
// bookkeeping, not its size. The least of several opens is taken, as a
// collection may empty the pool (and under -race the pool drops some
// buffers on purpose).
func TestOpenAllocatesRecordsNotFileSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.props")
	db, err := Open(path, GDBM)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 20; i++ {
		runtime.ReadMemStats(&before)
		db, err := Open(path, GDBM)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		db.Close()
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 8<<10 {
		t.Errorf("one Open of a fresh GDBM file allocates %d bytes, want at most 8 KiB", least)
	}
}
