package dbm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// within fails the test if fn has not returned after five seconds: the
// readers under test used to spin forever under db.mu on a chain that
// points at itself.
func within(t *testing.T, what string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still running after 5s (reader looping on a corrupt chain)", what)
		return nil
	}
}

// twoRecordChain builds a database whose keys "old" and newer share one
// bucket, so the newer record's prev points at the older one, and
// returns the path, the newer key and the newer record's offset.
func twoRecordChain(t *testing.T) (path, newer string, at int64) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "chain.props")
	db, err := Open(path, SDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := db.bucketOf([]byte("old"))
	for i := 0; newer == ""; i++ {
		if k := fmt.Sprintf("k%d", i); db.bucketOf([]byte(k)) == want {
			newer = k
		}
	}
	for _, k := range []string{"old", newer} {
		if err := db.Put([]byte(k), []byte("value of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	return path, newer, db.buckets[want]
}

func setPrev(t *testing.T, path string, at, prev int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(prev))
	if _, err := f.WriteAt(buf[:], at); err != nil {
		t.Fatal(err)
	}
}

// A record whose prev does not point strictly backwards must fail every
// reader with ErrCorrupt. A handle that is already open serves its
// resident image, so damage planted in the file under it is for Verify
// and the next Open to find; ForEach and Get are shown the same damage
// in the image, where a reader that trusted prev would spin under db.mu.
func TestCorruptChainFailsReaders(t *testing.T) {
	for _, tc := range []struct {
		name string
		prev func(at, size int64) int64
	}{
		{"prev equals own offset", func(at, _ int64) int64 { return at }},
		{"prev points forward", func(at, _ int64) int64 { return at + recHdrSize }},
		{"prev past end of file", func(_, size int64) int64 { return size + 4096 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path, _, at := twoRecordChain(t)
			db, err := Open(path, SDBM)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			bad := tc.prev(at, fi.Size())
			setPrev(t, path, at, bad)

			if err := Verify(path); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Verify = %v, want ErrCorrupt", err)
			}
			if v, ok, err := db.Get([]byte("old")); err != nil || !ok || string(v) != "value of old" {
				t.Errorf("Get through the handle opened before the damage = %q, %v, %v; want the validated image's value", v, ok, err)
			}
			err = within(t, "Open", func() error {
				db2, err := Open(path, SDBM)
				if err == nil {
					db2.Close()
				}
				return err
			})
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("Open = %v, want ErrCorrupt", err)
			}

			binary.LittleEndian.PutUint64(db.image[at-areaStart(db.buckets):], uint64(bad))
			err = within(t, "ForEach", func() error {
				return db.ForEach(func(_, _ []byte) error { return nil })
			})
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("ForEach = %v, want ErrCorrupt", err)
			}
			// "old" sits behind the damaged record, so Get must follow
			// the bad pointer to look for it.
			err = within(t, "Get", func() error {
				_, _, err := db.Get([]byte("old"))
				return err
			})
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("Get = %v, want ErrCorrupt", err)
			}
		})
	}
}

// A record filed under a bucket its key does not hash to is reachable
// by a scan but not by Get. Verify reports it; Open and ForEach must not,
// because a store that invalidates a cached handle on a file it could
// not remove leaves two handles appending to one inode, which misfiles
// records, and the collection's listing has to keep answering.
func TestMisplacedRecordIsVerifyOnly(t *testing.T) {
	path, newer, at := twoRecordChain(t)
	db, err := Open(path, SDBM)
	if err != nil {
		t.Fatal(err)
	}
	other := (db.bucketOf([]byte(newer)) + 1) % len(db.buckets)
	if err := db.setBucketHead(other, at); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := Verify(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Verify = %v, want ErrCorrupt", err)
	}
	db, err = Open(path, SDBM)
	if err != nil {
		t.Fatalf("Open = %v, want success", err)
	}
	defer db.Close()
	if err := db.ForEach(func(_, _ []byte) error { return nil }); err != nil {
		t.Errorf("ForEach = %v, want success", err)
	}
}

// A file that is not a database is refused from its first bytes, before
// Open allocates anything of the file's size.
func TestOpenRejectsForeignFileByHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.props")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not a dbm file"); err != nil {
		t.Fatal(err)
	}
	// Sparse: far more than a test process may allocate.
	if err := f.Truncate(1 << 42); err != nil {
		t.Skipf("no sparse files here: %v", err)
	}
	f.Close()
	if _, err := Open(path, GDBM); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Open = %v, want ErrCorrupt", err)
	}
	if err := Verify(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Verify = %v, want ErrCorrupt", err)
	}
}

// The slices ForEach yields alias one buffer; an append through one of
// them must not be able to reach the next record.
func TestForEachSlicesAreCapped(t *testing.T) {
	path, _, _ := twoRecordChain(t)
	db, err := Open(path, SDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var keys, vals [][]byte
	err = db.ForEach(func(k, v []byte) error {
		if cap(k) != len(k) || cap(v) != len(v) {
			t.Errorf("key cap %d len %d, value cap %d len %d", cap(k), len(k), cap(v), len(v))
		}
		keys, vals = append(keys, k), append(vals, v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if want := "value of " + string(k); string(vals[i]) != want {
			t.Errorf("retained value for %q = %q, want %q", k, vals[i], want)
		}
	}
}
