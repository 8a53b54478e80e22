package dbm

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"
)

// opKeys is the alphabet runOps draws keys from. The first four hash to
// one GDBM bucket — and so to one SDBM bucket, 128 dividing 512 — which
// gives chains of different keys on top of the shadowing any repeated
// key produces; the rest are a long key and three ordinary ones.
var opKeys = func() [][]byte {
	byBucket := map[int][][]byte{}
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		b := bucketIndex(k, 512)
		if byBucket[b] = append(byBucket[b], k); len(byBucket[b]) == 4 {
			return append(byBucket[b], bytes.Repeat([]byte("long"), 64), []byte("a"), []byte("b"), []byte("c"))
		}
	}
}()

// runOps interprets ops as a sequence of Put, Delete, Compact and
// close-and-reopen calls on a fresh database — the first byte picks the
// flavour — beside a map that models it, and after every call requires
// checkImage. At most maxOps calls run, which bounds what one fuzz input
// can cost in fsyncs.
func runOps(t *testing.T, path string, ops []byte) {
	t.Helper()
	const maxOps = 48
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	flavour := Flavour(next() & 1)
	os.Remove(path)
	db, err := Open(path, flavour)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	model := map[string][]byte{}
	for n := 0; n < maxOps && len(ops) > 0; n++ {
		op := next()
		what := ""
		before := memoSnapshot(t, db)
		wrote := true
		switch op % 10 {
		case 0, 1, 2, 3, 4:
			// Values run from empty to past SDBM's limit; their bytes
			// differ from one call to the next so a stale read shows.
			k, v := opKeys[int(next())%len(opKeys)], bytes.Repeat([]byte{byte(n) + 1}, int(next())*5)
			what = fmt.Sprintf("Put(%.8q, %d bytes)", k, len(v))
			err := db.Put(k, v)
			if tooLarge := flavour == SDBM && len(v) > 1024; tooLarge != errors.Is(err, ErrValueTooLarge) || (err != nil && !tooLarge) {
				t.Fatalf("op %d: %s = %v", n, what, err)
			} else if !tooLarge {
				model[string(k)] = v
			} else {
				wrote = false
			}
		case 5, 6:
			k := opKeys[int(next())%len(opKeys)]
			what = fmt.Sprintf("Delete(%.8q)", k)
			_, had := model[string(k)]
			if found, err := db.Delete(k); err != nil || found != had {
				t.Fatalf("op %d: %s = %v, %v; want %v", n, what, found, err, had)
			}
			delete(model, string(k))
			wrote = had
		case 7:
			what = "Compact"
			if err := db.Compact(); err != nil {
				t.Fatalf("op %d: Compact: %v", n, err)
			}
			if st, err := db.Stats(); err != nil || st.DeadBytes != 0 {
				t.Fatalf("op %d: after Compact: %+v, %v", n, st, err)
			}
		default:
			what = "reopen"
			if err := db.Close(); err != nil {
				t.Fatalf("op %d: Close: %v", n, err)
			}
			if db, err = Open(path, flavour); err != nil {
				t.Fatalf("op %d: reopen: %v", n, err)
			}
		}
		when := fmt.Sprintf("op %d, %s", n, what)
		checkImage(t, db, model, when)
		if after := memoSnapshot(t, db); wrote && after == before {
			t.Fatalf("%s: Memo returns the value it built before the write", when)
		}
	}
}

// snapshot is the value runOps keeps in a database's memo slot: a copy
// of every live pair as the build's ForEach saw them.
type snapshot struct{ pairs map[string][]byte }

// memoSnapshot returns db's memo, building a snapshot if it has to.
func memoSnapshot(t *testing.T, db *DB) *snapshot {
	t.Helper()
	v, err := db.Memo(func() (any, int64, error) {
		s := &snapshot{pairs: map[string][]byte{}}
		err := db.ForEach(func(k, v []byte) error {
			s.pairs[string(k)] = bytes.Clone(v)
			return nil
		})
		return s, 0, err
	})
	if err != nil {
		t.Fatalf("Memo: %v", err)
	}
	return v.(*snapshot)
}

// checkImage requires the open database, its file and the model to
// agree: the resident image is the file's record area byte for byte with
// nothing but preallocated zeros after it, the bucket tables are equal,
// the file passes Verify, and Len, ForEach, Get, Has and the memo answer
// as the model does.
func checkImage(t *testing.T, db *DB, model map[string][]byte, when string) {
	t.Helper()
	fi, err := db.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	hdr, area, err := readImage(db.f, fi.Size(), nil)
	if err != nil {
		t.Fatalf("%s: reading the file back: %v", when, err)
	}
	if len(area) < len(db.image) || !bytes.Equal(area[:len(db.image)], db.image) {
		t.Fatalf("%s: resident image (%d bytes) differs from the file's record area (%d bytes)", when, len(db.image), len(area))
	}
	if rest := area[len(db.image):]; len(bytes.Trim(rest, "\x00")) != 0 {
		t.Fatalf("%s: the file holds bytes past the image's end", when)
	}
	if !slices.Equal(hdr.buckets, db.buckets) {
		t.Fatalf("%s: bucket table in memory differs from the file's", when)
	}
	if err := verifyImage(db.f, fi.Size()); err != nil {
		t.Fatalf("%s: Verify: %v", when, err)
	}
	if db.Len() != len(model) {
		t.Fatalf("%s: Len = %d, model has %d", when, db.Len(), len(model))
	}
	seen := 0
	err = db.ForEach(func(k, v []byte) error {
		seen++
		if want, ok := model[string(k)]; !ok || !bytes.Equal(v, want) {
			return fmt.Errorf("ForEach yields %.8q = %d bytes, model: %d bytes, present %v", k, len(v), len(want), ok)
		}
		return nil
	})
	if err != nil || seen != len(model) {
		t.Fatalf("%s: ForEach saw %d of %d keys: %v", when, seen, len(model), err)
	}
	if memo := memoSnapshot(t, db); !maps.EqualFunc(memo.pairs, model, bytes.Equal) {
		t.Fatalf("%s: the memo holds %d keys that differ from the model's %d", when, len(memo.pairs), len(model))
	}
	for _, k := range opKeys {
		want, had := model[string(k)]
		v, ok, err := db.Get(k)
		if err != nil || ok != had || !bytes.Equal(v, want) {
			t.Fatalf("%s: Get(%.8q) = %d bytes, %v, %v; model: %d bytes, %v", when, k, len(v), ok, err, len(want), had)
		}
		if has, err := db.Has(k); err != nil || has != had {
			t.Fatalf("%s: Has(%.8q) = %v, %v; model: %v", when, k, has, err, had)
		}
	}
}

// Seeded random op sequences on both flavours: after every step the
// image, the file and a map agree (checkImage).
func TestImageMatchesFileAfterEveryOp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ops.props")
	rng := rand.New(rand.NewSource(18))
	for round := 0; round < 24; round++ {
		ops := make([]byte, 160)
		rng.Read(ops)
		ops[0] = byte(round) // alternate the flavours
		runOps(t, path, ops)
	}
}

// FuzzDBMOps lets the input bytes drive the op sequence of
// TestImageMatchesFileAfterEveryOp.
func FuzzDBMOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 10, 0, 0, 20, 5, 0, 7, 8, 0, 1, 30})    // GDBM: shadow, delete, compact, reopen, put
	f.Add([]byte{1, 0, 0, 210, 0, 1, 200, 0, 2, 3, 5, 1, 8, 7})   // SDBM: a value over the limit, a chain of three keys
	f.Add([]byte{0, 0, 4, 255, 0, 4, 255, 0, 4, 255, 7, 5, 4, 7}) // growth past the preallocation, then down to nothing
	path := filepath.Join(f.TempDir(), "ops.props")
	f.Fuzz(func(t *testing.T, ops []byte) { runOps(t, path, ops) })
}

// Slices kept from a ForEach alias the image. Later writes through the
// same DB must leave them as they were: appends that outgrow the image's
// array, the deletion of a kept key, and a compaction.
func TestForEachSlicesSurviveLaterWrites(t *testing.T) {
	db := openTemp(t, GDBM)
	for i := 0; i < 8; i++ {
		if err := db.Put([]byte(fmt.Sprintf("kept%d", i)), bytes.Repeat([]byte{byte('a' + i)}, 100+i)); err != nil {
			t.Fatal(err)
		}
	}
	type pair struct{ k, v, kCopy, vCopy []byte }
	var kept []pair
	err := db.ForEach(func(k, v []byte) error {
		kept = append(kept, pair{k, v, bytes.Clone(k), bytes.Clone(v)})
		return nil
	})
	if err != nil || len(kept) != 8 {
		t.Fatalf("ForEach: %d pairs, %v", len(kept), err)
	}
	unchanged := func(after string) {
		t.Helper()
		for _, p := range kept {
			if !bytes.Equal(p.k, p.kCopy) || !bytes.Equal(p.v, p.vCopy) {
				t.Fatalf("after %s: the slices kept for %q changed", after, p.kCopy)
			}
		}
	}
	before := cap(db.image)
	for i := 0; cap(db.image) == before || i < 64; i++ {
		if err := db.Put([]byte(fmt.Sprintf("later%d", i)), bytes.Repeat([]byte{0xff}, 700)); err != nil {
			t.Fatal(err)
		}
	}
	unchanged("Puts that moved the image to a larger array")
	if err := db.Put(kept[0].kCopy, []byte("replaced")); err != nil {
		t.Fatal(err)
	}
	if found, err := db.Delete(kept[1].kCopy); err != nil || !found {
		t.Fatalf("Delete = %v, %v", found, err)
	}
	unchanged("an overwrite and a Delete of kept keys")
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := db.Put([]byte(fmt.Sprintf("again%d", i)), bytes.Repeat([]byte{0xee}, 700)); err != nil {
			t.Fatal(err)
		}
	}
	unchanged("Compact and the Puts after it")
}

// Readers use the slices a ForEach handed them after the scan has
// returned, with no lock, while a writer Puts, Deletes and Compacts
// through the same DB. Under -race this is the proof that no write
// touches a byte a reader may hold.
func TestImageReadersAlongsideWriter(t *testing.T) {
	db := openTemp(t, GDBM)
	// Every value is its key's first byte repeated, so a reader can tell
	// a torn or overwritten value without knowing what the writer did.
	key := func(i int) []byte { return []byte(fmt.Sprintf("%c-%d", 'a'+i%26, i)) }
	put := func(i, n int) error { return db.Put(key(i), bytes.Repeat(key(i)[:1], n)) }
	for i := 0; i < 32; i++ {
		if err := put(i, 64); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var keys, vals [][]byte
				err := db.ForEach(func(k, v []byte) error {
					keys, vals = append(keys, k), append(vals, v)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				for i, k := range keys {
					if len(bytes.Trim(vals[i], string(k[:1]))) != 0 {
						t.Errorf("value kept for %q is not all %q", k, k[:1])
						return
					}
				}
				// The memo slot, built and read by every reader at once.
				memo, err := db.Memo(func() (any, int64, error) {
					s := &snapshot{pairs: map[string][]byte{}}
					return s, 0, db.ForEach(func(k, v []byte) error {
						s.pairs[string(k)] = v
						return nil
					})
				})
				if err != nil {
					t.Error(err)
					return
				}
				for k, v := range memo.(*snapshot).pairs {
					if len(bytes.Trim(v, k[:1])) != 0 {
						t.Errorf("memo value for %q is not all %q", k, k[:1])
						return
					}
				}
				if _, _, err := db.Get(key(0)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 400; i++ {
		if err := put(i%48, 64+i%512); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if _, err := db.Delete(key((i / 3) % 48)); err != nil {
				t.Fatal(err)
			}
		}
		if i%100 == 99 {
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	readers.Wait()
}

type fileSnapshot struct {
	mtime time.Time
	data  []byte
}

func fileState(t *testing.T, path string) fileSnapshot {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fileSnapshot{fi.ModTime(), data}
}

// A handle that only read closes without touching the file: no header
// rewrite, so neither the bytes nor the mtime move. A handle that wrote
// still leaves the header accounting behind it.
func TestCleanCloseLeavesFileAlone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clean.props")
	db, err := Open(path, GDBM)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing after writes stored the accounting: a reopen reads the
	// dead bytes of the shadowed record from the header.
	db, err = Open(path, GDBM)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := db.Stats(); err != nil || st.DeadBytes == 0 || st.LiveBytes == 0 {
		t.Fatalf("accounting after a dirty close = %+v, %v; want live and dead bytes recorded", st, err)
	}
	// An mtime no clean close could produce by accident.
	old := fileState(t, path)
	if err := os.Chtimes(path, old.mtime.Add(-time.Hour), old.mtime.Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}
	before := fileState(t, path)
	if _, ok, err := db.Get([]byte("k")); err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if err := db.ForEach(func(_, _ []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if after := fileState(t, path); !after.mtime.Equal(before.mtime) || !bytes.Equal(after.data, before.data) {
		t.Fatalf("a close after reads only changed the file: mtime %v -> %v, bytes equal %v",
			before.mtime, after.mtime, bytes.Equal(after.data, before.data))
	}
}
