package dbm

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// image builds a database file by hand: nb buckets and the given
// records appended in order, each linked in front of its bucket's
// chain exactly as Put does. Small bucket counts keep the checked-in
// corpus entries (testdata/fuzz/FuzzDBMRead) a few hundred bytes.
func image(flavour Flavour, nb int, recs ...[2]string) []byte {
	img := make([]byte, headerSize+int64(nb)*8)
	copy(img, magic)
	img[len(magic)] = byte(flavour)
	binary.LittleEndian.PutUint32(img[len(magic)+4:], uint32(nb))
	for _, kv := range recs {
		k, v := []byte(kv[0]), []byte(kv[1])
		head := img[headerSize+int64(bucketIndex(k, nb))*8:]
		rec := make([]byte, recHdrSize)
		copy(rec, head[:8]) // prev = current head
		binary.LittleEndian.PutUint32(rec[9:], uint32(len(k)))
		binary.LittleEndian.PutUint32(rec[13:], uint32(len(v)))
		binary.LittleEndian.PutUint64(head, uint64(len(img)))
		img = append(append(append(img, rec...), k...), v...)
	}
	return img
}

// FuzzDBMRead writes arbitrary bytes as a database file. No reader may
// panic or hang on them, and a file Verify passes must open, scan, and
// answer Get for every key the scan yields with the value it yielded.
func FuzzDBMRead(f *testing.F) {
	f.Add([]byte{})
	f.Add(image(GDBM, 4))
	f.Add(image(SDBM, 2, [2]string{"a", "1"}, [2]string{"b", "2"}, [2]string{"a", "3"}, [2]string{"c", ""}))
	self := image(GDBM, 1, [2]string{"k", "v"})
	binary.LittleEndian.PutUint64(self[headerSize+8:], uint64(headerSize+8)) // prev == own offset
	f.Add(self)

	// One file per worker process, overwritten per input, and no fsync
	// on the way out: the budget goes to mutation, not to the disk.
	path := filepath.Join(f.TempDir(), "f.props")
	f.Fuzz(func(t *testing.T, img []byte) {
		sound := verifyImage(bytes.NewReader(img), int64(len(img))) == nil
		if len(img) == 0 {
			return // Open would create a database, not read one
		}
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		flavour := GDBM
		if len(img) > len(magic) && img[len(magic)] == byte(SDBM) {
			flavour = SDBM
		}
		db, err := Open(path, flavour)
		if err != nil {
			if sound {
				t.Fatalf("Verify passed but Open failed: %v", err)
			}
			return
		}
		defer db.f.Close()
		type pair struct{ k, v []byte }
		var pairs []pair
		err = db.ForEach(func(k, v []byte) error {
			pairs = append(pairs, pair{k, v})
			return nil
		})
		if err != nil && sound {
			t.Fatalf("Verify passed but ForEach failed: %v", err)
		}
		for _, p := range pairs {
			v, ok, err := db.Get(p.k)
			if sound && (err != nil || !ok || !bytes.Equal(v, p.v)) {
				t.Fatalf("ForEach yielded %q=%q but Get = %q, %v, %v", p.k, p.v, v, ok, err)
			}
		}
		db.Get([]byte("a"))
		db.Get(nil)
	})
}
