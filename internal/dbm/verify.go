package dbm

import (
	"context"
	"fmt"
	"io"
	"os"
)

// Verify checks the structural integrity of the database file at path
// without opening it for use: header magic and flavour byte, a
// plausible bucket table, and every bucket chain under the same decoder
// Open and ForEach use (walkChains) — each record must lie inside the
// file, carry plausible lengths and point strictly backwards. On top of
// what those readers require, every key must hash to the bucket whose
// chain holds it: a misplaced record is yielded by a scan yet invisible
// to Get. Returns nil for a structurally sound file and an error
// wrapping ErrCorrupt otherwise.
//
// Verify is read-only and safe to run on a database another process
// has open, though a concurrent writer can yield spurious findings;
// fsck runs it on quiescent stores.
func Verify(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if err := verifyImage(f, fi.Size()); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verifyImage is Verify over any reader of a database file's bytes.
func verifyImage(r io.ReaderAt, size int64) error {
	hdr, area, err := readImage(r, size, nil)
	if err != nil {
		return err
	}
	if hdr.flavour != GDBM && hdr.flavour != SDBM {
		return fmt.Errorf("%w: unknown flavour byte %d", ErrCorrupt, byte(hdr.flavour))
	}
	return walkChains(context.Background(), hdr.buckets, area, areaStart(hdr.buckets), func(b int, at int64, rec record, _ bool) error {
		if bucketIndex(rec.key, len(hdr.buckets)) != b {
			return fmt.Errorf("bucket %d: %w: key at %d hashes to another bucket", b, ErrCorrupt, at)
		}
		return nil
	})
}
