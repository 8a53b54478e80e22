package store_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/dbm"
	"repro/internal/store"
	"repro/internal/store/fsck"
	"repro/internal/store/journal"
)

// fillReader serves body, filling every slice it is given, and counts
// its Read calls. It has no WriteTo, so whoever copies it must bring a
// buffer, and the calls count that buffer's steps.
type fillReader struct {
	body  []byte
	reads int
}

func (r *fillReader) Read(p []byte) (int, error) {
	r.reads++
	if len(r.body) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.body)
	r.body = r.body[n:]
	return n, nil
}

// TestPutStagesAcrossBufferEdges: Put copies its body to the temp file
// in StageBufSize steps. Bodies just short of, at and just past a step,
// and one of many steps, arrive whole however the reader slices them;
// every overwrite still bumps the generation in the ETag; and a body
// that fails mid-way leaves the old document, no temp file, no pending
// intent and a clean fsck.
func TestPutStagesAcrossBufferEdges(t *testing.T) {
	dir := t.TempDir()
	s, err := store.NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer s.Close()
		putAcrossEdges(t, s)
	}()

	filepath.Walk(dir, func(p string, fi os.FileInfo, err error) error {
		if err == nil && store.IsTmpName(fi.Name()) {
			t.Errorf("staging temp left behind: %s", p)
		}
		return nil
	})
	pending, err := journal.ReadPending(filepath.Join(dir, store.MetaDirName, store.JournalFileName))
	if err != nil || len(pending) != 0 {
		t.Errorf("journal: %d pending intents (%v), want none", len(pending), err)
	}
	rep, err := fsck.Check(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("fsck: %v", rep.Findings)
	}
}

func putAcrossEdges(t *testing.T, s *store.FSStore) {
	const B = store.StageBufSize
	ctx := context.Background()
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
		// maxSize bounds the bodies a reader is given. One byte per Read is
		// one write syscall per byte (8 s for this table's bodies), and the
		// staging loop keeps no partial step a one-byte read could break
		// that HalfReader's short reads do not.
		maxSize int
	}{
		{"OneByteReader", iotest.OneByteReader, 1},
		{"HalfReader", iotest.HalfReader, 1 << 30},
		{"DataErrReader", iotest.DataErrReader, 1 << 30},
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, B - 1, B, B + 1, 8<<20 + 1} {
		body := make([]byte, n)
		rng.Read(body)
		p := fmt.Sprintf("/n%d", n)
		check := func(how string) {
			t.Helper()
			rc, _, err := s.Get(ctx, p)
			if err != nil {
				t.Fatalf("%s: Get %s: %v", how, p, err)
			}
			got, err := io.ReadAll(rc)
			rc.Close()
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("%s: %s holds %d bytes (err %v), want the %d put", how, p, len(got), err, n)
			}
		}

		// A reader that fills every slice sees one Read per step and one
		// more for the EOF: the steps are StageBufSize, not io.Copy's 32 KiB.
		fill := &fillReader{body: body}
		if created, err := s.Put(ctx, p, fill, ""); err != nil || !created {
			t.Fatalf("Put %s = (%v, %v), want a creation", p, created, err)
		}
		if want := (n+B-1)/B + 1; fill.reads != want {
			t.Errorf("a %d-byte Put made %d Reads, want %d", n, fill.reads, want)
		}
		check("created")

		gen := 0
		for _, rd := range readers {
			if n > rd.maxSize {
				continue
			}
			before, err := s.Stat(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			if created, err := s.Put(ctx, p, rd.wrap(bytes.NewReader(body)), ""); err != nil || created {
				t.Fatalf("%s overwrite of %s = (%v, %v), want a replacement", rd.name, p, created, err)
			}
			check(rd.name)
			gen++
			after, err := s.Stat(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			if after.ETag == before.ETag || !strings.HasSuffix(after.ETag, fmt.Sprintf("-%x\"", gen)) {
				t.Errorf("%s overwrite of %s: ETag %s → %s, want generation %d", rd.name, p, before.ETag, after.ETag, gen)
			}
		}

		// A body that breaks one byte past a step boundary.
		if n > B {
			before, err := s.Stat(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			errCut := errors.New("connection cut")
			broken := struct{ io.Reader }{io.MultiReader(bytes.NewReader(body[:B+1]), iotest.ErrReader(errCut))}
			if _, err := s.Put(ctx, p, broken, ""); !errors.Is(err, errCut) {
				t.Fatalf("Put of a body cut at %d bytes = %v, want %v", B+1, err, errCut)
			}
			check("cut")
			if after, err := s.Stat(ctx, p); err != nil || after.ETag != before.ETag {
				t.Errorf("a failed Put moved %s's ETag %s → %s (%v)", p, before.ETag, after.ETag, err)
			}
		}
	}
}
