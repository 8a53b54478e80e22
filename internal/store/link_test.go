package store

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/dbm"
)

// TestCopyIsALink: a copied document is a second name for its source's
// file. The copy runs no step of Put and no staging temporary exists at
// any of its steps.
func TestCopyIsALink(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	copying := false
	var steps []string
	s, err := NewFSStoreWith(dir, dbm.GDBM, FSOptions{StepHook: func(p string) {
		if !copying {
			return
		}
		steps = append(steps, p)
		filepath.WalkDir(dir, func(q string, d os.DirEntry, err error) error {
			if err == nil && strings.HasPrefix(d.Name(), ".put-") {
				t.Errorf("staging temporary %s at step %s", q, p)
			}
			return nil
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustMkcol(t, s, "/src")
	mustPut(t, s, "/src/a.txt", strings.Repeat("a", 4<<10))
	mustPut(t, s, "/src/b.out", strings.Repeat("b", 64<<10))
	copying = true
	if err := s.CopyTreeAtomic(ctx, "/src", "/dst", CopyOptions{Recurse: true}); err != nil {
		t.Fatal(err)
	}
	copying = false
	if slices.ContainsFunc(steps, func(p string) bool { return strings.HasPrefix(p, "put.") }) {
		t.Errorf("the copy ran Put's steps: %v", steps)
	}
	for _, name := range []string{"a.txt", "b.out"} {
		src, err := os.Stat(filepath.Join(dir, "src", name))
		if err != nil {
			t.Fatal(err)
		}
		dst, err := os.Stat(filepath.Join(dir, "dst", name))
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(src, dst) {
			t.Errorf("/dst/%s is not a link to /src/%s", name, name)
		}
	}
}

// TestLinkedCopyOutlivesEitherName: a copied document carries its
// source's last-modified time, and overwriting or deleting either name
// leaves the other name's bytes and ETag as they were.
func TestLinkedCopyOutlivesEitherName(t *testing.T) {
	ctx := context.Background()
	eachStore(t, func(t *testing.T, s Store) {
		read := func(p string) (string, string) {
			t.Helper()
			rc, ri, err := s.Get(ctx, p)
			if err != nil {
				t.Fatalf("Get %s: %v", p, err)
			}
			defer rc.Close()
			b, err := io.ReadAll(rc)
			if err != nil {
				t.Fatal(err)
			}
			return string(b), ri.ETag
		}
		for i, c := range []struct {
			change, keep string
			del          bool
		}{
			{"src", "dst", false}, {"dst", "src", false},
			{"src", "dst", true}, {"dst", "src", true},
		} {
			dir := "/" + string(rune('a'+i))
			mustMkcol(t, s, dir)
			mustPut(t, s, dir+"/src", "body")
			if err := s.CopyTreeAtomic(ctx, dir+"/src", dir+"/dst", CopyOptions{}); err != nil {
				t.Fatal(err)
			}
			src, err := s.Stat(ctx, dir+"/src")
			if err != nil {
				t.Fatal(err)
			}
			if dst, err := s.Stat(ctx, dir+"/dst"); err != nil || !dst.ModTime.Equal(src.ModTime) {
				t.Errorf("the copy's ModTime is %v (%v), its source's %v", dst.ModTime, err, src.ModTime)
			}
			body, etag := read(dir + "/" + c.keep)
			if c.del {
				if err := s.Delete(ctx, dir+"/"+c.change); err != nil {
					t.Fatal(err)
				}
			} else {
				mustPut(t, s, dir+"/"+c.change, "new!")
			}
			if b, e := read(dir + "/" + c.keep); b != body || e != etag {
				t.Errorf("%s after %s of %s: %q %s, was %q %s", c.keep,
					map[bool]string{false: "an overwrite", true: "a delete"}[c.del], c.change, b, e, body, etag)
			}
		}
	})
}

// TestDiskUsageCountsALinkedCopyOnce: a Depth-infinity copy of a
// collection shares its document's body, and DiskUsage counts the
// shared file once, as du does.
func TestDiskUsageCountsALinkedCopyOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustMkcol(t, s, "/c")
	mustPut(t, s, "/c/big", strings.Repeat("x", 64<<10))
	before, err := DiskUsage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CopyTreeAtomic(context.Background(), "/c", "/d", CopyOptions{Recurse: true}); err != nil {
		t.Fatal(err)
	}
	after, err := DiskUsage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if grew := after - before; grew >= 64<<10 {
		t.Errorf("DiskUsage grew by %d bytes for a copy of a 64 KiB document", grew)
	}
}
