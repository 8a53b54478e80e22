package chaos

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/dbm"
	"repro/internal/store"
	"repro/internal/store/fsck"
)

// maxSteps bounds the per-operation crash loop; every instrumented
// operation has far fewer step points than this.
const maxSteps = 20

var propK = xml.Name{Space: "urn:ecce", Local: "owner"}

// matrixCase describes one operation of the crash matrix: how to seed
// a fresh store, how to run the operation, and what its pre-op and
// post-op states look like. After a crash at any step plus recovery,
// the store must satisfy exactly pre or post — nothing in between.
type matrixCase struct {
	name string
	op   string // armed step prefix ("put", "delete", ...)
	seed func(t *testing.T, s *store.FSStore)
	run  func(s *store.FSStore)
	pre  func(s *store.FSStore) error
	post func(s *store.FSStore) error
}

func readBody(s *store.FSStore, p string) (string, error) {
	rc, _, err := s.Get(context.Background(), p)
	if err != nil {
		return "", err
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	return string(b), err
}

func wantBody(s *store.FSStore, p, want string) error {
	got, err := readBody(s, p)
	if err != nil {
		return fmt.Errorf("%s: %w", p, err)
	}
	if got != want {
		return fmt.Errorf("%s body = %q, want %q", p, got, want)
	}
	return nil
}

func wantGone(s *store.FSStore, p string) error {
	if _, err := s.Stat(context.Background(), p); !errors.Is(err, store.ErrNotFound) {
		return fmt.Errorf("%s still exists (err=%v)", p, err)
	}
	return nil
}

func wantProp(s *store.FSStore, p, want string) error {
	_, props, err := s.StatWithProps(context.Background(), p)
	v, ok := props[propK]
	if err != nil {
		return fmt.Errorf("%s prop: %w", p, err)
	}
	if !ok || string(v) != want {
		return fmt.Errorf("%s prop = (%q, %v), want %q", p, v, ok, want)
	}
	return nil
}

func wantType(s *store.FSStore, p, want string) error {
	ri, err := s.Stat(context.Background(), p)
	if err != nil {
		return err
	}
	if ri.ContentType != want {
		return fmt.Errorf("%s content type = %q, want %q", p, ri.ContentType, want)
	}
	return nil
}

func both(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func matrixCases() []matrixCase {
	return []matrixCase{
		{
			name: "put-create",
			op:   "put",
			seed: func(t *testing.T, s *store.FSStore) { mustOK(t, s.Mkcol(context.Background(), "/dir")) },
			run: func(s *store.FSStore) {
				s.Put(context.Background(), "/dir/new.bin", strings.NewReader("NEW"), "chemical/x-nwchem")
			},
			pre: func(s *store.FSStore) error { return wantGone(s, "/dir/new.bin") },
			post: func(s *store.FSStore) error {
				if err := wantBody(s, "/dir/new.bin", "NEW"); err != nil {
					return err
				}
				ri, err := s.Stat(context.Background(), "/dir/new.bin")
				if err != nil {
					return err
				}
				if ri.ContentType != "chemical/x-nwchem" {
					return fmt.Errorf("content type = %q", ri.ContentType)
				}
				return nil
			},
		},
		{
			name: "put-overwrite",
			op:   "put",
			seed: func(t *testing.T, s *store.FSStore) {
				mustPutDoc(t, s, "/doc.bin", "v1")
			},
			run: func(s *store.FSStore) {
				s.Put(context.Background(), "/doc.bin", strings.NewReader("v2"), "chemical/x-nwchem")
			},
			pre: func(s *store.FSStore) error { return wantBody(s, "/doc.bin", "v1") },
			post: func(s *store.FSStore) error {
				if err := wantBody(s, "/doc.bin", "v2"); err != nil {
					return err
				}
				ri, err := s.Stat(context.Background(), "/doc.bin")
				if err != nil {
					return err
				}
				if ri.ContentType != "chemical/x-nwchem" {
					return fmt.Errorf("content type = %q", ri.ContentType)
				}
				// The overwrite generation must be present, or If-Match
				// could validate a stale ETag after recovery.
				if strings.Count(ri.ETag, "-") != 3 { // inode-size-mtime-generation
					return fmt.Errorf("ETag %s lacks the generation field", ri.ETag)
				}
				return nil
			},
		},
		{
			// An overwrite with the type the extension implies removes the
			// one kept before: recovery rolling it forward must too.
			name: "put-overwrite-inferred-type",
			op:   "put",
			seed: func(t *testing.T, s *store.FSStore) {
				_, err := s.Put(context.Background(), "/doc", strings.NewReader("v1"), "chemical/x-nwchem")
				mustOK(t, err)
			},
			run: func(s *store.FSStore) {
				s.Put(context.Background(), "/doc", strings.NewReader("v2"), "application/octet-stream")
			},
			pre: func(s *store.FSStore) error {
				return both(wantBody(s, "/doc", "v1"), wantType(s, "/doc", "chemical/x-nwchem"))
			},
			post: func(s *store.FSStore) error {
				return both(wantBody(s, "/doc", "v2"), wantType(s, "/doc", "application/octet-stream"))
			},
		},
		{
			name: "delete-doc",
			op:   "delete",
			seed: func(t *testing.T, s *store.FSStore) {
				mustPutDoc(t, s, "/doc.txt", "data")
				mustOK(t, s.PropPut(context.Background(), "/doc.txt", propK, []byte("me")))
			},
			run: func(s *store.FSStore) { s.Delete(context.Background(), "/doc.txt") },
			pre: func(s *store.FSStore) error {
				return both(wantBody(s, "/doc.txt", "data"), wantProp(s, "/doc.txt", "me"))
			},
			post: func(s *store.FSStore) error { return wantGone(s, "/doc.txt") },
		},
		{
			name: "delete-tree",
			op:   "delete",
			seed: func(t *testing.T, s *store.FSStore) {
				mustOK(t, s.Mkcol(context.Background(), "/dir"))
				mustPutDoc(t, s, "/dir/a.txt", "a")
				mustOK(t, s.PropPut(context.Background(), "/dir", propK, []byte("me")))
			},
			run: func(s *store.FSStore) { s.Delete(context.Background(), "/dir") },
			pre: func(s *store.FSStore) error {
				return both(wantBody(s, "/dir/a.txt", "a"), wantProp(s, "/dir", "me"))
			},
			post: func(s *store.FSStore) error { return wantGone(s, "/dir") },
		},
		{
			name: "rename-doc",
			op:   "rename",
			seed: func(t *testing.T, s *store.FSStore) {
				mustOK(t, s.Mkcol(context.Background(), "/a"))
				mustOK(t, s.Mkcol(context.Background(), "/b"))
				mustPutDoc(t, s, "/a/doc.txt", "data")
				mustOK(t, s.PropPut(context.Background(), "/a/doc.txt", propK, []byte("me")))
			},
			run: func(s *store.FSStore) { s.Rename(context.Background(), "/a/doc.txt", "/b/doc.txt") },
			pre: func(s *store.FSStore) error {
				return both(wantBody(s, "/a/doc.txt", "data"),
					wantProp(s, "/a/doc.txt", "me"), wantGone(s, "/b/doc.txt"))
			},
			post: func(s *store.FSStore) error {
				return both(wantBody(s, "/b/doc.txt", "data"),
					wantProp(s, "/b/doc.txt", "me"), wantGone(s, "/a/doc.txt"))
			},
		},
		{
			name: "rename-tree",
			op:   "rename",
			seed: func(t *testing.T, s *store.FSStore) {
				mustOK(t, s.Mkcol(context.Background(), "/a"))
				mustPutDoc(t, s, "/a/doc.txt", "data")
			},
			run: func(s *store.FSStore) { s.Rename(context.Background(), "/a", "/c") },
			pre: func(s *store.FSStore) error {
				return both(wantBody(s, "/a/doc.txt", "data"), wantGone(s, "/c"))
			},
			post: func(s *store.FSStore) error {
				return both(wantBody(s, "/c/doc.txt", "data"), wantGone(s, "/a"))
			},
		},
		{
			name: "copy-tree",
			op:   "copy",
			seed: func(t *testing.T, s *store.FSStore) {
				mustOK(t, s.Mkcol(context.Background(), "/src"))
				mustPutDoc(t, s, "/src/a.txt", "a")
				mustPutDoc(t, s, "/src/b.txt", "b")
				mustOK(t, s.PropPut(context.Background(), "/src/a.txt", propK, []byte("me")))
			},
			run: func(s *store.FSStore) {
				s.CopyTreeAtomic(context.Background(), "/src", "/dst", store.CopyOptions{Recurse: true})
			},
			pre: func(s *store.FSStore) error {
				return both(wantGone(s, "/dst"),
					wantBody(s, "/src/a.txt", "a"), wantBody(s, "/src/b.txt", "b"))
			},
			post: func(s *store.FSStore) error {
				return both(wantBody(s, "/dst/a.txt", "a"), wantBody(s, "/dst/b.txt", "b"),
					wantProp(s, "/dst/a.txt", "me"))
			},
		},
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func mustPutDoc(t *testing.T, s *store.FSStore, p, body string) {
	t.Helper()
	if _, err := s.Put(context.Background(), p, strings.NewReader(body), ""); err != nil {
		t.Fatal(err)
	}
}

// TestCrashPointMatrix is the tentpole's proof: for every step of
// every multi-step operation, crashing at that step and then reopening
// the store (startup recovery) must leave every resource in its exact
// pre-op or post-op state and the store fsck-clean. The loop arms step
// k and increments until the operation completes uncrashed, so no step
// list is hard-coded — adding a step to an operation automatically
// widens its matrix row.
func TestCrashPointMatrix(t *testing.T) {
	for _, mc := range matrixCases() {
		t.Run(mc.name, func(t *testing.T) {
			steps := 0
			for k := 1; k <= maxSteps; k++ {
				dir := t.TempDir()
				seedStore, err := store.NewFSStore(dir, dbm.GDBM)
				mustOK(t, err)
				mc.seed(t, seedStore)
				mustOK(t, seedStore.Close())

				cp := NewCrashPoint()
				s, err := store.NewFSStoreWith(dir, dbm.GDBM, store.FSOptions{
					StepHook: cp.Hook,
				})
				mustOK(t, err)
				cp.Arm(mc.op, k)
				crashed, _ := Run(func() { mc.run(s) })
				if !crashed {
					// k exceeded the operation's step count: matrix row done.
					s.Close()
					steps = k - 1
					break
				}
				// A real crash would not close the store; neither do we.
				// Reopen the directory: startup recovery must resolve the
				// interrupted operation.
				fired := cp.Fired()
				s2, err := store.NewFSStore(dir, dbm.GDBM)
				if err != nil {
					t.Fatalf("crash at %s: reopen: %v", fired.Point, err)
				}
				preErr := mc.pre(s2)
				postErr := mc.post(s2)
				if preErr != nil && postErr != nil {
					t.Errorf("crash at %s (k=%d): torn state:\n  not pre-op:  %v\n  not post-op: %v",
						fired.Point, k, preErr, postErr)
				}
				s2.Close()
				rep, err := fsck.Check(dir, dbm.GDBM)
				if err != nil {
					t.Fatalf("crash at %s: fsck: %v", fired.Point, err)
				}
				if !rep.Clean() {
					t.Errorf("crash at %s (k=%d): fsck findings after recovery:\n%v",
						fired.Point, k, rep.Findings)
				}
			}
			if steps == 0 {
				t.Fatalf("operation %s never completed within %d steps", mc.name, maxSteps)
			}
			t.Logf("%s: %d crash points exercised", mc.name, steps)
		})
	}
}

// TestCrashPointArming covers the injector itself: only the armed
// operation's steps count, exactly one crash fires per arming, and
// Fired reports it.
func TestCrashPointArming(t *testing.T) {
	cp := NewCrashPoint()
	cp.Arm("put", 2)
	cp.Hook("delete.start") // other ops do not count
	cp.Hook("put.start")
	crashed, got := Run(func() { cp.Hook("put.staged") })
	if !crashed || got.Point != "put.staged" || got.Hit != 2 {
		t.Fatalf("crash = (%v, %+v), want put.staged hit 2", crashed, got)
	}
	if f := cp.Fired(); f == nil || f.Point != "put.staged" {
		t.Fatalf("Fired = %+v", f)
	}
	// Disarmed after firing: further steps pass.
	if crashed, _ := Run(func() { cp.Hook("put.staged") }); crashed {
		t.Fatal("injector fired twice on one arming")
	}
}
