package store

import (
	"context"
	"encoding/xml"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dbm"
	"repro/internal/store/journal"
)

// stepCrash is the panic payload the test step hooks raise to simulate
// a crash between two steps of a multi-step operation.
type stepCrash struct{ point string }

// crashAt opens a store whose step hook panics the first time the
// named point is reached (an empty point never fires).
func crashAt(t *testing.T, dir, point string) *FSStore {
	t.Helper()
	fired := false
	s, err := NewFSStoreWith(dir, dbm.GDBM, FSOptions{
		StepHook: func(p string) {
			if p == point && !fired {
				fired = true
				panic(stepCrash{p})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustCrash runs f expecting it to panic with a stepCrash. The store
// is deliberately not closed afterwards — a crashed process would not
// have closed it either.
func mustCrash(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if _, ok := r.(stepCrash); !ok {
			t.Fatalf("expected a step-hook crash, got panic %v", r)
		}
	}()
	f()
	t.Fatal("operation completed without crashing")
}

// reopen opens a fresh store over dir, running startup recovery.
func reopen(t *testing.T, dir string) *FSStore {
	t.Helper()
	s, err := NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestOpenSweepsStaleTmp(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	mustMkcol(t, s, "/proj")
	mustPut(t, s, "/proj/doc.txt", "data")
	s.Close()

	// Debris a crashed Put and a crashed dbm.Compact would leave.
	stale := []string{
		filepath.Join(dir, ".put-123456"),
		filepath.Join(dir, "proj", ".put-999"),
		filepath.Join(dir, "proj", propDirName, "doc.txt"+propsExt+".compact"),
	}
	for _, p := range stale {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := reopen(t, dir)
	for _, p := range stale {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("stale temp %s survived reopen (err=%v)", p, err)
		}
	}
	if got := s2.RecoveryStats().SweptTmp; got != int64(len(stale)) {
		t.Errorf("SweptTmp = %d, want %d", got, len(stale))
	}
	// The live document is untouched.
	if _, err := s2.Stat(context.Background(), "/proj/doc.txt"); err != nil {
		t.Errorf("live document lost: %v", err)
	}
}

func TestRecoverRollsBackPutCrashedBeforeRename(t *testing.T) {
	dir := t.TempDir()
	seed, err := NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, seed, "/doc.txt", "v1")
	seed.Close()

	// Crash after the intent is durable but before the staged body is
	// renamed into place: the overwrite must roll back to v1.
	s := crashAt(t, dir, "put.intent")
	mustCrash(t, func() { s.Put(context.Background(), "/doc.txt", strings.NewReader("v2"), "") })

	s2 := reopen(t, dir)
	rc, _, err := s2.Get(context.Background(), "/doc.txt")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(rc)
	rc.Close()
	if string(body) != "v1" {
		t.Fatalf("body after rollback = %q, want v1", body)
	}
	if n := s2.Journal().Len(); n != 0 {
		t.Fatalf("journal still has %d pending intents", n)
	}
	if st := s2.RecoveryStats(); st.RolledBack != 1 {
		t.Fatalf("RolledBack = %d, want 1", st.RolledBack)
	}
}

func TestRecoverRollsForwardPutCrashedAfterRename(t *testing.T) {
	dir := t.TempDir()
	seed, err := NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, seed, "/doc.bin", "v1")
	before, err := seed.Stat(context.Background(), "/doc.bin")
	if err != nil {
		t.Fatal(err)
	}
	seed.Close()

	// Crash right after the rename: content is the new version but the
	// content type and generation bump never ran. Recovery must finish
	// both — otherwise the overwrite reuses the replaced ETag and the
	// explicit content type is lost.
	s := crashAt(t, dir, "put.renamed")
	mustCrash(t, func() { s.Put(context.Background(), "/doc.bin", strings.NewReader("v2"), "chemical/x-nwchem") })

	s2 := reopen(t, dir)
	rc, ri, err := s2.Get(context.Background(), "/doc.bin")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(rc)
	rc.Close()
	if string(body) != "v2" {
		t.Fatalf("body after roll-forward = %q, want v2", body)
	}
	if ri.ContentType != "chemical/x-nwchem" {
		t.Fatalf("content type = %q, want the explicit one", ri.ContentType)
	}
	if ri.ETag == before.ETag {
		t.Fatal("overwrite reused the replaced document's ETag")
	}
	if strings.Count(ri.ETag, "-") != 3 { // inode-size-mtime-generation
		t.Fatalf("ETag %s lacks the generation field", ri.ETag)
	}
	if st := s2.RecoveryStats(); st.RolledForward != 1 {
		t.Fatalf("RolledForward = %d, want 1", st.RolledForward)
	}
}

func TestRecoverCompletesDeleteCrashedMidway(t *testing.T) {
	dir := t.TempDir()
	seed, err := NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, seed, "/doc.txt", "data")
	if err := seed.PropPut(context.Background(), "/doc.txt", xml.Name{Space: "e:", Local: "k"}, []byte("v")); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	// Crash between the content remove and the sidecar remove: the
	// props database would be orphaned forever without recovery.
	s := crashAt(t, dir, "delete.content")
	mustCrash(t, func() { s.Delete(context.Background(), "/doc.txt") })

	pp := filepath.Join(dir, propDirName, "doc.txt"+propsExt)
	if _, err := os.Stat(pp); err != nil {
		t.Fatalf("test setup: sidecar should survive the crash, got %v", err)
	}

	s2 := reopen(t, dir)
	if _, err := s2.Stat(context.Background(), "/doc.txt"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Stat after recovered delete = %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(pp); !os.IsNotExist(err) {
		t.Fatalf("orphaned props database survived recovery (err=%v)", err)
	}
}

func TestRecoverCompletesRenameCrashedMidway(t *testing.T) {
	dir := t.TempDir()
	seed, err := NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	mustMkcol(t, seed, "/a")
	mustMkcol(t, seed, "/b")
	mustPut(t, seed, "/a/doc.txt", "data")
	name := xml.Name{Space: "e:", Local: "k"}
	if err := seed.PropPut(context.Background(), "/a/doc.txt", name, []byte("v")); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	// Crash between the content rename and the sidecar relocation: the
	// torn middle where the document moved but its properties did not.
	s := crashAt(t, dir, "rename.renamed")
	mustCrash(t, func() { s.Rename(context.Background(), "/a/doc.txt", "/b/doc.txt") })

	s2 := reopen(t, dir)
	if _, err := s2.Stat(context.Background(), "/a/doc.txt"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("source still present after recovered rename: %v", err)
	}
	v, ok, err := s2.PropGet(context.Background(), "/b/doc.txt", name)
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("property after recovered rename = (%q, %v, %v), want v", v, ok, err)
	}
}

func TestRecoverRollsBackRenameCrashedBeforeRename(t *testing.T) {
	dir := t.TempDir()
	seed, err := NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, seed, "/src.txt", "data")
	seed.Close()

	s := crashAt(t, dir, "rename.intent")
	mustCrash(t, func() { s.Rename(context.Background(), "/src.txt", "/dst.txt") })

	s2 := reopen(t, dir)
	if _, err := s2.Stat(context.Background(), "/src.txt"); err != nil {
		t.Fatalf("source lost by rolled-back rename: %v", err)
	}
	if _, err := s2.Stat(context.Background(), "/dst.txt"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("destination exists after rolled-back rename: %v", err)
	}
	if st := s2.RecoveryStats(); st.RolledBack != 1 {
		t.Fatalf("RolledBack = %d, want 1", st.RolledBack)
	}
}

func TestRecoverRollsBackCopyCrashedMidway(t *testing.T) {
	dir := t.TempDir()
	seed, err := NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	mustMkcol(t, seed, "/src")
	mustPut(t, seed, "/src/a.txt", "a")
	mustPut(t, seed, "/src/b.txt", "b")
	seed.Close()

	// Crash after the first resource of the tree copy: the destination
	// holds a partial tree that recovery must remove entirely.
	fired := 0
	s, err := NewFSStoreWith(dir, dbm.GDBM, FSOptions{
		StepHook: func(p string) {
			if p == "copy.resource" {
				fired++
				if fired == 2 {
					panic(stepCrash{p})
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustCrash(t, func() {
		s.CopyTreeAtomic(context.Background(), "/src", "/dst", CopyOptions{Recurse: true})
	})

	s2 := reopen(t, dir)
	if _, err := s2.Stat(context.Background(), "/dst"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("partial copy destination survived recovery: %v", err)
	}
	for _, p := range []string{"/src/a.txt", "/src/b.txt"} {
		if _, err := s2.Stat(context.Background(), p); err != nil {
			t.Fatalf("copy source %s damaged: %v", p, err)
		}
	}
}

// TestDeleteSidecarFailureRollsForwardOnRecover exercises the
// partial-failure (not crash) path: the content remove succeeds but the
// sidecar remove fails, Delete returns the error, and the dangling
// intent is finished by the next recovery — full-op, never half-op.
func TestDeleteSidecarFailureRollsForwardOnRecover(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "/doc.txt", "data")
	if err := s.PropPut(context.Background(), "/doc.txt", xml.Name{Space: "e:", Local: "k"}, []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Replace the sidecar with a non-empty directory so os.Remove fails
	// with ENOTEMPTY even when running as root.
	pp := filepath.Join(dir, propDirName, "doc.txt"+propsExt)
	if err := os.Remove(pp); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(pp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pp, "blocker"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := s.Delete(context.Background(), "/doc.txt"); err == nil {
		t.Fatal("Delete succeeded despite the blocked sidecar remove")
	}
	if n := s.Journal().Len(); n != 1 {
		t.Fatalf("pending intents after partial delete = %d, want 1", n)
	}
	s.Close()

	// "Operator clears the obstruction and restarts": recovery finishes
	// the delete.
	if err := os.Remove(filepath.Join(pp, "blocker")); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, dir)
	if _, err := s2.Stat(context.Background(), "/doc.txt"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Stat after recovered delete = %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(pp); !os.IsNotExist(err) {
		t.Fatalf("sidecar survived recovery (err=%v)", err)
	}
}

// TestRenameSidecarFailureRollsForwardOnRecover is the rename twin:
// content moves, the sidecar relocation fails, and recovery finishes
// the move instead of leaving properties attached to the old path.
func TestRenameSidecarFailureRollsForwardOnRecover(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	mustMkcol(t, s, "/a")
	mustMkcol(t, s, "/b")
	mustPut(t, s, "/a/doc.txt", "data")
	name := xml.Name{Space: "e:", Local: "k"}
	if err := s.PropPut(context.Background(), "/a/doc.txt", name, []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Block the destination sidecar slot with a non-empty directory so
	// the props rename fails after the content rename succeeded.
	tpp := filepath.Join(dir, "b", propDirName, "doc.txt"+propsExt)
	if err := os.MkdirAll(tpp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tpp, "blocker"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := s.Rename(context.Background(), "/a/doc.txt", "/b/doc.txt"); err == nil {
		t.Fatal("Rename succeeded despite the blocked sidecar slot")
	}
	if n := s.Journal().Len(); n != 1 {
		t.Fatalf("pending intents after partial rename = %d, want 1", n)
	}
	s.Close()

	if err := os.RemoveAll(tpp); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, dir)
	if _, err := s2.Stat(context.Background(), "/a/doc.txt"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("source still present after recovered rename: %v", err)
	}
	v, ok, err := s2.PropGet(context.Background(), "/b/doc.txt", name)
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("property after recovered rename = (%q, %v, %v), want v", v, ok, err)
	}
}

func TestWriteGateDuringDeferredRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStoreWith(dir, dbm.GDBM, FSOptions{DeferRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.Recovering() {
		t.Fatal("deferred store does not report recovering")
	}
	if _, err := s.Put(context.Background(), "/x.txt", strings.NewReader("x"), ""); !errors.Is(err, ErrRecovering) {
		t.Fatalf("Put during recovery = %v, want ErrRecovering", err)
	}
	if err := s.Mkcol(context.Background(), "/c"); !errors.Is(err, ErrRecovering) {
		t.Fatalf("Mkcol during recovery = %v, want ErrRecovering", err)
	}
	if err := s.PropPut(context.Background(), "/x.txt", xml.Name{Local: "k"}, nil); !errors.Is(err, ErrRecovering) {
		t.Fatalf("PropPut during recovery = %v, want ErrRecovering", err)
	}
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if s.Recovering() {
		t.Fatal("store still recovering after Recover")
	}
	if _, err := s.Put(context.Background(), "/x.txt", strings.NewReader("x"), ""); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
}

// TestMkcolJournalsNothingAndOlderIntentsStillResolve: a mkdir is
// atomic, so Mkcol appends nothing to the journal. A journal an earlier
// version of the store wrote may still hold mkcol intents; recovery
// resolves them as it always has, repairing nothing: a collection that
// was made counts as rolled forward, one that was not as rolled back.
func TestMkcolJournalsNothingAndOlderIntentsStillResolve(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, propDirName, journalFileName)
	before, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	mustMkcol(t, s, "/made")
	if after, err := os.Stat(jpath); err != nil || after.Size() != before.Size() {
		t.Fatalf("Mkcol grew the journal from %d bytes: %v, %v", before.Size(), after, err)
	}
	for _, p := range []string{"/made", "/never"} {
		if _, err := s.Journal().Begin(journal.Record{Op: journal.OpMkcol, Path: p}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2 := reopen(t, dir)
	if n := s2.Journal().Len(); n != 0 {
		t.Fatalf("journal still has %d pending intents", n)
	}
	if st := s2.RecoveryStats(); st.RolledForward != 1 || st.RolledBack != 1 {
		t.Fatalf("recovery rolled %d forward and %d back, want 1 and 1", st.RolledForward, st.RolledBack)
	}
	if ri, err := s2.Stat(context.Background(), "/made"); err != nil || !ri.IsCollection {
		t.Fatalf("/made after recovery = %+v, %v", ri, err)
	}
	if _, err := s2.Stat(context.Background(), "/never"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("/never after recovery: %v, want ErrNotFound", err)
	}
}
