package fsck

import (
	"context"
	"encoding/xml"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dbm"
	"repro/internal/store"
	"repro/internal/store/journal"
)

// seedStore builds a small healthy store: a project tree with
// documents, properties, and an overwrite (so a generation exists).
func seedStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s, err := store.NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Mkcol(context.Background(), "/proj"))
	_, err = s.Put(context.Background(), "/proj/input.nw", strings.NewReader("geometry"), "")
	must(err)
	_, err = s.Put(context.Background(), "/proj/input.nw", strings.NewReader("geometry v2"), "")
	must(err)
	_, err = s.Put(context.Background(), "/proj/out.log", strings.NewReader("ok"), "chemical/x-log")
	must(err)
	must(s.PropPut(context.Background(), "/proj", xml.Name{Space: "urn:ecce", Local: "owner"}, []byte("collection prop")))
	return dir
}

func TestCheckCleanStore(t *testing.T) {
	dir := seedStore(t)
	rep, err := Check(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("findings on a healthy store:\n%v", rep.Findings)
	}
	if rep.Databases == 0 || rep.Resources == 0 {
		t.Fatalf("report did not walk the store: %+v", rep)
	}
}

// Writes through property databases the handle cache has parked —
// a dead property and the generation an overwrite bumps — reopen their
// files, survive the store being closed and opened again, and leave a
// store fsck finds clean.
func TestParkedWritesSurviveReopenAndCheckClean(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := store.NewFSStoreWith(dir, dbm.GDBM, store.FSOptions{HandleCacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	name := xml.Name{Space: "urn:ecce", Local: "state"}
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("/d%d.out", i)
		if _, err := s.Put(ctx, p, strings.NewReader("first"), ""); err != nil {
			t.Fatal(err)
		}
		if err := s.PropPut(ctx, p, name, []byte("<state>created</state>")); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.CacheStats(); st.Open > 2 || st.Evictions != 0 {
		t.Fatalf("eight databases at capacity 2: %+v; want at most 2 open files and no eviction", st)
	}
	// d0's database is the oldest: parked since the third document.
	if err := s.PropPut(ctx, "/d0.out", name, []byte("<state>written while parked</state>")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(ctx, "/d1.out", strings.NewReader("second"), ""); err != nil {
		t.Fatal(err)
	}
	d1, err := s.Stat(ctx, "/d1.out")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Check(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("findings after writes through parked databases:\n%v", rep.Findings)
	}
	s, err = store.NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if v, ok, err := s.PropGet(ctx, "/d0.out", name); err != nil || !ok || string(v) != "<state>written while parked</state>" {
		t.Fatalf("after reopening the store: PropGet = %q, %v, %v", v, ok, err)
	}
	if ri, err := s.Stat(ctx, "/d1.out"); err != nil || ri.ETag != d1.ETag {
		t.Fatalf("after reopening the store: ETag %q, %v; want %q (the overwrite's generation kept)", ri.ETag, err, d1.ETag)
	}
}

func TestCheckAndRepairCorruptedFixture(t *testing.T) {
	dir := seedStore(t)

	// 1. Orphan sidecar: a props database whose document is gone.
	orphan := filepath.Join(dir, "proj", store.MetaDirName, "ghost.txt"+store.PropsExt)
	db, err := dbm.Open(orphan, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("P:k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// 2. Stranded staging temporaries.
	tmp1 := filepath.Join(dir, "proj", ".put-555")
	if err := os.WriteFile(tmp1, []byte("debris"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp2 := filepath.Join(dir, "proj", store.MetaDirName, "out.log"+store.PropsExt+".compact")
	if err := os.WriteFile(tmp2, []byte("debris"), 0o644); err != nil {
		t.Fatal(err)
	}

	// 3. Dangling journal intent: a delete that never finished — its
	// content file is already gone, the sidecar survives.
	victim := filepath.Join(dir, "proj", "out.log")
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}
	jp := filepath.Join(dir, store.MetaDirName, store.JournalFileName)
	j, err := journal.Open(jp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Begin(journal.Record{Op: journal.OpDelete, Path: "/proj/out.log"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// 4. Corrupt database: flip the magic of the collection sidecar.
	corrupt := filepath.Join(dir, "proj", store.MetaDirName, store.CollectionPropsBase+store.PropsExt)
	data, err := os.ReadFile(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Check(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := map[string]int{
		KindOrphanProps:    1, // ghost.txt.props (out.log.props becomes orphaned too, but by the dangling delete)
		KindStrandedTmp:    2,
		KindDanglingIntent: 1,
		KindCorruptDBM:     1,
	}
	got := map[string]int{}
	for _, f := range rep.Findings {
		got[f.Kind]++
	}
	for kind, want := range wantKinds {
		if got[kind] < want {
			t.Errorf("findings[%s] = %d, want >= %d (all: %v)", kind, got[kind], want, rep.Findings)
		}
	}

	// Repair restores every invariant.
	rep, err = Repair(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("findings after repair:\n%v", rep.Findings)
	}
	if rep.Repaired == 0 {
		t.Fatal("repair fixed nothing")
	}
	// The quarantined database is kept for the operator.
	if _, err := os.Stat(corrupt + ".corrupt"); err != nil {
		t.Errorf("corrupt database was not quarantined: %v", err)
	}
	// The dangling delete rolled forward: sidecar gone with the doc.
	if _, err := os.Stat(filepath.Join(dir, "proj", store.MetaDirName, "out.log"+store.PropsExt)); !os.IsNotExist(err) {
		t.Errorf("recovered delete left its sidecar (err=%v)", err)
	}

	// The untouched document survived intact.
	s, err := store.NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Stat(context.Background(), "/proj/input.nw"); err != nil {
		t.Errorf("healthy document damaged by repair: %v", err)
	}
}

func TestCheckFlagsBadGeneration(t *testing.T) {
	dir := seedStore(t)
	pp := filepath.Join(dir, "proj", store.MetaDirName, "input.nw"+store.PropsExt)
	db, err := dbm.Open(pp, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put(store.GenerationKey(), []byte("not-a-number")); err != nil {
		t.Fatal(err)
	}
	db.Close()

	rep, err := Check(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Kind == KindBadGeneration {
			found = true
		}
	}
	if !found {
		t.Fatalf("bad generation not flagged: %v", rep.Findings)
	}

	rep, err = Repair(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("findings after repair:\n%v", rep.Findings)
	}
}
