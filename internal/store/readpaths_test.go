package store

import (
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dbm"
)

// snapshotEntry is what a resource looks like through a store, less
// what the stores may differ in: ETags and times.
type snapshotEntry struct {
	IsCollection bool
	Size         int64
	ContentType  string
	Props        map[string]string
	Body         string
}

// readPathsAgree checks, for every resource under "/", that Stat, Get's
// info, StatWithProps and the parent's ListWithProps member describe it
// alike, and returns the store's snapshot.
func readPathsAgree(t *testing.T, s Store) map[string]snapshotEntry {
	t.Helper()
	ctx := context.Background()
	out := map[string]snapshotEntry{}
	var walk func(p string, listed *MemberProps)
	walk = func(p string, listed *MemberProps) {
		st, err := s.Stat(ctx, p)
		if err != nil {
			t.Fatalf("Stat %s: %v", p, err)
		}
		sw, props, err := s.StatWithProps(ctx, p)
		if err != nil {
			t.Fatalf("StatWithProps %s: %v", p, err)
		}
		if !reflect.DeepEqual(st, sw) {
			t.Errorf("%s: Stat %+v, StatWithProps %+v", p, st, sw)
		}
		if listed != nil {
			if !reflect.DeepEqual(listed.Info, st) {
				t.Errorf("%s: listed %+v, Stat %+v", p, listed.Info, st)
			}
			if !reflect.DeepEqual(listed.Props, props) {
				t.Errorf("%s: listed properties %v, StatWithProps %v", p, listed.Props, props)
			}
		}
		e := snapshotEntry{IsCollection: st.IsCollection, Props: map[string]string{}}
		for n, v := range props {
			e.Props[n.Space+" "+n.Local] = string(v)
		}
		if !st.IsCollection {
			rc, gi, err := s.Get(ctx, p)
			if err != nil {
				t.Fatalf("Get %s: %v", p, err)
			}
			body, err := io.ReadAll(rc)
			rc.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gi, st) {
				t.Errorf("%s: Get %+v, Stat %+v", p, gi, st)
			}
			e.Size, e.ContentType, e.Body = st.Size, st.ContentType, string(body)
		}
		out[p] = e
		if !st.IsCollection {
			return
		}
		members, err := s.ListWithProps(ctx, p)
		if err != nil {
			t.Fatalf("ListWithProps %s: %v", p, err)
		}
		for i := range members {
			walk(members[i].Info.Path, &members[i])
		}
	}
	walk("/", nil)
	return out
}

// TestReadPathsAgree runs one script of writes on every store. After
// each step, every read path of a store describes each resource alike,
// and the stores agree with each other on everything but ETags and
// times.
func TestReadPathsAgree(t *testing.T) {
	ctx := context.Background()
	k := xml.Name{Space: "urn:ecce", Local: "k"}
	k2 := xml.Name{Space: "urn:ecce", Local: "k2"}
	put := func(p, body, ctype string) func(Store) error {
		return func(s Store) error {
			_, err := s.Put(ctx, p, strings.NewReader(body), ctype)
			return err
		}
	}
	prop := func(p string, name xml.Name, v string) func(Store) error {
		return func(s Store) error { return s.PropPut(ctx, p, name, []byte(v)) }
	}
	copyTree := func(src, dst string, recurse bool) func(Store) error {
		return func(s Store) error { return s.CopyTreeAtomic(ctx, src, dst, CopyOptions{Recurse: recurse}) }
	}
	steps := []struct {
		name string
		run  func(Store) error
	}{
		{"mkcol /c", func(s Store) error { return s.Mkcol(ctx, "/c") }},
		{"put /c/a", put("/c/a", "one", "text/plain")},
		{"overwrite /c/a with its inferred type", put("/c/a", "two!", "application/octet-stream")},
		{"overwrite /c/a keeping its type", put("/c/a", "three", "")},
		{"proppatch /c/a", prop("/c/a", k, "<v>a</v>")},
		{"proppatch /c", prop("/c", k, "dir")},
		{"mkcol /c/sub", func(s Store) error { return s.Mkcol(ctx, "/c/sub") }},
		{"put /c/sub/b", put("/c/sub/b", "bee", "chemical/x-xyz")},
		{"proppatch /c/sub/b", prop("/c/sub/b", k2, "w")},
		{"proppatch /c/sub", prop("/c/sub", k2, "s")},
		{"copy /c to /d at depth 0", copyTree("/c", "/d", false)},
		{"copy /c to /e at depth infinity", copyTree("/c", "/e", true)},
		{"remove a copied property", func(s Store) error { return s.PropDelete(ctx, "/e/a", k) }},
		{"move /e/sub to /f", func(s Store) error { return s.Rename(ctx, "/e/sub", "/f") }},
		{"move /c/a to /d/a", func(s Store) error { return s.Rename(ctx, "/c/a", "/d/a") }},
		{"delete /d/a", func(s Store) error { return s.Delete(ctx, "/d/a") }},
		{"delete /e", func(s Store) error { return s.Delete(ctx, "/e") }},
	}
	stores := map[string]Store{"Mem": NewMemStore()}
	for name, fl := range map[string]dbm.Flavour{"FS-GDBM": dbm.GDBM, "FS-SDBM": dbm.SDBM} {
		s, err := NewFSStore(t.TempDir(), fl)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		stores[name] = s
	}
	for _, step := range steps {
		snaps := map[string]map[string]snapshotEntry{}
		for name, s := range stores {
			if err := step.run(s); err != nil {
				t.Fatalf("%s: %s: %v", step.name, name, err)
			}
			snaps[name] = readPathsAgree(t, s)
		}
		for name, snap := range snaps {
			if !reflect.DeepEqual(snap, snaps["Mem"]) {
				t.Fatalf("after %s, %s and Mem differ:\n%s", step.name, name, diffSnapshots(snap, snaps["Mem"]))
			}
		}
	}
}

func diffSnapshots(a, b map[string]snapshotEntry) string {
	var out []string
	for p, e := range a {
		if f, ok := b[p]; !ok || !reflect.DeepEqual(e, f) {
			out = append(out, fmt.Sprintf("  %s: %+v vs %+v", p, e, b[p]))
		}
	}
	for p := range b {
		if _, ok := a[p]; !ok {
			out = append(out, fmt.Sprintf("  %s: missing vs %+v", p, b[p]))
		}
	}
	return strings.Join(out, "\n")
}
