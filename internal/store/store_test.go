package store

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dbm"
)

// eachStore runs fn against every Store implementation.
func eachStore(t *testing.T, fn func(t *testing.T, s Store)) {
	t.Helper()
	t.Run("Mem", func(t *testing.T) { fn(t, NewMemStore()) })
	t.Run("FS-GDBM", func(t *testing.T) {
		s, err := NewFSStore(t.TempDir(), dbm.GDBM)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fn(t, s)
	})
	t.Run("FS-SDBM", func(t *testing.T) {
		s, err := NewFSStore(t.TempDir(), dbm.SDBM)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fn(t, s)
	})
}

func mustPut(t *testing.T, s Store, p, body string) {
	t.Helper()
	if _, err := s.Put(context.Background(), p, strings.NewReader(body), ""); err != nil {
		t.Fatalf("Put %s: %v", p, err)
	}
}

func mustMkcol(t *testing.T, s Store, p string) {
	t.Helper()
	if err := s.Mkcol(context.Background(), p); err != nil {
		t.Fatalf("Mkcol %s: %v", p, err)
	}
}

// propGet reads one dead property through the batched read, the only
// property read Store has.
func propGet(ctx context.Context, s Store, p string, name xml.Name) ([]byte, bool, error) {
	_, props, err := s.StatWithProps(ctx, p)
	v, ok := props[name]
	return v, ok, err
}

// listInfos is ListWithProps without the properties.
func listInfos(ctx context.Context, s Store, p string) ([]ResourceInfo, error) {
	members, err := s.ListWithProps(ctx, p)
	infos := make([]ResourceInfo, len(members))
	for i, m := range members {
		infos[i] = m.Info
	}
	return infos, err
}

func readBody(t *testing.T, s Store, p string) string {
	t.Helper()
	rc, _, err := s.Get(context.Background(), p)
	if err != nil {
		t.Fatalf("Get %s: %v", p, err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("read %s: %v", p, err)
	}
	return string(b)
}

func TestCleanPath(t *testing.T) {
	cases := []struct {
		in, want string
		ok       bool
	}{
		{"", "/", true},
		{"/", "/", true},
		{"a/b", "/a/b", true},
		{"/a/b/", "/a/b", true},
		{"/a//b", "/a/b", true},
		{"/a/./b", "/a/b", true},
		{"/a/x/../b", "/a/b", true},
		{"/../a", "/a", true}, // cannot escape a rooted path
		{"/a\x00b", "", false},
	}
	for _, c := range cases {
		got, err := CleanPath(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("CleanPath(%q) = (%q, %v), want (%q, ok=%v)", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestParentAndAncestor(t *testing.T) {
	if ParentPath("/a/b") != "/a" || ParentPath("/a") != "/" || ParentPath("/") != "/" {
		t.Fatal("ParentPath mismatch")
	}
	if !IsAncestor("/", "/a") || !IsAncestor("/a", "/a/b/c") {
		t.Fatal("IsAncestor false negative")
	}
	if IsAncestor("/a", "/a") || IsAncestor("/a", "/ab") || IsAncestor("/a/b", "/a") {
		t.Fatal("IsAncestor false positive")
	}
}

func TestRootExists(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		ri, err := s.Stat(context.Background(), "/")
		if err != nil || !ri.IsCollection {
			t.Fatalf("Stat / = %+v, %v", ri, err)
		}
	})
}

func TestPutGetDocument(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		created, err := s.Put(context.Background(), "/doc.txt", strings.NewReader("hello"), "text/plain")
		if err != nil || !created {
			t.Fatalf("Put: created=%v err=%v", created, err)
		}
		if got := readBody(t, s, "/doc.txt"); got != "hello" {
			t.Fatalf("body = %q", got)
		}
		ri, err := s.Stat(context.Background(), "/doc.txt")
		if err != nil {
			t.Fatal(err)
		}
		if ri.IsCollection || ri.Size != 5 || ri.ContentType != "text/plain" {
			t.Fatalf("info = %+v", ri)
		}
		if ri.ETag == "" {
			t.Fatal("missing ETag")
		}
		// Replace is not a create.
		created, err = s.Put(context.Background(), "/doc.txt", strings.NewReader("bye!"), "")
		if err != nil || created {
			t.Fatalf("replace: created=%v err=%v", created, err)
		}
		if got := readBody(t, s, "/doc.txt"); got != "bye!" {
			t.Fatalf("replaced body = %q", got)
		}
		// Content type sticks from the first Put when not re-supplied.
		ri2, _ := s.Stat(context.Background(), "/doc.txt")
		if ri2.ContentType != "text/plain" {
			t.Fatalf("content type after replace = %q", ri2.ContentType)
		}
	})
}

func TestETagChangesOnWrite(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		mustPut(t, s, "/e.txt", "one one one")
		ri1, _ := s.Stat(context.Background(), "/e.txt")
		s.Put(context.Background(), "/e.txt", strings.NewReader("two two two two"), "")
		ri2, _ := s.Stat(context.Background(), "/e.txt")
		if ri1.ETag == ri2.ETag {
			t.Fatalf("ETag unchanged across write: %s", ri1.ETag)
		}
	})
}

// A MOVE must not hand its destination an ETag that path already served
// for other bytes. Two documents of one size written within one
// timestamp tick (a bulk upload of same-size input decks) differ only in
// their bytes; with the destination deleted and the source moved onto
// its path, size, mtime and generation all match what the destination
// served, so only the file's identity tells the two bodies apart.
func TestMoveNeverReusesADestinationETag(t *testing.T) {
	ctx := context.Background()
	cases := []struct{ name, src, dst, srcDoc, dstDoc string }{
		{"document", "/a", "/b", "/a", "/b"},
		{"member of a moved collection", "/c1", "/c2", "/c1/x", "/c2/x"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewFSStore(t.TempDir(), dbm.GDBM)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if tc.src != tc.srcDoc {
				mustMkcol(t, s, tc.src)
				mustMkcol(t, s, tc.dst)
			}
			mustPut(t, s, tc.srcDoc, "aaaa")
			mustPut(t, s, tc.dstDoc, "bbbb")
			tick := time.Unix(1_000_000_000, 0)
			for _, p := range []string{tc.srcDoc, tc.dstDoc} {
				if err := os.Chtimes(filepath.Join(s.Root(), filepath.FromSlash(p)), tick, tick); err != nil {
					t.Fatal(err)
				}
			}
			before, err := s.Stat(ctx, tc.dstDoc)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(ctx, tc.dst); err != nil {
				t.Fatal(err)
			}
			if err := s.Rename(ctx, tc.src, tc.dst); err != nil {
				t.Fatal(err)
			}
			after, err := s.Stat(ctx, tc.dstDoc)
			if err != nil {
				t.Fatal(err)
			}
			rc, _, err := s.Get(ctx, tc.dstDoc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(rc)
			rc.Close()
			if err != nil || string(got) != "aaaa" {
				t.Fatalf("%s after the move holds %q, %v", tc.dstDoc, got, err)
			}
			if after.ETag == before.ETag {
				t.Fatalf("%s serves the moved bytes under the ETag it served for the old ones: %s", tc.dstDoc, after.ETag)
			}
		})
	}
}

func TestMkcolSemantics(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		mustMkcol(t, s, "/proj")
		ri, err := s.Stat(context.Background(), "/proj")
		if err != nil || !ri.IsCollection {
			t.Fatalf("Stat /proj = %+v, %v", ri, err)
		}
		if err := s.Mkcol(context.Background(), "/proj"); !errors.Is(err, ErrExists) {
			t.Fatalf("duplicate Mkcol = %v, want ErrExists", err)
		}
		if err := s.Mkcol(context.Background(), "/no/such/parent"); !errors.Is(err, ErrConflict) {
			t.Fatalf("orphan Mkcol = %v, want ErrConflict", err)
		}
		mustPut(t, s, "/doc", "x")
		if err := s.Mkcol(context.Background(), "/doc/sub"); !errors.Is(err, ErrConflict) {
			t.Fatalf("Mkcol under document = %v, want ErrConflict", err)
		}
	})
}

func TestPutRequiresParent(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		if _, err := s.Put(context.Background(), "/a/b/c.txt", strings.NewReader("x"), ""); !errors.Is(err, ErrConflict) {
			t.Fatalf("Put without parent = %v, want ErrConflict", err)
		}
		if _, err := s.Put(context.Background(), "/", strings.NewReader("x"), ""); err == nil {
			t.Fatal("Put to / should fail")
		}
		mustMkcol(t, s, "/a")
		if _, err := s.Put(context.Background(), "/a", strings.NewReader("x"), ""); !errors.Is(err, ErrIsCollection) {
			t.Fatalf("Put over collection = %v, want ErrIsCollection", err)
		}
	})
}

func TestGetErrors(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		if _, _, err := s.Get(context.Background(), "/missing"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get missing = %v, want ErrNotFound", err)
		}
		mustMkcol(t, s, "/col")
		if _, _, err := s.Get(context.Background(), "/col"); !errors.Is(err, ErrIsCollection) {
			t.Fatalf("Get collection = %v, want ErrIsCollection", err)
		}
	})
}

func TestListSortedAndScoped(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		mustMkcol(t, s, "/c")
		mustPut(t, s, "/c/zebra", "z")
		mustPut(t, s, "/c/apple", "a")
		mustMkcol(t, s, "/c/mid")
		mustPut(t, s, "/c/mid/nested", "n") // must not appear at depth 1
		mustPut(t, s, "/other", "o")

		members, err := listInfos(context.Background(), s, "/c")
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, m := range members {
			names = append(names, m.Path)
		}
		want := []string{"/c/apple", "/c/mid", "/c/zebra"}
		if !reflect.DeepEqual(names, want) {
			t.Fatalf("List = %v, want %v", names, want)
		}
		if _, err := listInfos(context.Background(), s, "/c/apple"); !errors.Is(err, ErrNotCollection) {
			t.Fatalf("List document = %v, want ErrNotCollection", err)
		}
		if _, err := listInfos(context.Background(), s, "/nope"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("List missing = %v, want ErrNotFound", err)
		}
	})
}

func TestDeleteDocumentAndTree(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		mustMkcol(t, s, "/t")
		mustPut(t, s, "/t/a", "1")
		mustMkcol(t, s, "/t/sub")
		mustPut(t, s, "/t/sub/b", "2")
		s.PropPut(context.Background(), "/t/sub/b", xml.Name{Space: "ecce:", Local: "x"}, []byte("<x/>"))

		if err := s.Delete(context.Background(), "/t/a"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Stat(context.Background(), "/t/a"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted doc Stat = %v", err)
		}
		if err := s.Delete(context.Background(), "/t"); err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{"/t", "/t/sub", "/t/sub/b"} {
			if _, err := s.Stat(context.Background(), p); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Stat %s after tree delete = %v", p, err)
			}
		}
		if err := s.Delete(context.Background(), "/t"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("double delete = %v", err)
		}
		if err := s.Delete(context.Background(), "/"); err == nil {
			t.Fatal("deleting / should fail")
		}
	})
}

func TestPropLifecycle(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		mustPut(t, s, "/m.xyz", "geometry")
		name := xml.Name{Space: "ecce:", Local: "formula"}
		val := []byte(`<formula xmlns="ecce:">UO2H30O15</formula>`)

		// Absent property.
		if _, ok, err := propGet(context.Background(), s, "/m.xyz", name); ok || err != nil {
			t.Fatalf("absent property: ok=%v err=%v", ok, err)
		}
		// Removing an absent property succeeds (RFC 2518).
		if err := s.PropDelete(context.Background(), "/m.xyz", name); err != nil {
			t.Fatalf("PropDelete absent: %v", err)
		}
		if err := s.PropPut(context.Background(), "/m.xyz", name, val); err != nil {
			t.Fatal(err)
		}
		got, ok, err := propGet(context.Background(), s, "/m.xyz", name)
		if err != nil || !ok || !bytes.Equal(got, val) {
			t.Fatalf("property = (%q, %v, %v)", got, ok, err)
		}
		// Overwrite.
		val2 := []byte(`<formula xmlns="ecce:">H2O</formula>`)
		s.PropPut(context.Background(), "/m.xyz", name, val2)
		got, _, _ = propGet(context.Background(), s, "/m.xyz", name)
		if !bytes.Equal(got, val2) {
			t.Fatalf("overwritten property = %q", got)
		}
		// Names and All.
		name2 := xml.Name{Space: "ecce:", Local: "charge"}
		s.PropPut(context.Background(), "/m.xyz", name2, []byte("<c>2</c>"))
		_, all, err := s.StatWithProps(context.Background(), "/m.xyz")
		if err != nil || len(all) != 2 || !bytes.Equal(all[name], val2) {
			t.Fatalf("StatWithProps props = %v, %v", all, err)
		}
		// Delete.
		if err := s.PropDelete(context.Background(), "/m.xyz", name); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := propGet(context.Background(), s, "/m.xyz", name); ok {
			t.Fatal("property survived delete")
		}
	})
}

func TestPropsOnMissingResource(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		name := xml.Name{Space: "e:", Local: "x"}
		if err := s.PropPut(context.Background(), "/gone", name, []byte("v")); !errors.Is(err, ErrNotFound) {
			t.Fatalf("PropPut missing = %v", err)
		}
		if _, _, err := propGet(context.Background(), s, "/gone", name); !errors.Is(err, ErrNotFound) {
			t.Fatalf("property of a missing resource = %v", err)
		}
		if _, _, err := s.StatWithProps(context.Background(), "/gone"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("StatWithProps missing = %v", err)
		}
	})
}

func TestPropsOnCollections(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		mustMkcol(t, s, "/proj")
		name := xml.Name{Space: "ecce:", Local: "description"}
		if err := s.PropPut(context.Background(), "/proj", name, []byte("<d>study</d>")); err != nil {
			t.Fatal(err)
		}
		v, ok, err := propGet(context.Background(), s, "/proj", name)
		if err != nil || !ok || string(v) != "<d>study</d>" {
			t.Fatalf("collection prop = (%q, %v, %v)", v, ok, err)
		}
	})
}

func TestCopyTreeDocumentWithProps(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		mustPut(t, s, "/src.txt", "body")
		name := xml.Name{Space: "e:", Local: "k"}
		s.PropPut(context.Background(), "/src.txt", name, []byte("v"))
		if err := s.CopyTreeAtomic(context.Background(), "/src.txt", "/dst.txt", CopyOptions{}); err != nil {
			t.Fatal(err)
		}
		if got := readBody(t, s, "/dst.txt"); got != "body" {
			t.Fatalf("copied body = %q", got)
		}
		v, ok, _ := propGet(context.Background(), s, "/dst.txt", name)
		if !ok || string(v) != "v" {
			t.Fatalf("copied prop = (%q, %v)", v, ok)
		}
		// Source intact.
		if got := readBody(t, s, "/src.txt"); got != "body" {
			t.Fatal("source mutated by copy")
		}
	})
}

func TestCopyTreeRecursive(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		mustMkcol(t, s, "/a")
		mustMkcol(t, s, "/a/sub")
		mustPut(t, s, "/a/doc", "d")
		mustPut(t, s, "/a/sub/deep", "x")
		s.PropPut(context.Background(), "/a", xml.Name{Space: "e:", Local: "p"}, []byte("cv"))

		if err := s.CopyTreeAtomic(context.Background(), "/a", "/b", CopyOptions{Recurse: true}); err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{"/b", "/b/sub", "/b/doc", "/b/sub/deep"} {
			if _, err := s.Stat(context.Background(), p); err != nil {
				t.Fatalf("Stat %s after copy: %v", p, err)
			}
		}
		v, ok, _ := propGet(context.Background(), s, "/b", xml.Name{Space: "e:", Local: "p"})
		if !ok || string(v) != "cv" {
			t.Fatal("collection property not copied")
		}
		// Depth 0: only the collection itself.
		if err := s.CopyTreeAtomic(context.Background(), "/a", "/shallow", CopyOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Stat(context.Background(), "/shallow/doc"); !errors.Is(err, ErrNotFound) {
			t.Fatal("depth-0 copy copied members")
		}
	})
}

func TestCopyIntoSelfRejected(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		mustMkcol(t, s, "/a")
		if err := s.CopyTreeAtomic(context.Background(), "/a", "/a/inside", CopyOptions{Recurse: true}); !errors.Is(err, ErrBadPath) {
			t.Fatalf("copy into self = %v, want ErrBadPath", err)
		}
		if err := s.CopyTreeAtomic(context.Background(), "/a", "/a", CopyOptions{}); !errors.Is(err, ErrBadPath) {
			t.Fatalf("copy onto self = %v, want ErrBadPath", err)
		}
	})
}

// TestCopyOntoAnExistingDestination: CopyTreeAtomic refuses a
// destination that exists, a document or a collection with a member,
// with ErrExists and before it writes anything. The destination keeps
// its bodies, ETags and dead properties, and an FSStore journals no
// intent for the refused copy.
func TestCopyOntoAnExistingDestination(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		ctx := context.Background()
		k := xml.Name{Space: "urn:ecce", Local: "k"}
		stale := xml.Name{Space: "urn:ecce", Local: "stale"}
		mustPut(t, s, "/src.txt", "new body")
		mustMkcol(t, s, "/srcdir")
		mustPut(t, s, "/srcdir/m", "new member")
		mustPut(t, s, "/dst.txt", "old body")
		mustMkcol(t, s, "/dstdir")
		mustPut(t, s, "/dstdir/m", "old member")
		for _, p := range []string{"/src.txt", "/srcdir", "/srcdir/m"} {
			if err := s.PropPut(ctx, p, k, []byte("<v>src</v>")); err != nil {
				t.Fatal(err)
			}
		}
		dsts := []string{"/dst.txt", "/dstdir", "/dstdir/m"}
		for _, p := range dsts {
			if err := s.PropPut(ctx, p, stale, []byte("<v>old</v>")); err != nil {
				t.Fatal(err)
			}
		}
		type state struct {
			etag, body string
			props      map[xml.Name][]byte
		}
		snapshot := func() map[string]state {
			out := map[string]state{}
			for _, p := range dsts {
				ri, props, err := s.StatWithProps(ctx, p)
				if err != nil {
					t.Fatalf("StatWithProps %s: %v", p, err)
				}
				st := state{etag: ri.ETag, props: copyProps(props)}
				if !ri.IsCollection {
					st.body = readBody(t, s, p)
				}
				out[p] = st
			}
			return out
		}
		journalBytes := func() []byte {
			fs, ok := s.(*FSStore)
			if !ok {
				return nil
			}
			b, err := os.ReadFile(filepath.Join(fs.Root(), propDirName, journalFileName))
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			return b
		}
		before, journalBefore := snapshot(), journalBytes()
		for _, c := range []struct {
			src, dst string
			recurse  bool
		}{
			{"/src.txt", "/dst.txt", false},
			{"/srcdir", "/dstdir", true},
			{"/srcdir", "/dstdir", false},
			{"/src.txt", "/dstdir", false},
			{"/srcdir", "/dst.txt", true},
		} {
			if err := s.CopyTreeAtomic(ctx, c.src, c.dst, CopyOptions{Recurse: c.recurse}); !errors.Is(err, ErrExists) {
				t.Errorf("copy %s onto existing %s (recurse %v) = %v, want ErrExists", c.src, c.dst, c.recurse, err)
			}
		}
		if after := snapshot(); !reflect.DeepEqual(after, before) {
			t.Errorf("refused copies changed the destinations:\nbefore %v\nafter  %v", before, after)
		}
		if after := journalBytes(); !bytes.Equal(after, journalBefore) {
			t.Errorf("refused copies wrote to the journal: %d bytes before, %d after", len(journalBefore), len(after))
		}
		// A missing source is ErrNotFound before an existing destination
		// is ErrExists, as Rename orders them.
		if err := s.CopyTreeAtomic(ctx, "/absent", "/dst.txt", CopyOptions{}); !errors.Is(err, ErrNotFound) {
			t.Errorf("copy of a missing source onto an existing destination = %v, want ErrNotFound", err)
		}
	})
}

// A copy is a new resource: CopyTreeAtomic copies every dead property
// byte for byte, an empty namespace's included, except the versioning
// bookkeeping, at Depth 0 and at Depth infinity. Rename moves the
// resource, bookkeeping and all.
func TestCopyLeavesVersioningBehind(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		ctx := context.Background()
		props := map[xml.Name][]byte{
			{Space: VersioningNS, Local: "version-count"}: []byte("2 0123456789abcdef"),
			{Local: "x"}:                    []byte("<x>no namespace</x>"),
			{Space: "urn:ecce", Local: "k"}: []byte(`<k xmlns="urn:ecce">ecce</k>`),
		}
		kept := maps.Clone(props)
		delete(kept, xml.Name{Space: VersioningNS, Local: "version-count"})
		mustMkcol(t, s, "/col")
		mustPut(t, s, "/col/doc", "body")
		mustPut(t, s, "/doc", "body")
		for _, p := range []string{"/col", "/col/doc", "/doc"} {
			for name, v := range props {
				if err := s.PropPut(ctx, p, name, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		wantProps := func(p string, want map[xml.Name][]byte) {
			t.Helper()
			_, got, err := s.StatWithProps(ctx, p)
			if err != nil {
				t.Fatalf("StatWithProps %s: %v", p, err)
			}
			if !reflect.DeepEqual(maps.Clone(got), want) {
				t.Errorf("%s properties = %q, want %q", p, got, want)
			}
		}
		for _, c := range []struct {
			src, dst string
			recurse  bool
			copied   []string
		}{
			{"/doc", "/doc0", false, []string{"/doc0"}},
			{"/col", "/col0", false, []string{"/col0"}},
			{"/col", "/colinf", true, []string{"/colinf", "/colinf/doc"}},
		} {
			if err := s.CopyTreeAtomic(ctx, c.src, c.dst, CopyOptions{Recurse: c.recurse}); err != nil {
				t.Fatalf("copy %s to %s: %v", c.src, c.dst, err)
			}
			for _, p := range c.copied {
				wantProps(p, kept)
			}
		}
		wantProps("/doc", props)
		if err := s.Rename(ctx, "/doc", "/moved"); err != nil {
			t.Fatal(err)
		}
		wantProps("/moved", props)
	})
}

func TestMoveTree(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		mustMkcol(t, s, "/m")
		mustPut(t, s, "/m/doc", "payload")
		s.PropPut(context.Background(), "/m/doc", xml.Name{Space: "e:", Local: "k"}, []byte("v"))
		if err := s.Rename(context.Background(), "/m", "/moved"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Stat(context.Background(), "/m"); !errors.Is(err, ErrNotFound) {
			t.Fatal("source survived move")
		}
		if got := readBody(t, s, "/moved/doc"); got != "payload" {
			t.Fatalf("moved body = %q", got)
		}
		v, ok, _ := propGet(context.Background(), s, "/moved/doc", xml.Name{Space: "e:", Local: "k"})
		if !ok || string(v) != "v" {
			t.Fatal("moved property lost")
		}
	})
}

func TestMoveDocumentRenameKeepsProps(t *testing.T) {
	// A renamed document arrives with its properties and its ETag.
	eachStore(t, func(t *testing.T, s Store) {
		mustPut(t, s, "/one.txt", "1")
		mustPut(t, s, "/one.txt", "2") // an overwrite generation for the ETag to carry
		s.PropPut(context.Background(), "/one.txt", xml.Name{Space: "e:", Local: "k"}, []byte("v"))
		before, err := s.Stat(context.Background(), "/one.txt")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Rename(context.Background(), "/one.txt", "/two.txt"); err != nil {
			t.Fatal(err)
		}
		v, ok, err := propGet(context.Background(), s, "/two.txt", xml.Name{Space: "e:", Local: "k"})
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("prop after rename = (%q, %v, %v)", v, ok, err)
		}
		after, err := s.Stat(context.Background(), "/two.txt")
		if err != nil || after.ETag != before.ETag {
			t.Fatalf("ETag after rename = (%q, %v), want %q", after.ETag, err, before.ETag)
		}
	})
}

// walkFrom resolves p and walks it with WalkWithProps, handing fn each
// resource's info.
func walkFrom(s Store, p string, fn func(ResourceInfo) error) error {
	ctx := context.Background()
	ri, props, err := s.StatWithProps(ctx, p)
	if err != nil {
		return err
	}
	return WalkWithProps(ctx, s, MemberProps{Info: ri, Props: props}, func(m MemberProps) error {
		return fn(m.Info)
	})
}

func TestWalkPreOrder(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		mustMkcol(t, s, "/w")
		mustPut(t, s, "/w/a", "1")
		mustMkcol(t, s, "/w/d")
		mustPut(t, s, "/w/d/b", "2")
		var visited []string
		if err := walkFrom(s, "/w", func(ri ResourceInfo) error {
			visited = append(visited, ri.Path)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want := []string{"/w", "/w/a", "/w/d", "/w/d/b"}
		if !reflect.DeepEqual(visited, want) {
			t.Fatalf("walk = %v, want %v", visited, want)
		}
	})
}

func TestFSStoreHidesPropDir(t *testing.T) {
	s, err := NewFSStore(t.TempDir(), dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustPut(t, s, "/d.txt", "x")
	s.PropPut(context.Background(), "/d.txt", xml.Name{Space: "e:", Local: "k"}, []byte("v"))
	members, err := listInfos(context.Background(), s, "/")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		if strings.Contains(m.Path, propDirName) {
			t.Fatalf("List leaked %s", m.Path)
		}
	}
	if len(members) != 1 {
		t.Fatalf("List = %v", members)
	}
	// The reserved name cannot be addressed.
	if _, err := s.Stat(context.Background(), "/"+propDirName); !errors.Is(err, ErrBadPath) {
		t.Fatalf("Stat .DAV = %v, want ErrBadPath", err)
	}
	if err := s.Mkcol(context.Background(), "/sub/"+propDirName); !errors.Is(err, ErrBadPath) {
		t.Fatalf("Mkcol .DAV = %v, want ErrBadPath", err)
	}
}

func TestFSStorePropsPersistAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "/p.txt", "x")
	name := xml.Name{Space: "ecce:", Local: "formula"}
	s.PropPut(context.Background(), "/p.txt", name, []byte("<f>H2O</f>"))
	s.Close()

	s2, err := NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, ok, err := propGet(context.Background(), s2, "/p.txt", name)
	if err != nil || !ok || string(v) != "<f>H2O</f>" {
		t.Fatalf("prop after reopen = (%q, %v, %v)", v, ok, err)
	}
}

func TestFSStoreRawDataDirectlyVisible(t *testing.T) {
	// The paper's "direct access to raw data" requirement: documents
	// are plain files a user can read without going through DAV.
	dir := t.TempDir()
	s, err := NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustMkcol(t, s, "/calc")
	mustPut(t, s, "/calc/input.nw", "geometry units angstrom")
	raw, err := os.ReadFile(filepath.Join(dir, "calc", "input.nw"))
	if err != nil || string(raw) != "geometry units angstrom" {
		t.Fatalf("raw file = (%q, %v)", raw, err)
	}
}

func TestFSStorePerResourcePropertyDatabases(t *testing.T) {
	// The disk-overhead experiment depends on one DBM file per
	// resource that has metadata.
	dir := t.TempDir()
	s, err := NewFSStore(dir, dbm.SDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		p := fmt.Sprintf("/doc%d", i)
		mustPut(t, s, p, "x")
		s.PropPut(context.Background(), p, xml.Name{Space: "e:", Local: "k"}, []byte("v"))
	}
	mustPut(t, s, "/bare", "no props")

	all, err := os.ReadDir(filepath.Join(dir, propDirName))
	if err != nil {
		t.Fatal(err)
	}
	// The root metadata directory also holds the intent journal — a
	// fixed O(1) file, not a per-resource database.
	var ents []os.DirEntry
	for _, e := range all {
		if strings.HasSuffix(e.Name(), propsExt) {
			ents = append(ents, e)
		}
	}
	if len(ents) != 3 {
		t.Fatalf("prop databases = %d, want 3 (no database for the bare document)", len(ents))
	}
	// Each database is at least SDBM's initial size.
	for _, e := range ents {
		fi, _ := e.Info()
		if fi.Size() < 8*1024 {
			t.Fatalf("props db %s = %d bytes, want >= 8192", e.Name(), fi.Size())
		}
	}
}

func TestDiskUsage(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustPut(t, s, "/h", "hello world")
	mustPut(t, s, "/h", "changed")
	du, err := DiskUsage(dir)
	if err != nil || du < int64(len("changed")) {
		t.Fatalf("DiskUsage = (%d, %v)", du, err)
	}
}

// TestQuickPropRoundTrip: for arbitrary names and values, PropPut
// followed by a read returns the value, on both stores.
func TestQuickPropRoundTrip(t *testing.T) {
	fsDir := t.TempDir()
	fsStore, err := NewFSStore(fsDir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer fsStore.Close()
	memStore := NewMemStore()
	for _, s := range []Store{memStore, fsStore} {
		if _, err := s.Put(context.Background(), "/target", strings.NewReader("x"), ""); err != nil {
			t.Fatal(err)
		}
	}
	locals := []string{"a", "formula", "charge", "long-local-name", "z9"}
	spaces := []string{"ecce:", "DAV:", "urn:x", "http://example.org/ns#"}
	check := func(seed int64, val []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		name := xml.Name{Space: spaces[rng.Intn(len(spaces))], Local: locals[rng.Intn(len(locals))]}
		for _, s := range []Store{memStore, fsStore} {
			if err := s.PropPut(context.Background(), "/target", name, val); err != nil {
				t.Logf("PropPut: %v", err)
				return false
			}
			got, ok, err := propGet(context.Background(), s, "/target", name)
			if err != nil || !ok || !bytes.Equal(got, val) {
				t.Logf("read = (%q, %v, %v), want %q", got, ok, err, val)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCopyPreservesTree: copying a randomly built tree yields an
// identical structure with identical bodies and properties.
func TestQuickCopyPreservesTree(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewMemStore()
		s.Mkcol(context.Background(), "/src")
		var paths []string
		for i := 0; i < 12; i++ {
			parent := "/src"
			if len(paths) > 0 && rng.Intn(2) == 0 {
				p := paths[rng.Intn(len(paths))]
				if ri, _ := s.Stat(context.Background(), p); ri.IsCollection {
					parent = p
				}
			}
			child := fmt.Sprintf("%s/n%d", parent, i)
			if rng.Intn(2) == 0 {
				if err := s.Mkcol(context.Background(), child); err != nil {
					continue
				}
			} else {
				if _, err := s.Put(context.Background(), child, strings.NewReader(fmt.Sprintf("body%d", i)), ""); err != nil {
					continue
				}
			}
			s.PropPut(context.Background(), child, xml.Name{Space: "e:", Local: "id"}, []byte(fmt.Sprintf("<id>%d</id>", i)))
			paths = append(paths, child)
		}
		if err := s.CopyTreeAtomic(context.Background(), "/src", "/dst", CopyOptions{Recurse: true}); err != nil {
			t.Logf("copy: %v", err)
			return false
		}
		ok := true
		walkFrom(s, "/src", func(ri ResourceInfo) error {
			dstPath := "/dst" + strings.TrimPrefix(ri.Path, "/src")
			dri, err := s.Stat(context.Background(), dstPath)
			if err != nil || dri.IsCollection != ri.IsCollection {
				t.Logf("missing or mismatched %s: %v", dstPath, err)
				ok = false
				return nil
			}
			_, sp, _ := s.StatWithProps(context.Background(), ri.Path)
			_, dp, _ := s.StatWithProps(context.Background(), dstPath)
			if len(sp) != len(dp) {
				ok = false
			}
			for n, v := range sp {
				if !bytes.Equal(dp[n], v) {
					ok = false
				}
			}
			return nil
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestContentTypeSurvivesCopy(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		if _, err := s.Put(context.Background(), "/m.dat", strings.NewReader("geom"), "chemical/x-xyz"); err != nil {
			t.Fatal(err)
		}
		if err := s.CopyTreeAtomic(context.Background(), "/m.dat", "/copy.dat", CopyOptions{}); err != nil {
			t.Fatal(err)
		}
		ri, err := s.Stat(context.Background(), "/copy.dat")
		if err != nil || ri.ContentType != "chemical/x-xyz" {
			t.Fatalf("copied content type = (%q, %v)", ri.ContentType, err)
		}
	})
}

// An overwrite's explicit content type replaces the one before it, also
// when it is the type the extension implies (FSStore keeps no such
// type, and once left the earlier one standing); an overwrite without
// one keeps it. Stat and Get agree after every write.
func TestOverwriteReplacesTheContentType(t *testing.T) {
	ctx := context.Background()
	eachStore(t, func(t *testing.T, s Store) {
		for _, step := range []struct{ ctype, want string }{
			{"text/plain", "text/plain"},
			{"application/octet-stream", "application/octet-stream"}, // inferred for /a
			{"chemical/x-xyz", "chemical/x-xyz"},
			{"", "chemical/x-xyz"},
			{"application/octet-stream", "application/octet-stream"},
		} {
			if _, err := s.Put(ctx, "/a", strings.NewReader("x"), step.ctype); err != nil {
				t.Fatal(err)
			}
			ri, err := s.Stat(ctx, "/a")
			rc, gi, gerr := s.Get(ctx, "/a")
			if gerr == nil {
				rc.Close()
			}
			if err != nil || gerr != nil || ri.ContentType != step.want || gi.ContentType != step.want {
				t.Fatalf("after a PUT with %q: Stat %q (%v), Get %q (%v); want %q",
					step.ctype, ri.ContentType, err, gi.ContentType, gerr, step.want)
			}
		}
	})
	// What FSStore keeps is in the database: a reopened store reads the
	// inferred type, and no type is kept for it.
	dir := t.TempDir()
	s, err := NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	for _, ctype := range []string{"text/plain", "application/octet-stream"} {
		if _, err := s.Put(ctx, "/a", strings.NewReader("x"), ctype); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	db, err := dbm.Open(filepath.Join(dir, propDirName, "a"+propsExt), dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	_, kept, err := db.Get(internalKey(ikeyContentType))
	db.Close()
	if err != nil || kept {
		t.Fatalf("database keeps a content type: %v, %v", kept, err)
	}
	if s, err = NewFSStore(dir, dbm.GDBM); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if ri, err := s.Stat(ctx, "/a"); err != nil || ri.ContentType != "application/octet-stream" {
		t.Fatalf("reopened Stat = %q, %v", ri.ContentType, err)
	}
}

func TestRenameFastPathErrors(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		mustPut(t, s, "/a", "1")
		mustPut(t, s, "/b", "2")
		mustMkcol(t, s, "/d")
		for _, tc := range []struct {
			name, src, dst string
			want           error
		}{
			{"onto existing (never clobber)", "/a", "/b", ErrExists},
			{"missing source", "/missing", "/c", ErrNotFound},
			{"destination without parent", "/a", "/no/parent/x", ErrConflict},
			{"onto self", "/a", "/a", ErrBadPath},
			{"into own subtree", "/d", "/d/inside", ErrBadPath},
			{"onto own ancestor", "/d", "/", ErrBadPath},
		} {
			if err := s.Rename(context.Background(), tc.src, tc.dst); !errors.Is(err, tc.want) {
				t.Errorf("rename %s = %v, want %v", tc.name, err, tc.want)
			}
		}
		if got := readBody(t, s, "/a"); got != "1" {
			t.Fatalf("a refused rename changed the source: %q", got)
		}
	})
}

// TestQuickCleanPathIdempotent: CleanPath is idempotent and always
// yields a rooted path without trailing slash.
func TestQuickCleanPathIdempotent(t *testing.T) {
	check := func(p string) bool {
		cp, err := CleanPath(p)
		if err != nil {
			return strings.ContainsRune(p, 0) // only NULs are rejected
		}
		if !strings.HasPrefix(cp, "/") {
			return false
		}
		if cp != "/" && strings.HasSuffix(cp, "/") {
			return false
		}
		again, err := CleanPath(cp)
		return err == nil && again == cp
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// ListWithProps vouches for a member's values (Checked) exactly when
// every one of them is a well-formed fragment: a resource with no
// database has nothing to doubt, one bad value withdraws the verdict,
// and the write that repairs it restores it — FSStore rebuilds the
// view it keeps the verdict in, MemStore checks on every call.
func TestPropViewVerdict(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		ctx := context.Background()
		mustMkcol(t, s, "/c")
		mustMkcol(t, s, "/c/sub")
		mustPut(t, s, "/c/bare", "no properties")
		mustPut(t, s, "/c/doc", "geometry")
		formula := xml.Name{Space: "ecce:", Local: "formula"}
		charge := xml.Name{Space: "ecce:", Local: "charge"}
		put := func(p string, name xml.Name, v string) {
			t.Helper()
			if err := s.PropPut(ctx, p, name, []byte(v)); err != nil {
				t.Fatalf("PropPut %s %s: %v", p, name.Local, err)
			}
		}
		want := func(step string, checked map[string]bool) {
			t.Helper()
			for range 2 { // the second read reuses FSStore's view
				members, err := s.ListWithProps(ctx, "/c")
				if err != nil {
					t.Fatalf("%s: ListWithProps: %v", step, err)
				}
				if len(members) != len(checked) {
					t.Fatalf("%s: %d members, want %d", step, len(members), len(checked))
				}
				for _, m := range members {
					if m.Checked != checked[m.Info.Path] {
						t.Errorf("%s: %s Checked = %v, want %v (props %q)", step, m.Info.Path, m.Checked, checked[m.Info.Path], m.Props)
					}
				}
			}
		}
		put("/c/doc", formula, `<formula xmlns="ecce:">UO2H30O15</formula>`)
		put("/c/doc", charge, `<e:charge xmlns:e="ecce:">2</e:charge>`)
		put("/c/sub", formula, `<formula xmlns="ecce:">H2O</formula>`)
		want("well-formed", map[string]bool{"/c/bare": true, "/c/doc": true, "/c/sub": true})

		put("/c/doc", charge, `<e:charge xmlns:e="ecce:">2</e:charge`)
		put("/c/sub", charge, `2`)
		want("one bad value each", map[string]bool{"/c/bare": true, "/c/doc": false, "/c/sub": false})

		put("/c/doc", charge, `<e:charge xmlns:e="ecce:">-1</e:charge>`)
		if err := s.PropDelete(ctx, "/c/sub", charge); err != nil {
			t.Fatal(err)
		}
		want("repaired", map[string]bool{"/c/bare": true, "/c/doc": true, "/c/sub": true})
	})
}

// TestETagLaws checks RFC 7232's strong-validator rules on every store:
// a path never serves one ETag for two different bodies (a document
// deleted and written again, overwritten, moved over or copied over
// included), Rename keeps the ETag, and an overwrite changes it.
func TestETagLaws(t *testing.T) {
	ctx := context.Background()
	eachStore(t, func(t *testing.T, s Store) {
		served := map[string]map[string]string{} // path -> ETag -> body
		observe := func(p string) string {
			t.Helper()
			rc, ri, err := s.Get(ctx, p)
			if err != nil {
				t.Fatalf("Get %s: %v", p, err)
			}
			body, err := io.ReadAll(rc)
			rc.Close()
			if err != nil {
				t.Fatal(err)
			}
			if served[p] == nil {
				served[p] = map[string]string{}
			}
			if prev, ok := served[p][ri.ETag]; ok && prev != string(body) {
				t.Fatalf("%s serves %q and %q under one ETag %s", p, prev, body, ri.ETag)
			}
			served[p][ri.ETag] = string(body)
			return ri.ETag
		}
		mustDelete := func(p string) {
			t.Helper()
			if err := s.Delete(ctx, p); err != nil {
				t.Fatalf("Delete %s: %v", p, err)
			}
		}

		mustPut(t, s, "/x", "aaaa")
		observe("/x")
		mustDelete("/x")
		mustPut(t, s, "/x", "bbbb") // same path, same size
		observe("/x")

		mustPut(t, s, "/y", "cccc")
		before := observe("/y")
		mustPut(t, s, "/y", "dddd")
		if observe("/y") == before {
			t.Fatalf("an overwrite of /y kept ETag %s", before)
		}

		before = observe("/y")
		if err := s.Rename(ctx, "/y", "/w"); err != nil {
			t.Fatal(err)
		}
		if got := observe("/w"); got != before {
			t.Fatalf("Rename changed the ETag: %s, then %s", before, got)
		}
		mustDelete("/x")
		if err := s.Rename(ctx, "/w", "/x"); err != nil {
			t.Fatal(err)
		}
		observe("/x")

		if err := s.CopyTreeAtomic(ctx, "/x", "/c", CopyOptions{}); err != nil {
			t.Fatal(err)
		}
		observe("/c")
		mustDelete("/c")
		mustPut(t, s, "/c", "eeee")
		observe("/c")
		mustPut(t, s, "/c", "ffff")
		observe("/c")

		// A copy may share its source's body; each name keeps its own
		// bytes under its own ETags when the other is overwritten or
		// deleted.
		mustPut(t, s, "/s", "gggg")
		observe("/s")
		if err := s.CopyTreeAtomic(ctx, "/s", "/t", CopyOptions{}); err != nil {
			t.Fatal(err)
		}
		observe("/t")
		mustPut(t, s, "/s", "hhhh")
		observe("/s")
		observe("/t")

		mustPut(t, s, "/u", "iiii")
		observe("/u")
		if err := s.CopyTreeAtomic(ctx, "/u", "/v", CopyOptions{}); err != nil {
			t.Fatal(err)
		}
		observe("/v")
		mustDelete("/u")
		observe("/v")
		mustPut(t, s, "/u", "jjjj")
		observe("/u")
		observe("/v")
	})
}

// TestPathUnderADocumentIsNotFound: a path below a document names
// nothing. Reads and deletes of it are ErrNotFound, and creating it is
// ErrConflict (its parent is not a collection), on both stores: the
// filesystem's ENOTDIR is not a store error of its own.
func TestPathUnderADocumentIsNotFound(t *testing.T) {
	ctx := context.Background()
	eachStore(t, func(t *testing.T, s Store) {
		mustPut(t, s, "/a", "x")
		const p = "/a/b"
		name := xml.Name{Space: "e:", Local: "k"}
		for op, err := range map[string]error{
			"Stat":          func() error { _, err := s.Stat(ctx, p); return err }(),
			"StatWithProps": func() error { _, _, err := s.StatWithProps(ctx, p); return err }(),
			"ListWithProps": func() error { _, err := s.ListWithProps(ctx, p); return err }(),
			"Get":           func() error { _, _, err := s.Get(ctx, p); return err }(),
			"Delete":        s.Delete(ctx, p),
			"PropPut":       s.PropPut(ctx, p, name, []byte("v")),
			"Rename":        s.Rename(ctx, p, "/c"),
		} {
			if !errors.Is(err, ErrNotFound) {
				t.Errorf("%s %s = %v, want ErrNotFound", op, p, err)
			}
		}
		if _, err := s.Put(ctx, p, strings.NewReader("y"), ""); !errors.Is(err, ErrConflict) {
			t.Errorf("Put %s = %v, want ErrConflict", p, err)
		}
		if err := s.Mkcol(ctx, p); !errors.Is(err, ErrConflict) {
			t.Errorf("Mkcol %s = %v, want ErrConflict", p, err)
		}
	})
}
