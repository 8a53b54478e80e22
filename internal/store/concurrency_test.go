package store

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/dbm"
	"repro/internal/store/pathlock"
)

// seedTree builds a small hierarchy with dead properties on some
// resources.
func seedTree(t *testing.T, s Store) {
	t.Helper()
	mustMkcol(t, s, "/proj")
	mustMkcol(t, s, "/proj/calc")
	mustPut(t, s, "/proj/calc/input.dat", "coords")
	mustPut(t, s, "/proj/calc/output.log", "energy")
	mustPut(t, s, "/proj/readme.txt", "hello")
	for _, p := range []string{"/proj/calc/input.dat", "/proj/readme.txt", "/proj/calc"} {
		if err := s.PropPut(context.Background(), p, xml.Name{Space: "ecce:", Local: "state"}, []byte("<v>ok</v>")); err != nil {
			t.Fatalf("PropPut %s: %v", p, err)
		}
	}
}

// narrowReader is the one-name-at-a-time read set FSStore still has
// outside Store.
type narrowReader interface {
	List(ctx context.Context, p string) ([]ResourceInfo, error)
	PropAll(ctx context.Context, p string) (map[xml.Name][]byte, error)
}

// TestBatchReadsMatchNarrowReads checks that the batched BatchReader
// path returns exactly what the narrow Stat/List/PropAll composition
// would. A store without List and PropAll (MemStore) is checked against
// Stat alone.
func TestBatchReadsMatchNarrowReads(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		ctx := context.Background()
		nr, narrow := s.(narrowReader)
		seedTree(t, s)
		for _, p := range []string{"/", "/proj", "/proj/calc", "/proj/calc/input.dat"} {
			ri, props, err := s.StatWithProps(ctx, p)
			if err != nil {
				t.Fatalf("StatWithProps %s: %v", p, err)
			}
			wantRI, err := s.Stat(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ri, wantRI) {
				t.Fatalf("StatWithProps info mismatch at %s:\n got %+v\nwant %+v", p, ri, wantRI)
			}
			if !narrow {
				continue
			}
			wantProps, err := nr.PropAll(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(props) != len(wantProps) {
				t.Fatalf("StatWithProps props mismatch at %s: got %v want %v", p, props, wantProps)
			}
			for n, v := range wantProps {
				if string(props[n]) != string(v) {
					t.Fatalf("prop %v at %s: got %q want %q", n, p, props[n], v)
				}
			}
		}
		for _, p := range []string{"/", "/proj", "/proj/calc"} {
			members, err := s.ListWithProps(ctx, p)
			if err != nil {
				t.Fatalf("ListWithProps %s: %v", p, err)
			}
			var want []ResourceInfo
			if narrow {
				if want, err = nr.List(ctx, p); err != nil {
					t.Fatal(err)
				}
			} else {
				for _, m := range members {
					ri, err := s.Stat(ctx, m.Info.Path)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, ri)
				}
			}
			if len(members) != len(want) {
				t.Fatalf("ListWithProps %s: %d members, List says %d", p, len(members), len(want))
			}
			for i, m := range members {
				if !reflect.DeepEqual(m.Info, want[i]) {
					t.Fatalf("member %d info mismatch at %s:\n got %+v\nwant %+v", i, p, m.Info, want[i])
				}
				if !narrow {
					continue
				}
				wantProps, err := nr.PropAll(ctx, m.Info.Path)
				if err != nil {
					t.Fatal(err)
				}
				if len(m.Props) != len(wantProps) {
					t.Fatalf("member %s props: got %v want %v", m.Info.Path, m.Props, wantProps)
				}
			}
		}
		if _, err := s.ListWithProps(ctx, "/proj/readme.txt"); !errors.Is(err, ErrNotCollection) {
			t.Fatalf("ListWithProps on a document: err = %v, want ErrNotCollection", err)
		}
		if _, _, err := s.StatWithProps(ctx, "/nope"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("StatWithProps on missing: err = %v, want ErrNotFound", err)
		}
	})
}

// TestETagDistinguishesSameSizeOverwrite is the regression test for the
// strengthened document ETag: overwriting a document with same-size
// content must change the ETag even when the mtime granularity cannot
// tell the two writes apart.
func TestETagDistinguishesSameSizeOverwrite(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		mustPut(t, s, "/doc.txt", "aaaa")
		before, err := s.Stat(context.Background(), "/doc.txt")
		if err != nil {
			t.Fatal(err)
		}
		mustPut(t, s, "/doc.txt", "bbbb") // same size
		after, err := s.Stat(context.Background(), "/doc.txt")
		if err != nil {
			t.Fatal(err)
		}
		if before.ETag == after.ETag {
			t.Fatalf("same-size overwrite kept ETag %s", before.ETag)
		}
		mustPut(t, s, "/doc.txt", "cccc")
		third, err := s.Stat(context.Background(), "/doc.txt")
		if err != nil {
			t.Fatal(err)
		}
		if third.ETag == after.ETag || third.ETag == before.ETag {
			t.Fatalf("third write reused an earlier ETag: %s vs %s/%s",
				third.ETag, after.ETag, before.ETag)
		}
	})
}

// TestGenerationLazyMaterialization checks that the ETag generation
// counter does not materialize a property database on first PUT — the
// paper's disk-overhead experiment depends on databases existing only
// for resources that carry metadata.
func TestGenerationLazyMaterialization(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustPut(t, s, "/plain.txt", "v1")
	// The root metadata directory exists for the intent journal, but a
	// first PUT must not materialize a property database.
	if _, err := os.Stat(filepath.Join(dir, propDirName, "plain.txt"+propsExt)); !os.IsNotExist(err) {
		t.Fatalf("first PUT materialized a property database (err=%v)", err)
	}
	mustPut(t, s, "/plain.txt", "v2")
	pp := filepath.Join(dir, propDirName, "plain.txt"+propsExt)
	if _, err := os.Stat(pp); err != nil {
		t.Fatalf("overwrite did not persist the generation: %v", err)
	}
	ri, err := s.Stat(context.Background(), "/plain.txt")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(ri.ETag, "-") != 3 { // inode-size-mtime-generation
		t.Fatalf("overwritten document ETag %s lacks the generation field", ri.ETag)
	}
}

// Every read of a resource that has no property database finds that out
// with a non-creating open: nothing is created, not even the
// collection's metadata directory, and the lookups count as neither
// hits nor opens of the handle cache.
func TestReadsOfBareResourcesCreateNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStore(dir, dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustMkcol(t, s, "/bare")
	mustPut(t, s, "/bare/doc.txt", "v1")
	ctx := context.Background()
	name := xml.Name{Space: "ns:", Local: "k"}
	base := s.CacheStats()
	for _, p := range []string{"/bare", "/bare/doc.txt"} {
		if _, err := s.Stat(ctx, p); err != nil {
			t.Errorf("Stat %s: %v", p, err)
		}
		if _, props, err := s.StatWithProps(ctx, p); err != nil || props == nil || len(props) != 0 {
			t.Errorf("StatWithProps %s = %v, %v; want an empty map", p, props, err)
		}
		if _, ok, err := s.PropGet(ctx, p, name); err != nil || ok {
			t.Errorf("PropGet %s = %v, %v", p, ok, err)
		}
		if props, err := s.PropAll(ctx, p); err != nil || len(props) != 0 {
			t.Errorf("PropAll %s = %v, %v", p, props, err)
		}
		if err := s.PropDelete(ctx, p, name); err != nil {
			t.Errorf("PropDelete %s: %v", p, err)
		}
	}
	if members, err := s.ListWithProps(ctx, "/bare"); err != nil || len(members) != 1 || members[0].Props == nil {
		t.Errorf("ListWithProps /bare = %v, %v", members, err)
	}
	if got := readBody(t, s, "/bare/doc.txt"); got != "v1" {
		t.Errorf("Get = %q", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "bare", propDirName)); !os.IsNotExist(err) {
		t.Errorf("reads created the collection's metadata directory (err=%v)", err)
	}
	if after := s.CacheStats(); after.Hits != base.Hits || after.Misses != base.Misses || after.Open != base.Open {
		t.Errorf("lookups of absent databases moved the handle cache: %+v -> %+v", base, after)
	}
	// The same calls on a missing resource still say so.
	if _, err := s.PropAll(ctx, "/bare/none"); !errors.Is(err, ErrNotFound) {
		t.Errorf("PropAll of a missing resource = %v, want ErrNotFound", err)
	}
	if err := s.PropPut(ctx, "/bare/none", name, []byte("v")); !errors.Is(err, ErrNotFound) {
		t.Errorf("PropPut on a missing resource = %v, want ErrNotFound", err)
	}
	// And the first write creates directory and database in one go.
	if err := s.PropPut(ctx, "/bare/doc.txt", name, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := s.PropGet(ctx, "/bare/doc.txt", name); err != nil || !ok || string(v) != "v" {
		t.Errorf("PropGet after PropPut = %q, %v, %v", v, ok, err)
	}
	if after := s.CacheStats(); after.Misses != base.Misses+1 {
		t.Errorf("creating the first database of a collection cost %d opens, want 1", after.Misses-base.Misses)
	}
}

// TestFSStoreListWithPropsOpensEachDBOnce is the acceptance check for
// the handle cache: resolving a Depth:1 listing must cost at most one
// database open per distinct property database, and a second resolution
// of the same listing must be served entirely from cache.
func TestFSStoreListWithPropsOpensEachDBOnce(t *testing.T) {
	s, err := NewFSStore(t.TempDir(), dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustMkcol(t, s, "/d")
	const n = 8
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("/d/f%d.dat", i)
		mustPut(t, s, p, "body")
		if err := s.PropPut(context.Background(), p, xml.Name{Space: "ns:", Local: "k"}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Drop everything cached by the setup writes to isolate the reads.
	s.cache.Close()
	base := s.CacheStats()

	if _, err := s.ListWithProps(context.Background(), "/d"); err != nil {
		t.Fatal(err)
	}
	after := s.CacheStats()
	if opens := after.Misses - base.Misses; opens != n {
		t.Fatalf("first listing opened %d databases, want %d (one per member)", opens, n)
	}

	if _, err := s.ListWithProps(context.Background(), "/d"); err != nil {
		t.Fatal(err)
	}
	final := s.CacheStats()
	if final.Misses != after.Misses {
		t.Fatalf("second listing reopened databases: misses %d -> %d", after.Misses, final.Misses)
	}
	if final.Hits <= after.Hits {
		t.Fatal("second listing recorded no cache hits")
	}
}

// TestFSStoreRenameInvalidatesCachedHandles ensures cached property
// databases follow a directory rename instead of pinning the old
// files.
func TestFSStoreRenameInvalidatesCachedHandles(t *testing.T) {
	s, err := NewFSStore(t.TempDir(), dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustMkcol(t, s, "/old")
	mustPut(t, s, "/old/f.dat", "body")
	name := xml.Name{Space: "ns:", Local: "k"}
	if err := s.PropPut(context.Background(), "/old/f.dat", name, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.PropGet(context.Background(), "/old/f.dat", name); err != nil {
		t.Fatal(err) // warm the cache
	}
	if err := s.Rename(context.Background(), "/old", "/new"); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.PropGet(context.Background(), "/new/f.dat", name)
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("prop after rename: %q, %v, %v", v, ok, err)
	}
	if err := s.PropPut(context.Background(), "/new/f.dat", name, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stat(context.Background(), "/old/f.dat"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("old path still visible: %v", err)
	}
}

// TestCopyTreeAtomicSnapshot checks that a Depth:infinity COPY is a
// consistent snapshot: a Put racing with the copy must wait for the
// copy's subtree-shared lock, so the destination always reflects the
// pre-copy contents. The assertion
// holds in every legal interleaving (the writer either runs strictly
// before or strictly after the copy); only a per-resource-locking
// regression can make the new value leak into the destination.
func TestCopyTreeAtomicSnapshot(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		ls, ok := s.(interface{ LockStats() pathlock.Stats })
		if !ok {
			t.Fatalf("%T does not expose LockStats", s)
		}
		mustMkcol(t, s, "/src")
		mustMkcol(t, s, "/src/sub")
		// Enough members that the copy has real work to do before it
		// reaches the last-sorting document the writer targets.
		for i := 0; i < 40; i++ {
			mustPut(t, s, fmt.Sprintf("/src/f%02d.dat", i), "v1")
			mustPut(t, s, fmt.Sprintf("/src/sub/g%02d.dat", i), "v1")
		}
		mustPut(t, s, "/src/zz-last.dat", "v1")

		if held := ls.LockStats().Held; held != 0 {
			t.Fatalf("baseline held guards = %d, want 0", held)
		}
		done := make(chan error, 1)
		go func() {
			done <- s.CopyTreeAtomic(context.Background(), "/src", "/dst", CopyOptions{Recurse: true})
		}()
		// Wait until the copy holds its guard (or has already finished)
		// so the racing write overlaps the copy as often as possible.
		for ls.LockStats().Held == 0 {
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("CopyTree: %v", err)
				}
				done <- nil // re-arm for the drain below
			default:
			}
			if len(done) == 1 {
				break
			}
		}
		// This Put must block until the copy releases the shared lock on
		// the /src subtree; it can never interleave mid-copy.
		mustPut(t, s, "/src/zz-last.dat", "v2")
		if err := <-done; err != nil {
			t.Fatalf("CopyTree: %v", err)
		}
		if got := readBody(t, s, "/dst/zz-last.dat"); got != "v1" {
			t.Fatalf("destination saw mid-copy write: %q, want pre-copy %q", got, "v1")
		}
		if got := readBody(t, s, "/src/zz-last.dat"); got != "v2" {
			t.Fatalf("source lost the racing write: %q", got)
		}
		if got := readBody(t, s, "/dst/sub/g07.dat"); got != "v1" {
			t.Fatalf("nested member not copied: %q", got)
		}
	})
}

// TestMixedOperationStress hammers both stores with a concurrent mix of
// reads, writes, property updates, moves and deletes across sibling and
// nested subtrees. Run with -race; correctness here is "no data race,
// no deadlock, no structural corruption".
func TestMixedOperationStress(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		const workers = 8
		const iters = 60
		for w := 0; w < workers; w++ {
			mustMkcol(t, s, fmt.Sprintf("/w%d", w))
			mustMkcol(t, s, fmt.Sprintf("/w%d/deep", w))
		}
		mustMkcol(t, s, "/shared")
		name := xml.Name{Space: "ns:", Local: "k"}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				home := fmt.Sprintf("/w%d", w)
				for i := 0; i < iters; i++ {
					doc := fmt.Sprintf("%s/deep/f%d.dat", home, i%4)
					if _, err := s.Put(context.Background(), doc, strings.NewReader("body"), ""); err != nil {
						t.Errorf("Put %s: %v", doc, err)
						return
					}
					if err := s.PropPut(context.Background(), doc, name, []byte(fmt.Sprintf("v%d", i))); err != nil {
						t.Errorf("PropPut %s: %v", doc, err)
						return
					}
					// Cross-tree reads: list a sibling worker's subtree
					// and the shared root while it is being mutated.
					other := fmt.Sprintf("/w%d/deep", (w+1)%workers)
					if _, err := s.ListWithProps(context.Background(), other); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("ListWithProps %s: %v", other, err)
						return
					}
					if _, err := s.ListWithProps(context.Background(), "/"); err != nil {
						t.Errorf("ListWithProps /: %v", err)
						return
					}
					// Shared collection churn: put, stat, delete.
					shared := fmt.Sprintf("/shared/w%d-%d.dat", w, i%2)
					if _, err := s.Put(context.Background(), shared, strings.NewReader("s"), ""); err != nil {
						t.Errorf("Put %s: %v", shared, err)
						return
					}
					if i%5 == 0 {
						if err := s.Delete(context.Background(), shared); err != nil && !errors.Is(err, ErrNotFound) {
							t.Errorf("Delete %s: %v", shared, err)
							return
						}
					}
					// Periodic subtree move within the worker's own tree
					// (always disjoint from other workers' moves).
					if i%10 == 9 {
						src, dst := home+"/deep", home+"/moved"
						if err := s.Rename(context.Background(), src, dst); err != nil {
							t.Errorf("Rename %s -> %s: %v", src, dst, err)
							return
						}
						if err := s.Rename(context.Background(), dst, src); err != nil {
							t.Errorf("Rename %s -> %s: %v", dst, src, err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		// Structural sanity after the storm.
		for w := 0; w < workers; w++ {
			deep := fmt.Sprintf("/w%d/deep", w)
			members, err := s.ListWithProps(context.Background(), deep)
			if err != nil {
				t.Fatalf("post-stress ListWithProps %s: %v", deep, err)
			}
			for _, m := range members {
				if got := readBody(t, s, m.Info.Path); got != "body" {
					t.Fatalf("corrupt body at %s: %q", m.Info.Path, got)
				}
				if v, ok := m.Props[name]; !ok || !strings.HasPrefix(string(v), "v") {
					t.Fatalf("lost property at %s: %q %v", m.Info.Path, v, ok)
				}
			}
		}
	})
}
