package core

import (
	"bytes"
	"context"
	"encoding/xml"
	"io"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/chem"
	"repro/internal/davserver"
	"repro/internal/model"
	"repro/internal/store"
)

// loadCounted is LoadBundle of p, failing t unless it sent want
// requests.
func loadCounted(t *testing.T, s *DAVStorage, p string, want int64) *model.CalculationBundle {
	t.Helper()
	before := s.Client().RequestCount()
	b, err := LoadBundle(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Client().RequestCount() - before; n != want {
		t.Fatalf("LoadBundle(%s) sent %d requests, want %d", p, n, want)
	}
	return b
}

// TestWarmLoadIsTheListingAlone: the first LoadBundle of the
// calc_browse calculation is the listing and six GETs, the next the
// listing alone, with and without a path prefix, and the bundle is the
// same. Outside a view a reader asks the server.
func TestWarmLoadIsTheListingAlone(t *testing.T) {
	for _, prefix := range []string{"", "/dav"} {
		s, c := buildStorage(t, prefix)
		s.CreateProject("/p", model.Project{Name: "p", Created: bundleCreated})
		saveTable3(t, s, "/p/c d")
		cold := loadCounted(t, s, "/p/c d", 7)
		if warm := loadCounted(t, s, "/p/c d", 1); !reflect.DeepEqual(warm, cold) {
			t.Errorf("prefix %q: warm bundle\n got %+v\nwant %+v", prefix, warm, cold)
		}
		before := c.RequestCount()
		if _, err := s.LoadBasis("/p/c d"); err != nil {
			t.Fatal(err)
		}
		if n := c.RequestCount() - before; n != 1 {
			t.Errorf("prefix %q: LoadBasis outside a view sent %d requests, want 1", prefix, n)
		}
	}
}

// TestKeptBodySeesForeignOverwrite: another client overwrites the
// molecule with a body of the same size; the next load's listing names
// the new ETag, so that load GETs the molecule again (2 requests) and
// returns the new one.
func TestKeptBodySeesForeignOverwrite(t *testing.T) {
	base := buildServer(t, "")
	s, other := storageAt(t, base), storageAt(t, base)
	s.CreateProject("/p", model.Project{Name: "p", Created: bundleCreated})
	saveTable3(t, s, "/p/c")
	loadCounted(t, s, "/p/c", 7)

	body, err := other.Client().Get("/p/c/molecule")
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.LastIndexAny(body, "0123456789")
	body[i] = "1012345678"[body[i]-'0'] // one digit changed: the same size
	want, err := chem.Decode(body, chem.FormatXYZ)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Client().PutBytes("/p/c/molecule", body, "chemical/x-xyz"); err != nil {
		t.Fatal(err)
	}
	got := loadCounted(t, s, "/p/c", 2).Molecule
	if !reflect.DeepEqual(got.Atoms, want.Atoms) {
		t.Errorf("molecule after a foreign overwrite\n got %v\nwant %v", got.Atoms, want.Atoms)
	}
	loadCounted(t, s, "/p/c", 1)
}

// etagStore serves its Store's resources under the ETags tag makes of
// the stored ones, in GET headers and in listings alike.
type etagStore struct {
	store.Store
	tag func(string) string
}

func (s etagStore) Stat(ctx context.Context, p string) (store.ResourceInfo, error) {
	ri, err := s.Store.Stat(ctx, p)
	ri.ETag = s.tag(ri.ETag)
	return ri, err
}

func (s etagStore) Get(ctx context.Context, p string) (io.ReadCloser, store.ResourceInfo, error) {
	rc, ri, err := s.Store.Get(ctx, p)
	ri.ETag = s.tag(ri.ETag)
	return rc, ri, err
}

func (s etagStore) StatWithProps(ctx context.Context, p string) (store.ResourceInfo, map[xml.Name][]byte, error) {
	ri, props, err := s.Store.StatWithProps(ctx, p)
	ri.ETag = s.tag(ri.ETag)
	return ri, props, err
}

func (s etagStore) ListWithProps(ctx context.Context, p string) ([]store.MemberProps, error) {
	ms, err := s.Store.ListWithProps(ctx, p)
	for i := range ms {
		ms[i].Info.ETag = s.tag(ms[i].Info.ETag)
	}
	return ms, err
}

// TestNoStrongETagNoKeptBody: a server that sends no ETag, or a weak
// one, in its listing and its GETs alike, has every body fetched on
// every load, and none kept.
func TestNoStrongETagNoKeptBody(t *testing.T) {
	for name, tag := range map[string]func(string) string{
		"none": func(string) string { return "" },
		"weak": func(etag string) string { return "W/" + etag },
	} {
		srv := httptest.NewServer(davserver.NewHandler(etagStore{store.NewMemStore(), tag}, nil))
		t.Cleanup(srv.Close)
		s := storageAt(t, srv.URL)
		s.CreateProject("/p", model.Project{Name: "p", Created: bundleCreated})
		saveTable3(t, s, "/p/c")
		cold := loadCounted(t, s, "/p/c", 7)
		if warm := loadCounted(t, s, "/p/c", 7); !reflect.DeepEqual(warm, cold) {
			t.Errorf("%s: second bundle differs", name)
		}
		if s.bodies.Len() != 0 || s.bodies.Size() != 0 {
			t.Errorf("%s: %d bodies (%d bytes) kept", name, s.bodies.Len(), s.bodies.Size())
		}
	}
}

// TestKeptBodiesStayWithinBound: kept bodies never sum past bodyBytes;
// the least recently used, by keeping or by a read, go first, and a
// body larger than the bound is not kept. The filler bodies are never
// written to. BodyCache's own bookkeeping is checked in davclient.
func TestKeptBodiesStayWithinBound(t *testing.T) {
	s, _ := buildStorage(t, "")
	s.CreateProject("/p", model.Project{Name: "p", Created: bundleCreated})
	saveTable3(t, s, "/p/c")
	s.keep("/oversized", `"big"`, make([]byte, bodyBytes+1))
	if s.bodies.Len() != 0 {
		t.Fatalf("a body of %d bytes was kept under a bound of %d", bodyBytes+1, bodyBytes)
	}
	loadCounted(t, s, "/p/c", 7)
	s.keep("/filler", `"f"`, make([]byte, bodyBytes-s.bodies.Size()-1024)) // 1 KiB to spare
	loadCounted(t, s, "/p/c", 1)                                           // the six bodies, read after the filler
	s.keep("/more", `"m"`, make([]byte, 2048))
	if _, ok := s.bodies.Get("/filler", `"f"`); ok {
		t.Error("the least recently used body outlived the bound")
	}
	if s.bodies.Size() > bodyBytes || s.bodies.Len() != 7 {
		t.Errorf("%d bodies of %d bytes kept, bound %d; want 7", s.bodies.Len(), s.bodies.Size(), bodyBytes)
	}
	loadCounted(t, s, "/p/c", 1)
}

// TestWriteDropsKeptBodies: a write through the storage drops the
// bodies kept on and under its path, and only those; a read after it
// fetches what it wrote. The closing one-request load of /p/d shows
// that its six bodies were kept throughout, so the counts below name
// what went from /p/c.
func TestWriteDropsKeptBodies(t *testing.T) {
	s, _ := buildStorage(t, "")
	s.CreateProject("/p", model.Project{Name: "p", Created: bundleCreated})
	saveTable3(t, s, "/p/c")
	saveTable3(t, s, "/p/d")
	loadCounted(t, s, "/p/c", 7)
	loadCounted(t, s, "/p/d", 7)

	_, etag, err := s.Client().GetETag("/p/c/molecule")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.bodies.Get("/p/c/molecule", etag); !ok || s.bodies.Len() != 12 {
		t.Fatalf("after two cold loads: %d bodies kept, want 12 with /p/c/molecule", s.bodies.Len())
	}
	mol := chem.MakeUO2nH2O(3)
	if err := s.SaveMolecule("/p/c", mol, chem.FormatXYZ); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.bodies.Get("/p/c/molecule", etag); ok || s.bodies.Len() != 11 {
		t.Errorf("after SaveMolecule: %d bodies kept, want the 12 less /p/c/molecule", s.bodies.Len())
	}
	if b := loadCounted(t, s, "/p/c", 2); len(b.Molecule.Atoms) != len(mol.Atoms) {
		t.Errorf("molecule has %d atoms, want %d", len(b.Molecule.Atoms), len(mol.Atoms))
	}

	if err := s.Copy("/p/d", "/p/c/copy"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("/p/c"); err != nil {
		t.Fatal(err)
	}
	if s.bodies.Len() != 6 {
		t.Errorf("after Delete: %d bodies kept, want the 6 of /p/d", s.bodies.Len())
	}
	if err := s.Copy("/p/d", "/p/c"); err != nil {
		t.Fatal(err)
	}
	loadCounted(t, s, "/p/c", 7)
	loadCounted(t, s, "/p/d", 1)
}

// TestRawFileIsTheCallersOwn: LoadRawFile hands back a copy of the kept
// body, so a caller that changes it changes no later read.
func TestRawFileIsTheCallersOwn(t *testing.T) {
	s, c := buildStorage(t, "")
	s.CreateProject("/p", model.Project{Name: "p", Created: bundleCreated})
	saveTable3(t, s, "/p/c")
	if err := s.SaveRawFile("/p/c", "output.log", []byte("converged\n"), "text/plain"); err != nil {
		t.Fatal(err)
	}
	done, err := s.Prefetch("/p/c")
	if err != nil {
		t.Fatal(err)
	}
	defer done()
	first, err := s.LoadRawFile("/p/c", "output.log")
	if err != nil {
		t.Fatal(err)
	}
	first[0] = 'X'
	before := c.RequestCount()
	again, err := s.LoadRawFile("/p/c", "output.log")
	if err != nil || string(again) != "converged\n" {
		t.Errorf("second LoadRawFile = %q, %v; want the stored body", again, err)
	}
	if n := c.RequestCount() - before; n != 0 {
		t.Errorf("second LoadRawFile under the view sent %d requests, want 0", n)
	}
}

// TestKeptBodiesUnderConcurrentWrites: goroutines sharing one
// DAVStorage load a calculation while another goroutine overwrites its
// molecule through the storage and a second client overwrites its basis
// behind it. Every load returns one of the molecules and bases written;
// once the writers are done, every load returns the last of each.
func TestKeptBodiesUnderConcurrentWrites(t *testing.T) {
	base := buildServer(t, "")
	s, other := storageAt(t, base), storageAt(t, base)
	s.CreateProject("/p", model.Project{Name: "p", Created: bundleCreated})
	saveTable3(t, s, "/p/c")
	mols := []*chem.Molecule{chem.MakeUO2nH2O(1), chem.MakeUO2nH2O(2), chem.MakeUO2nH2O(3)}
	bases := []*chem.BasisSet{chem.STO3G(), chem.STO3G()}
	bases[1].Name = "renamed"
	atoms := map[int]bool{}
	for _, m := range mols {
		atoms[len(m.Atoms)] = true
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			if err := s.SaveMolecule("/p/c", mols[i%len(mols)], chem.FormatXYZ); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			if _, err := other.Client().PutBytes("/p/c/basis", bases[i%2].Encode(), "text/plain"); err != nil {
				t.Error(err)
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				b, err := LoadBundle(s, "/p/c")
				if err != nil {
					t.Error(err)
					continue
				}
				if !atoms[len(b.Molecule.Atoms)] || b.Basis.Name != bases[0].Name && b.Basis.Name != bases[1].Name {
					t.Errorf("goroutine %d: a molecule of %d atoms and basis %q were never written",
						g, len(b.Molecule.Atoms), b.Basis.Name)
				}
			}
		}()
	}
	wg.Wait()
	last := mols[11%len(mols)]
	for i := 0; i < 2; i++ {
		b, err := LoadBundle(s, "/p/c")
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Molecule.Atoms) != len(last.Atoms) || b.Basis.Name != bases[1].Name {
			t.Errorf("load %d after the writes: %d atoms and basis %q, want %d and %q",
				i, len(b.Molecule.Atoms), b.Basis.Name, len(last.Atoms), bases[1].Name)
		}
	}
	if len(s.views) != 0 {
		t.Errorf("%d views left open", len(s.views))
	}
}
