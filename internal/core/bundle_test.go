package core

import (
	"errors"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chem"
	"repro/internal/davclient"
	"repro/internal/davserver"
	"repro/internal/dbm"
	"repro/internal/model"
	"repro/internal/store"
)

// buildStorage serves a davd assembled by davserver.Build, under prefix
// when it is not empty, and returns storage and its client over it.
func buildStorage(t *testing.T, prefix string) (*DAVStorage, *davclient.Client) {
	t.Helper()
	s := storageAt(t, buildServer(t, prefix))
	return s, s.Client()
}

// buildServer serves a davd assembled by davserver.Build, under prefix
// when it is not empty, and returns its base URL.
func buildServer(t *testing.T, prefix string) string {
	t.Helper()
	fs, err := store.NewFSStore(t.TempDir(), dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	cfg := davserver.DefaultConfig()
	cfg.Store = fs // injected, so no background recovery answers 503 at first
	cfg.Prefix = prefix
	cfg.NoAccessLog = true
	srv, err := davserver.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dav := httptest.NewServer(srv.Handler)
	t.Cleanup(func() {
		dav.Close()
		srv.Close()
	})
	return dav.URL + prefix
}

// storageAt is a DAVStorage over a new client of base.
func storageAt(t *testing.T, base string) *DAVStorage {
	t.Helper()
	c, err := davclient.New(davclient.Config{BaseURL: base, Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	s := NewDAVStorage(c)
	t.Cleanup(func() { s.Close() })
	return s
}

var bundleCreated = time.Date(2001, 8, 7, 12, 0, 0, 0, time.UTC)

// saveTable3 stores the calc_browse calculation: UO2·2H2O, STO-3G, one
// energy task, a finished job and three output properties.
func saveTable3(t *testing.T, s *DAVStorage, calcPath string) {
	t.Helper()
	calc := model.Calculation{Name: "uranyl", Theory: "DFT", State: model.StateComplete,
		Annotation: `a "quoted" & <marked> note`, Created: bundleCreated}
	mol := chem.MakeUO2nH2O(2)
	mol.Charge, mol.Symmetry = 2, "C2v"
	start := bundleCreated.Add(time.Minute)
	for _, step := range []error{
		s.CreateCalculation(calcPath, calc),
		s.SaveMolecule(calcPath, mol, chem.FormatXYZ),
		s.SaveBasis(calcPath, chem.STO3G()),
		s.SaveTask(calcPath, model.Task{Name: "energy", Kind: model.TaskEnergy, Sequence: 1, InputDeck: "task energy\n"}),
		s.SaveJob(calcPath, model.Job{Host: "mpp2", Queue: "batch", BatchID: "1234", NodeCount: 16,
			Status: model.JobDone, SubmitTime: bundleCreated, StartTime: start, EndTime: start.Add(time.Hour)}),
		s.SaveProperty(calcPath, model.Property{Name: "total energy", Units: "hartree", Values: []float64{-76.02}}),
		s.SaveProperty(calcPath, model.Property{Name: "dipole", Units: "debye", Dims: []int{3}, Values: []float64{0, 0, 1.8}}),
		s.SaveProperty(calcPath, model.Property{Name: "gradient", Dims: []int{3, 3}, Values: make([]float64, 9)}),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
}

// perObject is a DataStorage whose Prefetch does nothing: LoadBundle
// over it is the six per-object readers, each sending its own requests.
type perObject struct{ DataStorage }

func (perObject) Prefetch(string) (func(), error) { return func() {}, nil }

// TestLoadBundleMatchesEach: over a Prefetch, LoadBundle reads the very
// bundle the six per-object readers assemble alone, for every shape a
// calculation can take, on a davd with and without a path prefix, and
// sends one PROPFIND plus one GET per document it returns.
func TestLoadBundleMatchesEach(t *testing.T) {
	shapes := []struct {
		name   string
		save   func(t *testing.T, s *DAVStorage, p string)
		bodies int // documents LoadBundle GETs
	}{
		{"full", saveTable3, 6},
		{"bare", func(t *testing.T, s *DAVStorage, p string) {
			// No molecule, basis, tasks/, properties/ or job.
			if err := s.CreateCalculation(p, model.Calculation{Name: "bare", Created: bundleCreated}); err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"zero-time-job", func(t *testing.T, s *DAVStorage, p string) {
			s.CreateCalculation(p, model.Calculation{Name: "queued", State: model.StateSubmitted, Created: bundleCreated})
			if err := s.SaveJob(p, model.Job{Host: "h", Status: model.JobPending}); err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"tasks-out-of-sequence", func(t *testing.T, s *DAVStorage, p string) {
			s.CreateCalculation(p, model.Calculation{Name: "opt", Created: bundleCreated})
			for _, task := range []model.Task{
				{Name: "frequencies", Kind: model.TaskFrequency, Sequence: 3, InputDeck: "freq"},
				{Name: "optimize", Kind: model.TaskOptimize, Sequence: 1, InputDeck: "opt"},
				{Name: "energy", Kind: model.TaskEnergy, Sequence: 2, InputDeck: "energy"},
			} {
				if err := s.SaveTask(p, task); err != nil {
					t.Fatal(err)
				}
			}
		}, 3},
		{"raw-and-nested", func(t *testing.T, s *DAVStorage, p string) {
			saveTable3(t, s, p)
			if err := s.SaveRawFile(p, "output.log", []byte("converged\n"), "text/plain"); err != nil {
				t.Fatal(err)
			}
			// A collection of the calculation's own, and one inside
			// tasks/ holding a document typed as a task and one typed as
			// a property: a Depth-1 read of tasks/ does not see them.
			for _, dir := range []string{p + "/extra", p + "/tasks/archive"} {
				if err := s.Client().Mkcol(dir); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Client().PutBytes(dir+"/old", []byte("old deck"), "text/plain"); err != nil {
					t.Fatal(err)
				}
			}
			s.Annotate(p+"/tasks/archive/old", PropObjectType, string(TypeTask))
			s.Annotate(p+"/extra/old", PropObjectType, string(TypeProperty))
		}, 6},
		// The listing's hrefs carry these characters as they are.
		{"calc #3 & co", saveTable3, 6},
	}
	for _, prefix := range []string{"", "/dav"} {
		t.Run("prefix="+prefix, func(t *testing.T) {
			s, c := buildStorage(t, prefix)
			if err := s.CreateProject("/p", model.Project{Name: "p", Created: bundleCreated}); err != nil {
				t.Fatal(err)
			}
			for _, sh := range shapes {
				p := "/p/" + sh.name
				sh.save(t, s, p)
				before := c.RequestCount()
				got, err := LoadBundle(s, p)
				if err != nil {
					t.Fatalf("%s: %v", sh.name, err)
				}
				if n := c.RequestCount() - before; n != int64(1+sh.bodies) {
					t.Errorf("%s: LoadBundle sent %d requests, want 1 PROPFIND and %d GETs", sh.name, n, sh.bodies)
				}
				want, err := LoadBundle(perObject{s}, p)
				if err != nil {
					t.Fatalf("%s: per object: %v", sh.name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: LoadBundle\n got %+v\nwant %+v", sh.name, got, want)
				}
				if sh.bodies == 6 && (got.Molecule == nil || got.Basis == nil || got.Job == nil ||
					len(got.Tasks) != 1 || len(got.Properties) != 3) {
					t.Errorf("%s: bundle lost a part: %+v", sh.name, got)
				}
			}
			b, err := LoadBundle(s, "/p/tasks-out-of-sequence")
			if err != nil {
				t.Fatal(err)
			}
			var seq []int
			for _, task := range b.Tasks {
				seq = append(seq, task.Sequence)
			}
			if !reflect.DeepEqual(seq, []int{1, 2, 3}) {
				t.Errorf("task sequence = %v, want [1 2 3]", seq)
			}

			// Not a calculation: a project, a document, nothing at all.
			for _, p := range []string{"/p", "/p/full/molecule", "/p/missing", "/nowhere/at/all"} {
				if _, err := LoadBundle(s, p); !errors.Is(err, ErrNotFound) {
					t.Errorf("LoadBundle(%s) = %v, want ErrNotFound", p, err)
				}
				if _, err := LoadBundle(perObject{s}, p); !errors.Is(err, ErrNotFound) {
					t.Errorf("per object LoadBundle(%s) = %v, want ErrNotFound", p, err)
				}
			}
		})
	}
}

// spyStorage records which readers a caller reached through it, as a
// tracing or caching wrapper around a DataStorage would.
type spyStorage struct {
	DataStorage
	calls map[string]int
}

func (s spyStorage) LoadCalculation(p string) (model.Calculation, error) {
	s.calls["calculation"]++
	return s.DataStorage.LoadCalculation(p)
}

func (s spyStorage) LoadProperties(p string) ([]model.Property, error) {
	s.calls["properties"]++
	return s.DataStorage.LoadProperties(p)
}

// TestLoadBundleThroughWrapper: a wrapper that embeds the storage still
// sees LoadBundle's per-object reads, and they still take their
// metadata from the one listing.
func TestLoadBundleThroughWrapper(t *testing.T) {
	s, c := buildStorage(t, "")
	s.CreateProject("/p", model.Project{Name: "p", Created: bundleCreated})
	saveTable3(t, s, "/p/c")
	spy := spyStorage{s, map[string]int{}}
	before := c.RequestCount()
	b, err := LoadBundle(spy, "/p/c")
	if err != nil {
		t.Fatal(err)
	}
	if n := c.RequestCount() - before; n != 7 {
		t.Errorf("LoadBundle through a wrapper sent %d requests, want 7", n)
	}
	if spy.calls["calculation"] != 1 || spy.calls["properties"] != 1 || len(b.Properties) != 3 {
		t.Errorf("wrapper saw %v and %d properties", spy.calls, len(b.Properties))
	}
	// The view closes with LoadBundle: a reader afterwards asks the server.
	before = c.RequestCount()
	if _, err := s.LoadCalculation("/p/c"); err != nil {
		t.Fatal(err)
	}
	if n := c.RequestCount() - before; n != 1 {
		t.Errorf("LoadCalculation after LoadBundle sent %d requests, want 1", n)
	}
}

// TestWriteClosesStaleViews: a write through the storage closes every
// open Prefetch view whose root is the written path, lies above it or
// lies under it, so the reads after it see the write; a view elsewhere
// stays open.
func TestWriteClosesStaleViews(t *testing.T) {
	s, c := buildStorage(t, "")
	s.CreateProject("/p", model.Project{Name: "p", Created: bundleCreated})
	saveTable3(t, s, "/p/c")
	saveTable3(t, s, "/p/d")
	prefetch := func(p string) func() {
		t.Helper()
		done, err := s.Prefetch(p)
		if err != nil {
			t.Fatal(err)
		}
		return done
	}

	// Above the written path: a view of the calculation, a write of its
	// job.
	defer prefetch("/p/c")()
	if err := s.SaveJob("/p/c", model.Job{Host: "newhost", Status: model.JobDone}); err != nil {
		t.Fatal(err)
	}
	if job, err := s.LoadJob("/p/c"); err != nil || job.Host != "newhost" {
		t.Errorf("LoadJob after SaveJob = %+v, %v; want host newhost", job, err)
	}

	// Under the written path: a view of tasks/, a Delete of the
	// calculation.
	defer prefetch("/p/c/tasks")()
	defer prefetch("/p/d")()
	if err := s.Delete("/p/c"); err != nil {
		t.Fatal(err)
	}
	if tasks, err := s.LoadTasks("/p/c"); err != nil || len(tasks) != 0 {
		t.Errorf("LoadTasks after Delete = %v, %v; want none", tasks, err)
	}

	// The view of another calculation still answers: LoadJob sends
	// nothing.
	before := c.RequestCount()
	if _, err := s.LoadJob("/p/d"); err != nil {
		t.Fatal(err)
	}
	if n := c.RequestCount() - before; n != 0 {
		t.Errorf("LoadJob under an untouched view sent %d requests, want 0", n)
	}
}

// TestLoadBundleConcurrent: goroutines sharing one DAVStorage each
// read the bundle their own per-object reads assemble, while their
// views of the same and of different calculations open and close, and
// while writes above them all close every open view mid-load.
func TestLoadBundleConcurrent(t *testing.T) {
	s, _ := buildStorage(t, "")
	s.CreateProject("/p", model.Project{Name: "p", Created: bundleCreated})
	want := map[string]*model.CalculationBundle{}
	for _, p := range []string{"/p/a", "/p/b"} {
		saveTable3(t, s, p)
		b, err := LoadBundle(perObject{s}, p)
		if err != nil {
			t.Fatal(err)
		}
		want[p] = b
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := s.Annotate("/p", EcceName("touched"), "yes"); err != nil {
				t.Error(err)
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				p := []string{"/p/a", "/p/b"}[(g+i)%2]
				if got, err := LoadBundle(s, p); err != nil || !reflect.DeepEqual(got, want[p]) {
					t.Errorf("goroutine %d: LoadBundle(%s) = %+v, %v", g, p, got, err)
				}
			}
		}()
	}
	wg.Wait()
	if len(s.views) != 0 {
		t.Errorf("%d views left open", len(s.views))
	}
}

// TestLoadBundleUnderBrownout: a server that refuses Depth: infinity
// PROPFIND (RFC 4918 §9.1) is read object by object, and the bundle is
// the same. The refusal's Retry-After is honoured: the first load costs
// the refused listing plus the per-object sequence's 11 requests for
// the calc_browse calculation, the loads within Retry-After the 11.
// Without a listing no kept body is used; with one again, every body
// is, and the load is the listing alone.
func TestLoadBundleUnderBrownout(t *testing.T) {
	var degraded atomic.Bool
	srv := httptest.NewServer(davserver.NewHandler(store.NewMemStore(),
		&davserver.Options{Degraded: degraded.Load}))
	t.Cleanup(srv.Close)
	c, err := davclient.New(davclient.Config{BaseURL: srv.URL, Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	s := NewDAVStorage(c)
	t.Cleanup(func() { s.Close() })
	s.CreateProject("/p", model.Project{Name: "p", Created: bundleCreated})
	saveTable3(t, s, "/p/c")

	load := func(want int64) *model.CalculationBundle {
		t.Helper()
		before := c.RequestCount()
		b, err := LoadBundle(s, "/p/c")
		if err != nil {
			t.Fatal(err)
		}
		if n := c.RequestCount() - before; n != want {
			t.Fatalf("LoadBundle sent %d requests, want %d", n, want)
		}
		return b
	}
	healthy := load(7)
	degraded.Store(true)
	for _, want := range []int64{1 + 11, 11} {
		if browned := load(want); !reflect.DeepEqual(browned, healthy) {
			t.Fatalf("browned-out bundle\n got %+v\nwant %+v", browned, healthy)
		}
	}
	degraded.Store(false)
	load(11) // Retry-After has not passed
	s.mu.Lock()
	s.finiteUntil = time.Now()
	s.mu.Unlock()
	load(1)
}
