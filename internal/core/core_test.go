package core

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/chem"
	"repro/internal/davclient"
	"repro/internal/davproto"
	"repro/internal/davserver"
	"repro/internal/model"
	"repro/internal/oodb"
	"repro/internal/store"
)

// newDAVStorage spins up an in-memory DAV server and returns storage
// over it.
func newDAVStorage(t *testing.T) *DAVStorage {
	t.Helper()
	h := davserver.NewHandler(store.NewMemStore(), nil)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	c, err := davclient.New(davclient.Config{BaseURL: srv.URL, Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	s := NewDAVStorage(c)
	t.Cleanup(func() { s.Close() })
	return s
}

// newOODBStorage spins up an OODB server and returns storage over it.
func newOODBStorage(t *testing.T) *OODBStorage {
	t.Helper()
	db, err := oodb.OpenDB(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := oodb.NewServer(db, SchemaFingerprint())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	c, err := oodb.Dial(addr, SchemaFingerprint())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewOODBStorage(c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// eachStorage runs a conformance test against both architectures —
// the Figure 2 claim that the tools are backend-independent.
func eachStorage(t *testing.T, fn func(t *testing.T, s DataStorage)) {
	t.Helper()
	t.Run("DAV", func(t *testing.T) { fn(t, newDAVStorage(t)) })
	t.Run("OODB", func(t *testing.T) { fn(t, newOODBStorage(t)) })
}

func TestProjectLifecycle(t *testing.T) {
	eachStorage(t, func(t *testing.T, s DataStorage) {
		proj := model.Project{Name: "Aqueous Chemistry", Description: "uranyl hydration",
			Created: time.Date(2001, 7, 1, 12, 0, 0, 0, time.UTC)}
		if err := s.CreateProject("/aqueous", proj); err != nil {
			t.Fatal(err)
		}
		got, err := s.LoadProject("/aqueous")
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != proj.Name || got.Description != proj.Description || !got.Created.Equal(proj.Created) {
			t.Fatalf("LoadProject = %+v", got)
		}
		if err := s.CreateProject("/aqueous", proj); !errors.Is(err, ErrExists) {
			t.Fatalf("duplicate project = %v", err)
		}
		if _, err := s.LoadProject("/missing"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("missing project = %v", err)
		}
	})
}

func TestCalculationLifecycle(t *testing.T) {
	eachStorage(t, func(t *testing.T, s DataStorage) {
		s.CreateProject("/p", model.Project{Name: "p"})
		calc := model.Calculation{Name: "uranyl-scf", Theory: "SCF",
			Annotation: "first attempt", Created: time.Date(2001, 7, 2, 0, 0, 0, 0, time.UTC)}
		if err := s.CreateCalculation("/p/uranyl-scf", calc); err != nil {
			t.Fatal(err)
		}
		got, err := s.LoadCalculation("/p/uranyl-scf")
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != calc.Name || got.Theory != "SCF" || got.State != model.StateCreated {
			t.Fatalf("LoadCalculation = %+v", got)
		}
		// State advance via SaveCalculation.
		got.State = model.StateReady
		if err := s.SaveCalculation("/p/uranyl-scf", got); err != nil {
			t.Fatal(err)
		}
		re, _ := s.LoadCalculation("/p/uranyl-scf")
		if re.State != model.StateReady {
			t.Fatalf("state = %v", re.State)
		}
	})
}

func TestMoleculeRoundTrip(t *testing.T) {
	eachStorage(t, func(t *testing.T, s DataStorage) {
		s.CreateProject("/p", model.Project{Name: "p"})
		s.CreateCalculation("/p/c", model.Calculation{Name: "c"})
		mol := chem.MakeUO2nH2O(15)
		if err := s.SaveMolecule("/p/c", mol, chem.FormatXYZ); err != nil {
			t.Fatal(err)
		}
		got, err := s.LoadMolecule("/p/c")
		if err != nil {
			t.Fatal(err)
		}
		if got.Formula() != mol.Formula() || got.Charge != 2 || got.AtomCount() != mol.AtomCount() {
			t.Fatalf("molecule = %q charge %d atoms %d", got.Formula(), got.Charge, got.AtomCount())
		}
		for i := range mol.Atoms {
			if math.Abs(got.Atoms[i].X-mol.Atoms[i].X) > 1e-6 {
				t.Fatalf("atom %d drifted", i)
			}
		}
		if _, err := s.LoadMolecule("/p/nope"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("missing molecule = %v", err)
		}
	})
}

func TestBasisRoundTrip(t *testing.T) {
	eachStorage(t, func(t *testing.T, s DataStorage) {
		s.CreateProject("/p", model.Project{Name: "p"})
		s.CreateCalculation("/p/c", model.Calculation{Name: "c"})
		if err := s.SaveBasis("/p/c", chem.STO3G()); err != nil {
			t.Fatal(err)
		}
		got, err := s.LoadBasis("/p/c")
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != "STO-3G" || len(got.Elements) != len(chem.STO3G().Elements) {
			t.Fatalf("basis = %+v", got)
		}
	})
}

func TestTasksOrderedBySequence(t *testing.T) {
	eachStorage(t, func(t *testing.T, s DataStorage) {
		s.CreateProject("/p", model.Project{Name: "p"})
		s.CreateCalculation("/p/c", model.Calculation{Name: "c"})
		// Save out of order.
		for _, seq := range []int{3, 1, 2} {
			task := model.Task{
				Name: fmt.Sprintf("step%d", seq), Kind: model.TaskEnergy,
				Sequence: seq, InputDeck: fmt.Sprintf("deck %d", seq),
			}
			if err := s.SaveTask("/p/c", task); err != nil {
				t.Fatal(err)
			}
		}
		tasks, err := s.LoadTasks("/p/c")
		if err != nil {
			t.Fatal(err)
		}
		if len(tasks) != 3 {
			t.Fatalf("tasks = %d", len(tasks))
		}
		for i, task := range tasks {
			if task.Sequence != i+1 {
				t.Fatalf("task %d sequence = %d", i, task.Sequence)
			}
			if task.InputDeck != fmt.Sprintf("deck %d", i+1) {
				t.Fatalf("task %d deck = %q", i, task.InputDeck)
			}
		}
		// No tasks yet on a fresh calculation.
		s.CreateCalculation("/p/empty", model.Calculation{Name: "empty"})
		tasks, err = s.LoadTasks("/p/empty")
		if err != nil || len(tasks) != 0 {
			t.Fatalf("empty tasks = (%v, %v)", tasks, err)
		}
	})
}

// A task document that carries its object type but has lost name, kind
// or sequence loads with those fields empty; looking up the missing
// properties must not panic.
func TestLoadTasksMissingProperty(t *testing.T) {
	s := newDAVStorage(t)
	s.CreateProject("/p", model.Project{Name: "p"})
	s.CreateCalculation("/p/c", model.Calculation{Name: "c"})
	task := model.Task{Name: "opt", Kind: model.TaskEnergy, Sequence: 1, InputDeck: "deck"}
	if err := s.SaveTask("/p/c", task); err != nil {
		t.Fatal(err)
	}
	doc := "/p/c/" + memberTasks + "/" + taskDocName(task)
	var ops []davproto.PatchOp
	for _, name := range []xml.Name{EcceName("name"), PropTaskKind, PropSequence} {
		ops = append(ops, davproto.PatchOp{Remove: true, Prop: davproto.NewTextProperty(name.Space, name.Local, "")})
	}
	if _, err := s.c.PropPatch(doc, ops); err != nil {
		t.Fatal(err)
	}
	tasks, err := s.LoadTasks("/p/c")
	if err != nil {
		t.Fatal(err)
	}
	if want := []model.Task{{InputDeck: "deck"}}; !reflect.DeepEqual(tasks, want) {
		t.Fatalf("tasks = %+v, want %+v", tasks, want)
	}
}

func TestJobRoundTrip(t *testing.T) {
	eachStorage(t, func(t *testing.T, s DataStorage) {
		s.CreateProject("/p", model.Project{Name: "p"})
		s.CreateCalculation("/p/c", model.Calculation{Name: "c"})
		job := model.Job{
			Host: "mpp2.emsl.pnl.gov", Queue: "large", BatchID: "12345",
			NodeCount: 128, Status: model.JobRunning,
			SubmitTime: time.Date(2001, 7, 2, 8, 0, 0, 0, time.UTC),
			StartTime:  time.Date(2001, 7, 2, 9, 30, 0, 0, time.UTC),
		}
		if err := s.SaveJob("/p/c", job); err != nil {
			t.Fatal(err)
		}
		got, err := s.LoadJob("/p/c")
		if err != nil {
			t.Fatal(err)
		}
		if got.Host != job.Host || got.NodeCount != 128 || got.Status != model.JobRunning {
			t.Fatalf("job = %+v", got)
		}
		if !got.SubmitTime.Equal(job.SubmitTime) || !got.StartTime.Equal(job.StartTime) {
			t.Fatalf("job times = %+v", got)
		}
		if !got.EndTime.IsZero() {
			t.Fatalf("zero end time round trip = %v", got.EndTime)
		}
	})
}

func TestPropertiesRoundTrip(t *testing.T) {
	eachStorage(t, func(t *testing.T, s DataStorage) {
		s.CreateProject("/p", model.Project{Name: "p"})
		s.CreateCalculation("/p/c", model.Calculation{Name: "c"})
		props := []model.Property{
			{Name: "total energy", Units: "hartree", Values: []float64{-76.026}},
			{Name: "dipole moment", Units: "debye", Dims: []int{3}, Values: []float64{0, 0, 2.1}},
			{Name: "electron density", Units: "e/bohr^3", Dims: []int{4, 4, 4},
				Values: make([]float64, 64)},
		}
		for i := range props[2].Values {
			props[2].Values[i] = float64(i) * 0.25
		}
		for _, p := range props {
			if err := s.SaveProperty("/p/c", p); err != nil {
				t.Fatal(err)
			}
		}
		// Load one by name.
		got, err := s.LoadProperty("/p/c", "dipole moment")
		if err != nil {
			t.Fatal(err)
		}
		if got.Units != "debye" || !reflect.DeepEqual(got.Values, []float64{0, 0, 2.1}) {
			t.Fatalf("dipole = %+v", got)
		}
		// Load all (sorted by name).
		all, err := s.LoadProperties("/p/c")
		if err != nil || len(all) != 3 {
			t.Fatalf("LoadProperties = (%d, %v)", len(all), err)
		}
		if all[0].Name != "dipole moment" || all[1].Name != "electron density" || all[2].Name != "total energy" {
			t.Fatalf("order = %v %v %v", all[0].Name, all[1].Name, all[2].Name)
		}
		if _, err := s.LoadProperty("/p/c", "nope"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("missing property = %v", err)
		}
	})
}

func TestRawFiles(t *testing.T) {
	eachStorage(t, func(t *testing.T, s DataStorage) {
		s.CreateProject("/p", model.Project{Name: "p"})
		s.CreateCalculation("/p/c", model.Calculation{Name: "c"})
		data := []byte("nwchem output ... converged")
		if err := s.SaveRawFile("/p/c", "run.out", data, "text/plain"); err != nil {
			t.Fatal(err)
		}
		got, err := s.LoadRawFile("/p/c", "run.out")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("raw file = (%q, %v)", got, err)
		}
		if _, err := s.LoadRawFile("/p/c", "nope.out"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("missing raw file = %v", err)
		}
	})
}

func TestListEntries(t *testing.T) {
	eachStorage(t, func(t *testing.T, s DataStorage) {
		s.CreateProject("/p", model.Project{Name: "p"})
		s.CreateCalculation("/p/calc-a", model.Calculation{Name: "a"})
		s.CreateCalculation("/p/calc-b", model.Calculation{Name: "b"})
		entries, err := s.List("/p")
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 2 {
			t.Fatalf("entries = %+v", entries)
		}
		for _, e := range entries {
			if e.Type != TypeCalculation {
				t.Fatalf("entry %s type = %s", e.Name, e.Type)
			}
		}
		if entries[0].Name != "calc-a" || entries[0].Path != "/p/calc-a" {
			t.Fatalf("entry 0 = %+v", entries[0])
		}
		// Calculation internals are typed too.
		s.SaveMolecule("/p/calc-a", chem.MakeWater(), chem.FormatXYZ)
		inner, err := s.List("/p/calc-a")
		if err != nil || len(inner) != 1 || inner[0].Type != TypeMolecule {
			t.Fatalf("inner = (%+v, %v)", inner, err)
		}
	})
}

func TestCopyAndDeleteHierarchy(t *testing.T) {
	eachStorage(t, func(t *testing.T, s DataStorage) {
		s.CreateProject("/p", model.Project{Name: "p"})
		s.CreateCalculation("/p/c", model.Calculation{Name: "c", Theory: "DFT"})
		s.SaveMolecule("/p/c", chem.MakeWater(), chem.FormatXYZ)
		s.SaveProperty("/p/c", model.Property{Name: "total energy", Values: []float64{-76.4}})

		// The paper's "copy entire task sequences" scenario.
		if err := s.Copy("/p/c", "/p/c-variant"); err != nil {
			t.Fatal(err)
		}
		calc, err := s.LoadCalculation("/p/c-variant")
		if err != nil || calc.Theory != "DFT" {
			t.Fatalf("copied calc = (%+v, %v)", calc, err)
		}
		mol, err := s.LoadMolecule("/p/c-variant")
		if err != nil || mol.Formula() != "H2O" {
			t.Fatalf("copied molecule = (%v, %v)", mol, err)
		}
		p, err := s.LoadProperty("/p/c-variant", "total energy")
		if err != nil || p.Values[0] != -76.4 {
			t.Fatalf("copied property = (%+v, %v)", p, err)
		}
		// Copying over an existing target fails.
		if err := s.Copy("/p/c", "/p/c-variant"); !errors.Is(err, ErrExists) {
			t.Fatalf("copy over existing = %v", err)
		}
		// Delete removes the whole subtree.
		if err := s.Delete("/p/c"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.LoadCalculation("/p/c"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted calc = %v", err)
		}
		// Variant untouched.
		if _, err := s.LoadCalculation("/p/c-variant"); err != nil {
			t.Fatal(err)
		}
	})
}

func TestLoadBundleAssemblesEverything(t *testing.T) {
	eachStorage(t, func(t *testing.T, s DataStorage) {
		s.CreateProject("/p", model.Project{Name: "p"})
		s.CreateCalculation("/p/c", model.Calculation{Name: "c", Theory: "SCF"})
		mol := chem.MakeUO2nH2O(2)
		s.SaveMolecule("/p/c", mol, chem.FormatXYZ)
		s.SaveBasis("/p/c", chem.STO3G())
		s.SaveTask("/p/c", model.Task{Name: "energy", Kind: model.TaskEnergy, Sequence: 1, InputDeck: "deck"})
		s.SaveJob("/p/c", model.Job{Host: "h", Status: model.JobDone})
		s.SaveProperty("/p/c", model.Property{Name: "total energy", Values: []float64{-1}})

		b, err := LoadBundle(s, "/p/c")
		if err != nil {
			t.Fatal(err)
		}
		if b.Molecule == nil || b.Basis == nil || b.Job == nil ||
			len(b.Tasks) != 1 || len(b.Properties) != 1 {
			t.Fatalf("bundle = %+v", b)
		}
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
		// Bundle on a bare calculation: optional parts absent, no error.
		s.CreateCalculation("/p/bare", model.Calculation{Name: "bare"})
		bare, err := LoadBundle(s, "/p/bare")
		if err != nil {
			t.Fatal(err)
		}
		if bare.Molecule != nil || bare.Job != nil || len(bare.Properties) != 0 {
			t.Fatalf("bare bundle = %+v", bare)
		}
	})
}

func TestAnnotateAndFindOnlyOnDAV(t *testing.T) {
	// The open-architecture capabilities are DAV-only: the interfaces
	// are simply not satisfied by the OODB baseline.
	var davAny DataStorage = newDAVStorage(t)
	if _, ok := davAny.(Annotator); !ok {
		t.Fatal("DAVStorage must implement Annotator")
	}
	if _, ok := davAny.(Finder); !ok {
		t.Fatal("DAVStorage must implement Finder")
	}
	var oodbAny DataStorage = newOODBStorage(t)
	if _, ok := oodbAny.(Annotator); ok {
		t.Fatal("OODBStorage must not implement Annotator")
	}
	if _, ok := oodbAny.(Finder); ok {
		t.Fatal("OODBStorage must not implement Finder")
	}
}

func TestAgentScenario(t *testing.T) {
	// The Discussion-section scenario: an agent discovers molecules by
	// formula metadata and attaches thermodynamic estimates as new
	// metadata — without Ecce's schema changing at all.
	s := newDAVStorage(t)
	s.CreateProject("/p", model.Project{Name: "p"})
	for i, mol := range []*chem.Molecule{chem.MakeWater(), chem.MakeUO2nH2O(2)} {
		calcPath := fmt.Sprintf("/p/calc%d", i)
		s.CreateCalculation(calcPath, model.Calculation{Name: fmt.Sprintf("c%d", i)})
		s.SaveMolecule(calcPath, mol, chem.FormatXYZ)
	}

	// Discover by formula.
	hits, err := s.FindByMetadata("/p", PropFormula, func(v string) bool { return v == "H2O" })
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || !strings.HasSuffix(hits[0], "/calc0/molecule") {
		t.Fatalf("hits = %v", hits)
	}
	// Any-value predicate finds both molecules.
	all, err := s.FindByMetadata("/p", PropFormula, nil)
	if err != nil || len(all) != 2 {
		t.Fatalf("all = (%v, %v)", all, err)
	}

	// Annotate with third-party metadata under a foreign namespace.
	thermoName := EcceName("")
	thermoName.Space = "thermo:"
	thermoName.Local = "enthalpy"
	if err := s.Annotate(hits[0], thermoName, "-285.8 kJ/mol"); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.ReadAnnotation(hits[0], thermoName)
	if err != nil || !ok || v != "-285.8 kJ/mol" {
		t.Fatalf("annotation = (%q, %v, %v)", v, ok, err)
	}
	// Ecce still loads the molecule untouched.
	mol, err := s.LoadMolecule("/p/calc0")
	if err != nil || mol.Formula() != "H2O" {
		t.Fatalf("molecule after annotation = (%v, %v)", mol, err)
	}
}

func TestOODBSchemaCouplingBreaksOldClients(t *testing.T) {
	// Start a server with an evolved schema; a current-model client
	// must be refused — the coupling failure the paper describes.
	db, err := oodb.OpenDB(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	evolved := oodb.SchemaHash(append(model.ClassDescriptors(), "MDTrajectory(frames:[]Frame)"))
	srv := oodb.NewServer(db, evolved)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := oodb.Dial(addr, SchemaFingerprint()); !errors.Is(err, oodb.ErrSchemaMismatch) {
		t.Fatalf("old client against evolved schema = %v", err)
	}
}

func TestPropertyCodecRoundTrip(t *testing.T) {
	cases := []model.Property{
		{Name: "energy", Units: "hartree", Values: []float64{-76.026}},
		{Name: "dipole", Units: "debye", Dims: []int{3}, Values: []float64{1, 2, 3}},
		{Name: "grid", Units: "", Dims: []int{2, 3, 4}, Values: make([]float64, 24)},
		{Name: "", Units: "", Values: []float64{math.Inf(1)}},
		{Name: "nan", Values: []float64{math.NaN()}},
	}
	for _, p := range cases {
		data, err := EncodeProperty(&p)
		if err != nil {
			t.Fatalf("%q: %v", p.Name, err)
		}
		got, err := DecodeProperty(data)
		if err != nil {
			t.Fatalf("%q: %v", p.Name, err)
		}
		if got.Name != p.Name || got.Units != p.Units || !reflect.DeepEqual(got.Dims, p.Dims) {
			t.Fatalf("%q header = %+v", p.Name, got)
		}
		for i := range p.Values {
			a, b := p.Values[i], got.Values[i]
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("%q value %d = %v, want %v", p.Name, i, b, a)
			}
		}
	}
}

func TestPropertyCodecRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a property"),
		[]byte(propMagic),              // truncated after magic
		[]byte(propMagic + "\xff\xff"), // name length with no body
	}
	for _, c := range cases {
		if _, err := DecodeProperty(c); err == nil {
			t.Errorf("DecodeProperty(%q) succeeded", c)
		}
	}
	// Inconsistent shape is rejected at encode time.
	bad := model.Property{Name: "x", Dims: []int{5}, Values: []float64{1}}
	if _, err := EncodeProperty(&bad); err == nil {
		t.Error("inconsistent property encoded")
	}
	// Claimed count larger than body.
	p := model.Property{Name: "y", Values: []float64{1}}
	data, _ := EncodeProperty(&p)
	data = data[:len(data)-4] // chop into the value area
	if _, err := DecodeProperty(data); err == nil {
		t.Error("truncated values accepted")
	}
}

// TestQuickPropertyCodec: codec round trip on random properties.
func TestQuickPropertyCodec(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := model.Property{
			Name:  fmt.Sprintf("prop-%d", rng.Intn(100)),
			Units: []string{"", "hartree", "debye", "cm-1"}[rng.Intn(4)],
		}
		n := 1
		for d := rng.Intn(3); d > 0; d-- {
			dim := rng.Intn(5) + 1
			p.Dims = append(p.Dims, dim)
			n *= dim
		}
		p.Values = make([]float64, n)
		for i := range p.Values {
			p.Values[i] = rng.NormFloat64() * 1000
		}
		data, err := EncodeProperty(&p)
		if err != nil {
			return false
		}
		got, err := DecodeProperty(data)
		if err != nil {
			return false
		}
		return got.Name == p.Name && got.Units == p.Units &&
			reflect.DeepEqual(got.Dims, p.Dims) && reflect.DeepEqual(got.Values, p.Values)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSlugAndPropDocNames(t *testing.T) {
	if slugify("Total Energy (SCF)") != "total-energy-scf" {
		t.Fatalf("slugify = %q", slugify("Total Energy (SCF)"))
	}
	// Distinct names never collide even with identical slugs.
	a := propDocName("total energy")
	b := propDocName("total_energy")
	if a == b {
		t.Fatalf("doc names collide: %q", a)
	}
	// Stable.
	if a != propDocName("total energy") {
		t.Fatal("doc name unstable")
	}
}

func TestPathsWithSpacesEndToEnd(t *testing.T) {
	// Object paths with spaces must survive URL escaping through the
	// whole stack (client escapes, server unescapes, hrefs round-trip).
	s := newDAVStorage(t)
	if err := s.CreateProject("/My Thesis Work", model.Project{Name: "thesis"}); err != nil {
		t.Fatal(err)
	}
	calcPath := "/My Thesis Work/uranyl run 1"
	if err := s.CreateCalculation(calcPath, model.Calculation{Name: "run 1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveMolecule(calcPath, chem.MakeWater(), chem.FormatXYZ); err != nil {
		t.Fatal(err)
	}
	mol, err := s.LoadMolecule(calcPath)
	if err != nil || mol.Formula() != "H2O" {
		t.Fatalf("molecule = (%v, %v)", mol, err)
	}
	entries, err := s.List("/My Thesis Work")
	if err != nil || len(entries) != 1 {
		t.Fatalf("entries = (%v, %v)", entries, err)
	}
	// Discovery returns usable paths.
	hits, err := s.FindByMetadata("/My Thesis Work", PropFormula, nil)
	if err != nil || len(hits) != 1 {
		t.Fatalf("hits = (%v, %v)", hits, err)
	}
	if _, ok, err := s.ReadAnnotation(hits[0], PropFormula); err != nil || !ok {
		t.Fatalf("annotation via discovered path: ok=%v err=%v", ok, err)
	}
	// Copy and delete with spaces.
	if err := s.Copy(calcPath, "/My Thesis Work/uranyl run 2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(calcPath); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadCalculation("/My Thesis Work/uranyl run 2"); err != nil {
		t.Fatal(err)
	}
}
