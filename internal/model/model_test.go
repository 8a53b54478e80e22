package model

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/chem"
	"repro/internal/oodb"
)

func TestStateStringRoundTrip(t *testing.T) {
	for s := StateCreated; s <= StateFailed; s++ {
		got, err := ParseState(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseState(%q) = (%v, %v)", s.String(), got, err)
		}
	}
	if _, err := ParseState("bogus"); err == nil {
		t.Fatal("bad state accepted")
	}
}

func TestLifecycleTransitions(t *testing.T) {
	allowed := []struct{ from, to State }{
		{StateCreated, StateReady},
		{StateReady, StateSubmitted},
		{StateSubmitted, StateRunning},
		{StateRunning, StateComplete},
		{StateRunning, StateFailed},
		{StateFailed, StateReady},
		{StateReady, StateReady}, // re-edit input
	}
	for _, c := range allowed {
		if !CanTransition(c.from, c.to) {
			t.Errorf("transition %v -> %v should be legal", c.from, c.to)
		}
	}
	forbidden := []struct{ from, to State }{
		{StateCreated, StateRunning},
		{StateComplete, StateRunning},
		{StateComplete, StateReady},
		{StateSubmitted, StateComplete},
		{StateRunning, StateCreated},
	}
	for _, c := range forbidden {
		if CanTransition(c.from, c.to) {
			t.Errorf("transition %v -> %v should be illegal", c.from, c.to)
		}
	}
}

func TestPropertyShapeValidation(t *testing.T) {
	good := Property{Name: "dipole", Dims: []int{3}, Values: []float64{1, 2, 3}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	scalar := Property{Name: "energy", Values: []float64{-76.0}}
	if err := scalar.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Property{Name: "x", Dims: []int{2, 2}, Values: []float64{1, 2, 3}}
	if err := bad.Validate(); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	neg := Property{Name: "x", Dims: []int{-1}, Values: nil}
	if err := neg.Validate(); err == nil {
		t.Fatal("negative dim accepted")
	}
}

func TestPropertyAt(t *testing.T) {
	p := Property{Name: "m", Dims: []int{2, 3}, Values: []float64{0, 1, 2, 10, 11, 12}}
	v, err := p.At(1, 2)
	if err != nil || v != 12 {
		t.Fatalf("At(1,2) = (%v, %v)", v, err)
	}
	if _, err := p.At(2, 0); err == nil {
		t.Fatal("out of range accepted")
	}
	if _, err := p.At(1); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestBundleValidate(t *testing.T) {
	mol := chem.MakeWater()
	b := &CalculationBundle{
		Calc:     Calculation{Name: "water-scf"},
		Molecule: mol,
		Basis:    chem.STO3G(),
		Tasks:    []Task{{Name: "t1", Kind: TaskEnergy, Sequence: 1}},
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// Missing molecule.
	if err := (&CalculationBundle{Calc: Calculation{Name: "x"}}).Validate(); err == nil {
		t.Fatal("bundle without molecule accepted")
	}
	// Basis not covering.
	iron := &chem.Molecule{Atoms: []chem.Atom{{Symbol: "Fe"}}}
	bad := &CalculationBundle{Calc: Calculation{Name: "x"}, Molecule: iron, Basis: chem.STO3G()}
	if err := bad.Validate(); err == nil {
		t.Fatal("uncovered basis accepted")
	}
	// Duplicate task sequence.
	b.Tasks = append(b.Tasks, Task{Name: "t2", Kind: TaskEnergy, Sequence: 1})
	if err := b.Validate(); err == nil {
		t.Fatal("duplicate sequence accepted")
	}
}

func TestGenerateInputDeck(t *testing.T) {
	mol := chem.MakeUO2nH2O(2)
	calc := &Calculation{Name: "uranyl study", Theory: "DFT"}
	deck, err := GenerateInputDeck(calc, mol, chem.STO3G(), &Task{Kind: TaskEnergy})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"start uranyl_study", "charge 2", "geometry units angstroms",
		"basis", "task dft energy"} {
		if !strings.Contains(deck, want) {
			t.Errorf("deck missing %q:\n%s", want, deck)
		}
	}
	// One geometry line per atom (count inside the geometry block only;
	// the basis block also mentions U).
	geomBlock := deck[strings.Index(deck, "geometry"):]
	geomBlock = geomBlock[:strings.Index(geomBlock, "end")]
	if n := strings.Count(geomBlock, "\n  U "); n != 1 {
		t.Errorf("U geometry lines = %d\n%s", n, geomBlock)
	}
	if n := strings.Count(geomBlock, "\n"); n != mol.AtomCount()+1 {
		t.Errorf("geometry lines = %d, want %d", n, mol.AtomCount()+1)
	}

	// Task kinds map to task lines.
	deck, _ = GenerateInputDeck(calc, mol, nil, &Task{Kind: TaskOptimize})
	if !strings.Contains(deck, "task dft optimize") {
		t.Error("optimize task line missing")
	}
	deck, _ = GenerateInputDeck(calc, mol, nil, &Task{Kind: TaskFrequency})
	if !strings.Contains(deck, "task dft freq") {
		t.Error("freq task line missing")
	}
	if _, err := GenerateInputDeck(calc, mol, nil, &Task{Kind: "bogus"}); err == nil {
		t.Error("unknown task kind accepted")
	}
	if _, err := GenerateInputDeck(calc, nil, nil, &Task{Kind: TaskEnergy}); err == nil {
		t.Error("nil molecule accepted")
	}
	// Open shell adds an scf block.
	radical := chem.MakeWater()
	radical.Multiplicity = 2
	deck, _ = GenerateInputDeck(&Calculation{Theory: "scf"}, radical, nil, &Task{Kind: TaskEnergy})
	if !strings.Contains(deck, "nopen 1") {
		t.Error("open-shell block missing")
	}
}

func TestSyntheticRunDeterministic(t *testing.T) {
	mol := chem.MakeUO2nH2O(3)
	r := SyntheticRunner{GridPoints: 8}
	a := r.Run(mol, TaskEnergy)
	b := r.Run(mol, TaskEnergy)
	if len(a) != len(b) {
		t.Fatal("nondeterministic property count")
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Values) != len(b[i].Values) {
			t.Fatalf("property %d differs", i)
		}
		for j := range a[i].Values {
			if a[i].Values[j] != b[i].Values[j] {
				t.Fatalf("property %q value %d differs", a[i].Name, j)
			}
		}
	}
}

func TestSyntheticRunShapes(t *testing.T) {
	mol := chem.MakeWater()
	props := SyntheticRunner{GridPoints: 5}.Run(mol, TaskFrequency)
	byName := map[string]Property{}
	for _, p := range props {
		if err := p.Validate(); err != nil {
			t.Fatalf("property %q: %v", p.Name, err)
		}
		byName[p.Name] = p
	}
	if _, ok := byName["total energy"]; !ok {
		t.Fatal("no energy")
	}
	if d := byName["dipole moment"]; len(d.Values) != 3 {
		t.Fatalf("dipole = %+v", d)
	}
	if f := byName["vibrational frequencies"]; len(f.Values) != 3*3-6 {
		t.Fatalf("freqs = %d values", len(f.Values))
	}
	if g := byName["electron density"]; len(g.Values) != 125 {
		t.Fatalf("grid = %d values", len(g.Values))
	}
	// Frequencies are positive.
	for _, v := range byName["vibrational frequencies"].Values {
		if v <= 0 {
			t.Fatal("non-positive frequency")
		}
	}
}

func TestSyntheticDensitySizeMatchesPaper(t *testing.T) {
	// The default grid must land near the paper's 1.8 MB largest
	// property.
	mol := chem.MakeWater()
	props := SyntheticRunner{}.Run(mol, TaskEnergy)
	var grid Property
	for _, p := range props {
		if p.Name == "electron density" {
			grid = p
		}
	}
	bytes := len(grid.Values) * 8
	if bytes < 1_500_000 || bytes > 2_100_000 {
		t.Fatalf("density grid = %d bytes, want ≈1.8 MB", bytes)
	}
}

func TestOptimizeTraceDecreases(t *testing.T) {
	mol := chem.MakeWater()
	props := SyntheticRunner{GridPoints: 4}.Run(mol, TaskOptimize)
	var trace Property
	for _, p := range props {
		if p.Name == "optimization trace" {
			trace = p
		}
	}
	if len(trace.Values) == 0 {
		t.Fatal("no optimization trace")
	}
	for i := 1; i < len(trace.Values); i++ {
		if trace.Values[i] >= trace.Values[i-1] {
			t.Fatalf("trace not decreasing at %d", i)
		}
	}
}

func TestSchemaDescriptorsFingerprint(t *testing.T) {
	h1 := oodb.SchemaHash(ClassDescriptors())
	h2 := oodb.SchemaHash(ClassDescriptors())
	if h1 != h2 {
		t.Fatal("fingerprint unstable")
	}
	// Simulated schema evolution (the molecular-dynamics extension the
	// paper mentions) changes the fingerprint.
	evolved := append(ClassDescriptors(), "MDTrajectory(frames:[]Frame)")
	if oodb.SchemaHash(evolved) == h1 {
		t.Fatal("schema drift undetected")
	}
}

// TestQuickPropertyAtNeverPanics: At returns an error, never panics,
// for arbitrary indices.
func TestQuickPropertyAtNeverPanics(t *testing.T) {
	p := Property{Name: "q", Dims: []int{3, 4, 5}, Values: make([]float64, 60)}
	for i := range p.Values {
		p.Values[i] = float64(i)
	}
	check := func(i, j, k int) bool {
		v, err := p.At(i, j, k)
		inRange := i >= 0 && i < 3 && j >= 0 && j < 4 && k >= 0 && k < 5
		if inRange != (err == nil) {
			return false
		}
		if err == nil {
			want := float64(i*20 + j*5 + k)
			return math.Abs(v-want) < 1e-12
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestGenerateInputDeckDeterministic: the paper's UO2·15H2O system has
// three elements, enough for map iteration to reorder the basis block;
// the deck is stored as a document, so the same inputs must render the
// same bytes every time.
func TestGenerateInputDeckDeterministic(t *testing.T) {
	mol := chem.MakeUO2nH2O(15)
	calc := &Calculation{Name: "uranyl", Theory: "DFT"}
	first, err := GenerateInputDeck(calc, mol, chem.STO3G(), &Task{Kind: TaskEnergy})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 50; i++ {
		deck, err := GenerateInputDeck(calc, mol, chem.STO3G(), &Task{Kind: TaskEnergy})
		if err != nil {
			t.Fatal(err)
		}
		if deck != first {
			t.Fatalf("generation %d differs from the first:\n%s\n--- vs ---\n%s", i, deck, first)
		}
	}
}
