package chem

import (
	"fmt"
	"math"
)

// Atom is one atom with Cartesian coordinates in Ångström.
type Atom struct {
	Symbol  string
	X, Y, Z float64
}

// Molecule is a 3D molecular structure — the study subject of the Ecce
// calculation model.
type Molecule struct {
	Name         string
	Atoms        []Atom
	Charge       int
	Multiplicity int    // spin multiplicity, 1 = singlet
	Symmetry     string // point group label, e.g. "C1", "D4h"
}

// AtomCount returns the number of atoms.
func (m *Molecule) AtomCount() int { return len(m.Atoms) }

// CountOf returns how many atoms of the given element are present.
func (m *Molecule) CountOf(symbol string) int {
	symbol = NormalizeSymbol(symbol)
	n := 0
	for _, a := range m.Atoms {
		if NormalizeSymbol(a.Symbol) == symbol {
			n++
		}
	}
	return n
}

// ElementCounts tallies atoms per element.
func (m *Molecule) ElementCounts() map[string]int {
	counts := map[string]int{}
	for _, a := range m.Atoms {
		counts[NormalizeSymbol(a.Symbol)]++
	}
	return counts
}

// Formula returns the empirical formula in Hill order.
func (m *Molecule) Formula() string { return FormatFormula(m.ElementCounts()) }

// Mass returns the molecular mass in u; unknown elements contribute 0.
func (m *Molecule) Mass() float64 {
	var total float64
	for _, a := range m.Atoms {
		if e, ok := LookupElement(a.Symbol); ok {
			total += e.Mass
		}
	}
	return total
}

// Electrons returns the total electron count given the charge; atoms
// of unknown elements contribute 0 protons.
func (m *Molecule) Electrons() int {
	z := 0
	for _, a := range m.Atoms {
		if e, ok := LookupElement(a.Symbol); ok {
			z += e.Number
		}
	}
	return z - m.Charge
}

// Translate shifts every atom by (dx, dy, dz).
func (m *Molecule) Translate(dx, dy, dz float64) {
	for i := range m.Atoms {
		m.Atoms[i].X += dx
		m.Atoms[i].Y += dy
		m.Atoms[i].Z += dz
	}
}

// Distance returns the distance between atoms i and j in Ångström.
func (m *Molecule) Distance(i, j int) float64 {
	a, b := m.Atoms[i], m.Atoms[j]
	dx, dy, dz := a.X-b.X, a.Y-b.Y, a.Z-b.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// Merge appends a copy of other's atoms to m.
func (m *Molecule) Merge(other *Molecule) {
	m.Atoms = append(m.Atoms, other.Atoms...)
}

// Clone returns a deep copy.
func (m *Molecule) Clone() *Molecule {
	c := *m
	c.Atoms = append([]Atom(nil), m.Atoms...)
	return &c
}

// Validate checks that every atom uses a known element symbol.
func (m *Molecule) Validate() error {
	for i, a := range m.Atoms {
		if _, ok := LookupElement(a.Symbol); !ok {
			return fmt.Errorf("chem: atom %d has unknown element %q", i, a.Symbol)
		}
	}
	return nil
}

// MakeWater returns a water molecule in its experimental geometry
// (O-H 0.9572 Å, H-O-H 104.52°), centered on the oxygen.
func MakeWater() *Molecule {
	const (
		rOH   = 0.9572
		angle = 104.52 * math.Pi / 180
	)
	half := angle / 2
	return &Molecule{
		Name:         "water",
		Multiplicity: 1,
		Symmetry:     "C2v",
		Atoms: []Atom{
			{Symbol: "O"},
			{Symbol: "H", X: rOH * math.Sin(half), Z: rOH * math.Cos(half)},
			{Symbol: "H", X: -rOH * math.Sin(half), Z: rOH * math.Cos(half)},
		},
	}
}

// MakeUO2nH2O builds the paper's benchmark system: a linear uranyl
// (UO2, +2 charge) surrounded by n water molecules placed on spherical
// shells. MakeUO2nH2O(15) yields the UO2·15H2O system of Table 3
// (48 atoms; the paper's prose says "a total of 50 atoms", but
// UO2 + 15 x H2O is 48 — we keep the faithful count).
func MakeUO2nH2O(n int) *Molecule {
	mol := &Molecule{
		Name:         fmt.Sprintf("UO2-%dH2O", n),
		Charge:       2,
		Multiplicity: 1,
		Symmetry:     "C1",
		Atoms: []Atom{
			// Linear uranyl, U=O 1.76 Å.
			{Symbol: "U"},
			{Symbol: "O", Z: 1.76},
			{Symbol: "O", Z: -1.76},
		},
	}
	// Place waters on shells of increasing radius using a golden-angle
	// spiral so geometries are deterministic and non-overlapping: the
	// 3 Å shell gap keeps every water beyond bonding distance of its
	// neighbours, so bond perception sees 1 uranyl + n water fragments.
	const golden = 2.39996322972865332 // radians
	for i := 0; i < n; i++ {
		shell := 4.0 + 3.0*float64(i/8) // 8 waters per shell
		theta := golden * float64(i)
		phi := math.Acos(1 - 2*(float64(i%8)+0.5)/8)
		x := shell * math.Sin(phi) * math.Cos(theta)
		y := shell * math.Sin(phi) * math.Sin(theta)
		z := shell * math.Cos(phi)
		w := MakeWater()
		w.Translate(x, y, z)
		mol.Merge(w)
	}
	return mol
}
