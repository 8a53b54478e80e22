package model

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/chem"
)

// GenerateInputDeck renders an NWChem-style input deck for one task —
// the "generation of input decks" capability the paper lists among
// Ecce's functions. The deck is plain text, stored as raw calculation
// data in the DAV store.
func GenerateInputDeck(calc *Calculation, mol *chem.Molecule, basis *chem.BasisSet, task *Task) (string, error) {
	if mol == nil {
		return "", fmt.Errorf("model: input deck requires a molecule")
	}
	if basis != nil && !basis.Covers(mol) {
		return "", fmt.Errorf("model: basis %q does not cover %s", basis.Name, mol.Formula())
	}
	var sb strings.Builder
	title := calc.Name
	if title == "" {
		title = mol.Formula()
	}
	fmt.Fprintf(&sb, "start %s\n", sanitizeToken(title))
	fmt.Fprintf(&sb, "title %q\n\n", title)
	fmt.Fprintf(&sb, "charge %d\n\n", mol.Charge)

	sb.WriteString("geometry units angstroms noautoz\n")
	for _, a := range mol.Atoms {
		fmt.Fprintf(&sb, "  %-2s %14.8f %14.8f %14.8f\n", a.Symbol, a.X, a.Y, a.Z)
	}
	if mol.Symmetry != "" && mol.Symmetry != "C1" {
		fmt.Fprintf(&sb, "  symmetry %s\n", mol.Symmetry)
	}
	sb.WriteString("end\n\n")

	if basis != nil {
		sb.WriteString("basis\n")
		// Sorted, so one calculation always renders the same deck.
		counts := mol.ElementCounts()
		syms := make([]string, 0, len(counts))
		for sym := range counts {
			syms = append(syms, sym)
		}
		sort.Strings(syms)
		for _, sym := range syms {
			eb, _ := basis.ForElement(sym)
			for _, sh := range eb.Shells {
				fmt.Fprintf(&sb, "  %s library %s ! %s shell, %d primitives\n",
					sym, basis.Name, sh.Type, len(sh.Primitives))
			}
		}
		sb.WriteString("end\n\n")
	}

	theory := strings.ToLower(calc.Theory)
	if theory == "" {
		theory = "scf"
	}
	var taskLine string
	switch task.Kind {
	case TaskEnergy:
		taskLine = fmt.Sprintf("task %s energy", theory)
	case TaskOptimize:
		taskLine = fmt.Sprintf("task %s optimize", theory)
	case TaskFrequency:
		taskLine = fmt.Sprintf("task %s freq", theory)
	default:
		return "", fmt.Errorf("model: unknown task kind %q", task.Kind)
	}
	if mol.Multiplicity > 1 {
		fmt.Fprintf(&sb, "scf\n  nopen %d\nend\n\n", mol.Multiplicity-1)
	}
	sb.WriteString(taskLine + "\n")
	return sb.String(), nil
}

// sanitizeToken makes a string safe as a deck identifier.
func sanitizeToken(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, s)
}
