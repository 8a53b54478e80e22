package repro

import (
	"encoding/xml"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/davproto"
	"repro/internal/experiments"
	"repro/internal/migrate"
	"repro/internal/model"
	"repro/internal/oodb"
	"repro/internal/tools"
)

// TestGrandTour is the end-to-end integration test: it walks the whole
// story the paper tells, across every module.
//
//  1. A legacy Ecce 1.5 repository is populated in the OODB.
//  2. The repository is migrated to the DAV architecture and verified.
//  3. The unchanged Ecce tools work on the migrated data.
//  4. A third party discovers molecules by metadata and annotates them
//     in its own namespace (DASL search under the hood).
//  5. An old-schema OODB client is refused (the coupling DAV removes).
//  6. Versioning tracks an input-deck edit.
//  7. A warm Calc Viewer load sends one request.
func TestGrandTour(t *testing.T) {
	// --- 1. Legacy repository in the OODB.
	oenv, err := experiments.StartOODBEnv("")
	if err != nil {
		t.Fatal(err)
	}
	defer oenv.Close()
	legacy := oenv.Storage

	if err := legacy.CreateProject("/thesis", model.Project{
		Name: "thesis", Description: "five years of calculations"}); err != nil {
		t.Fatal(err)
	}
	runner := model.SyntheticRunner{GridPoints: 8}
	for i := 0; i < 6; i++ {
		calcPath := fmt.Sprintf("/thesis/run%02d", i)
		mol := chem.MakeUO2nH2O(i%3 + 1)
		if err := legacy.CreateCalculation(calcPath, model.Calculation{
			Name: fmt.Sprintf("run %d", i), Theory: "SCF", State: model.StateComplete}); err != nil {
			t.Fatal(err)
		}
		if err := legacy.SaveMolecule(calcPath, mol, chem.FormatXYZ); err != nil {
			t.Fatal(err)
		}
		if err := legacy.SaveBasis(calcPath, chem.STO3G()); err != nil {
			t.Fatal(err)
		}
		deck, err := model.GenerateInputDeck(&model.Calculation{Theory: "SCF"}, mol,
			chem.STO3G(), &model.Task{Kind: model.TaskEnergy})
		if err != nil {
			t.Fatal(err)
		}
		if err := legacy.SaveTask(calcPath, model.Task{Name: "energy",
			Kind: model.TaskEnergy, Sequence: 1, InputDeck: deck}); err != nil {
			t.Fatal(err)
		}
		if err := legacy.SaveJob(calcPath, model.Job{Host: "mpp2", Status: model.JobDone}); err != nil {
			t.Fatal(err)
		}
		for _, p := range runner.Run(mol, model.TaskEnergy) {
			if err := legacy.SaveProperty(calcPath, p); err != nil {
				t.Fatal(err)
			}
		}
		if err := legacy.SaveRawFile(calcPath, "run.out", []byte("converged\n"), "text/plain"); err != nil {
			t.Fatal(err)
		}
	}

	// --- 2. Migrate to the DAV architecture and verify.
	denv, err := experiments.StartDAVEnv(experiments.DAVEnvOptions{Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer denv.Close()
	dav := core.NewDAVStorage(denv.Client)

	rep, err := migrate.Migrate(legacy, dav, "/")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Calculations != 6 || rep.Molecules != 6 {
		t.Fatalf("migration report = %+v", rep)
	}
	if err := migrate.Verify(legacy, dav, "/"); err != nil {
		t.Fatalf("verify: %v", err)
	}

	// --- 3. The unchanged tools work on the migrated repository.
	for _, tool := range tools.All(dav) {
		if err := tool.Startup(); err != nil {
			t.Fatalf("%s startup: %v", tool.Name(), err)
		}
		summary, err := tool.Load("/thesis/run03")
		if err != nil {
			t.Fatalf("%s load: %v", tool.Name(), err)
		}
		if summary == "" {
			t.Fatalf("%s: empty summary", tool.Name())
		}
	}

	// --- 4. A third party annotates every molecule under its own
	// namespace; Ecce data unaffected.
	enthalpy := xml.Name{Space: "urn:thermo-agent", Local: "enthalpy-kj-mol"}
	mols, err := dav.FindByMetadata("/thesis", core.PropFormula, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(mols) != 6 {
		t.Fatalf("discovered %d molecules, want 6", len(mols))
	}
	for i, p := range mols {
		if err := dav.Annotate(p, enthalpy, fmt.Sprint(-500*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := migrate.Verify(legacy, dav, "/"); err != nil {
		t.Fatalf("Ecce data changed by annotation: %v", err)
	}
	// The annotations are queryable via DASL.
	hits, err := dav.FindWhere("/thesis", davproto.CompareExpr{
		Op: davproto.OpLt, Prop: enthalpy, Literal: "-1000",
	}, enthalpy)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 4 {
		t.Fatalf("search found %d strongly bound systems, want 4", len(hits))
	}

	// --- 5. Schema evolution breaks the OODB but not DAV: a client
	// compiled against an extended model cannot even connect.
	evolved := oodb.SchemaHash(append(model.ClassDescriptors(), "MDTrajectory(frames:[]Frame)"))
	if _, err := oodb.Dial(oenv.Server.Addr(), evolved); !errors.Is(err, oodb.ErrSchemaMismatch) {
		t.Fatalf("evolved client against legacy OODB = %v, want schema mismatch", err)
	}
	// The DAV side shrugs: new metadata in a new namespace, no
	// agreement needed (that's what step 4 just did).

	// --- 6. Versioning on the migrated input deck.
	deckPath := "/thesis/run00/tasks/01-energy"
	if err := denv.Client.VersionControl(deckPath); err != nil {
		t.Fatal(err)
	}
	if _, err := denv.Client.PutBytes(deckPath, []byte("revised deck"), "text/plain"); err != nil {
		t.Fatal(err)
	}
	versions, err := denv.Client.VersionTree(deckPath)
	if err != nil || len(versions) != 2 {
		t.Fatalf("versions = (%v, %v)", versions, err)
	}
	v1, err := denv.Client.Get(versions[0].Href)
	if err != nil || !strings.Contains(string(v1), "start") {
		t.Fatalf("original deck lost: (%q..., %v)", firstN(v1, 20), err)
	}

	// --- 7. A second Calc Viewer load is the listing alone: the
	// storage keeps the bodies under the ETags the listing names.
	viewer := tools.NewCalcViewer(dav)
	calcPath := "/thesis/run03"
	first, err := viewer.Load(calcPath)
	if err != nil {
		t.Fatal(err)
	}
	before := denv.Client.RequestCount()
	second, err := viewer.Load(calcPath)
	if err != nil || first != second {
		t.Fatalf("warm load = (%q, %v), cold %q", second, err, first)
	}
	if n := denv.Client.RequestCount() - before; n != 1 {
		t.Fatalf("warm load sent %d requests, want 1", n)
	}
}

func firstN(b []byte, n int) string {
	if len(b) < n {
		return string(b)
	}
	return string(b[:n])
}
