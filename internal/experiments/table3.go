package experiments

import (
	"fmt"
	"os"
	"runtime"

	"repro/internal/bench"
	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/oodb"
	"repro/internal/tools"
)

// OODBEnv is a running OODB server plus connected storage.
type OODBEnv struct {
	DB      *oodb.DB
	Server  *oodb.Server
	Storage *core.OODBStorage
	dir     string
}

// StartOODBEnv boots an OODB server on a loopback socket with the Ecce
// schema fingerprint.
func StartOODBEnv(dir string) (*OODBEnv, error) {
	env := &OODBEnv{}
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "oodbenv-*")
		if err != nil {
			return nil, err
		}
		env.dir = dir
	}
	db, err := oodb.OpenDB(dir)
	if err != nil {
		return nil, err
	}
	env.DB = db
	env.Server = oodb.NewServer(db, core.SchemaFingerprint())
	addr, err := env.Server.Listen("127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	client, err := oodb.Dial(addr, core.SchemaFingerprint())
	if err != nil {
		env.Server.Close()
		db.Close()
		return nil, err
	}
	env.Storage, err = core.NewOODBStorage(client)
	if err != nil {
		client.Close()
		env.Server.Close()
		db.Close()
		return nil, err
	}
	return env, nil
}

// Close shuts the environment down.
func (e *OODBEnv) Close() {
	if e.Storage != nil {
		e.Storage.Close()
	}
	if e.Server != nil {
		e.Server.Close()
	}
	if e.DB != nil {
		e.DB.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// Table3Options sizes the tool-performance comparison.
type Table3Options struct {
	// Waters is the hydration count (paper: 15).
	Waters int
	// GridPoints sizes the synthetic density property (default yields
	// the paper's ~1.8 MB largest output property).
	GridPoints int
}

// DefaultTable3Options returns the paper's workload.
func DefaultTable3Options() Table3Options {
	return Table3Options{Waters: 15, GridPoints: model.DefaultGridPoints}
}

// Table3Row is one tool's measurements on one backend.
type Table3Row struct {
	Tool    string
	Startup bench.Timing
	Load    bench.Timing
	// Warm is the same Load timed again, over what the first left in
	// the client's cache (the OODB client's cache-forward objects,
	// DAVStorage's kept bodies).
	Warm   bench.Timing
	LoadNA bool // Calc Manager's per-calculation load is N/A in the paper
	HeapMB float64
}

// Table3Result holds both backends' rows.
type Table3Result struct {
	Options Table3Options
	// Rows maps backend name ("Ecce 1.5 (OODB)" / "Ecce 2.0 (DAV)") to
	// per-tool rows.
	Rows map[string][]Table3Row
}

// Backend labels.
const (
	BackendOODB = "Ecce 1.5 (OODB)"
	BackendDAV  = "Ecce 2.0 (DAV)"
)

// paperTable3 holds the published per-tool seconds: start and load.
// The paper's Calc Manager load is NA (represented by -1).
var paperTable3 = map[string]map[string][2]float64{
	BackendOODB: {
		"Builder":      {1.6, 2.14},
		"BasisTool":    {5.0, 7.6},
		"Calc Editor":  {2.4, 0.5},
		"Calc Viewer":  {1.5, 4.4},
		"Calc Manager": {2.8, -1},
		"Job Launcher": {0.9, 0.95},
	},
	BackendDAV: {
		"Builder":      {1.1, 0.1},
		"BasisTool":    {1.0, 0.2},
		"Calc Editor":  {1.0, 0.9},
		"Calc Viewer":  {0.9, 2.2},
		"Calc Manager": {2.0, -1},
		"Job Launcher": {0.42, 0.48},
	},
}

// populateWorkload builds the UO2·nH2O calculation in a storage.
func populateWorkload(s core.DataStorage, opts Table3Options) (string, error) {
	if err := s.CreateProject("/aqueous", model.Project{Name: "aqueous",
		Description: "Table 3 workload"}); err != nil {
		return "", err
	}
	calcPath := "/aqueous/uranyl"
	mol := chem.MakeUO2nH2O(opts.Waters)
	if err := s.CreateCalculation(calcPath, model.Calculation{
		Name: mol.Name, Theory: "DFT", State: model.StateReady}); err != nil {
		return "", err
	}
	if err := s.SaveMolecule(calcPath, mol, chem.FormatXYZ); err != nil {
		return "", err
	}
	if err := s.SaveBasis(calcPath, chem.STO3G()); err != nil {
		return "", err
	}
	deck, err := model.GenerateInputDeck(&model.Calculation{Name: mol.Name, Theory: "DFT"},
		mol, chem.STO3G(), &model.Task{Kind: model.TaskEnergy})
	if err != nil {
		return "", err
	}
	if err := s.SaveTask(calcPath, model.Task{Name: "energy", Kind: model.TaskEnergy,
		Sequence: 1, InputDeck: deck}); err != nil {
		return "", err
	}
	if err := s.SaveJob(calcPath, model.Job{Host: "mpp2.emsl.pnl.gov", Queue: "large",
		BatchID: "88123", NodeCount: 64, Status: model.JobDone}); err != nil {
		return "", err
	}
	runner := model.SyntheticRunner{GridPoints: opts.GridPoints}
	for _, p := range runner.Run(mol, model.TaskEnergy) {
		if err := s.SaveProperty(calcPath, p); err != nil {
			return "", err
		}
	}
	return calcPath, nil
}

// RunTable3 measures every tool's startup and load phases on both
// architectures, with identical tool code (the Figure 2 decoupling in
// action).
func RunTable3(opts Table3Options) (Table3Result, error) {
	if opts.Waters == 0 {
		opts = DefaultTable3Options()
	}
	res := Table3Result{Options: opts, Rows: map[string][]Table3Row{}}

	// OODB backend.
	oenv, err := StartOODBEnv("")
	if err != nil {
		return res, err
	}
	defer oenv.Close()
	if rows, err := runTable3Backend(oenv.Storage, opts); err != nil {
		return res, fmt.Errorf("table3 OODB: %w", err)
	} else {
		res.Rows[BackendOODB] = rows
	}

	// DAV backend.
	denv, err := StartDAVEnv(DAVEnvOptions{Persistent: true})
	if err != nil {
		return res, err
	}
	defer denv.Close()
	dav := core.NewDAVStorage(denv.Client)
	if rows, err := runTable3Backend(dav, opts); err != nil {
		return res, fmt.Errorf("table3 DAV: %w", err)
	} else {
		res.Rows[BackendDAV] = rows
	}
	return res, nil
}

func runTable3Backend(s core.DataStorage, opts Table3Options) ([]Table3Row, error) {
	calcPath, err := populateWorkload(s, opts)
	if err != nil {
		return nil, err
	}
	var rows []Table3Row
	for _, tool := range tools.All(s) {
		row := Table3Row{Tool: tool.Name()}
		heapBefore := heapMB()
		if row.Startup, err = bench.Measure(tool.Startup); err != nil {
			return nil, fmt.Errorf("%s startup: %w", tool.Name(), err)
		}
		load := func() error {
			_, err := tool.Load(calcPath)
			return err
		}
		if row.Load, err = bench.Measure(load); err != nil {
			return nil, fmt.Errorf("%s load: %w", tool.Name(), err)
		}
		if row.Warm, err = bench.Measure(load); err != nil {
			return nil, fmt.Errorf("%s warm load: %w", tool.Name(), err)
		}
		row.HeapMB = heapMB() - heapBefore
		if row.HeapMB < 0 {
			row.HeapMB = 0
		}
		if tool.Name() == "Calc Manager" {
			// Mirror the paper's NA cell: the manager has no
			// per-calculation load; its Load summarizes the project.
			row.LoadNA = false // measured anyway; flagged in rendering
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func heapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// Tables renders one table per backend. The measured start, load and
// warm load are in milliseconds, since most of them are well under one;
// the paper's columns stay in its seconds.
func (r Table3Result) Tables() []*bench.Table {
	var out []*bench.Table
	for _, backend := range []string{BackendOODB, BackendDAV} {
		rows, ok := r.Rows[backend]
		if !ok {
			continue
		}
		t := bench.NewTable(
			fmt.Sprintf("Table 3. %s — per-tool performance (UO2-%dH2O)", backend, r.Options.Waters),
			"tool", "start", "load", "warm load", "heap MB", "paper start", "paper load")
		t.Note = "paper: Sun Ultra 60 client; heap column is this process's allocation delta"
		for _, row := range rows {
			refs := paperTable3[backend][row.Tool]
			paperLoad := "NA"
			if refs[1] >= 0 {
				paperLoad = fmt.Sprintf("%.2f s", refs[1])
			}
			t.AddRow(row.Tool,
				bench.Millis(row.Startup.Elapsed),
				bench.Millis(row.Load.Elapsed),
				bench.Millis(row.Warm.Elapsed),
				fmt.Sprintf("%.1f", row.HeapMB),
				fmt.Sprintf("%.2f s", refs[0]),
				paperLoad)
		}
		out = append(out, t)
	}
	return out
}
