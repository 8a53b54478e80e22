package repro

import (
	"context"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// packageReaders is the code inventory: every directory under internal/
// and examples/ holding non-test Go, with what reads it — a paper claim
// (DESIGN §1), a benchmark workload, an eccebench table, a README
// runbook step a test executes, or a test of shipped davd behaviour.
// A package nothing on that list reads is deleted with its tests, not
// listed here.
var packageReaders = map[string]string{
	"internal/auth":            "davd -users (Basic auth in davserver.Build); TestBuildChainOrder",
	"internal/bench":           "eccebench table1/table2/table3 timing loops",
	"internal/chaos":           "§3.2.1 robustness: eccebench chaos and robust; the crash-matrix tests",
	"internal/chem":            "Figure 3 object model; calc_browse populate; eccebench table3",
	"internal/core":            "Figure 2 Data Storage Interface; calc_browse (DAVStorage, LoadBundle); Discussion annotation (TestAnnotateAndFindOnlyOnDAV)",
	"internal/davclient":       "every benchmark workload's client; eccebench; cmd/dav",
	"internal/davproto":        "Table 1 request and 207 bodies; propfind_sweep",
	"internal/davserver":       "davd itself (davserver.Build); every benchmark workload",
	"internal/davserver/admit": "davd -admit-limit/-brownout; TestOverloadShedsHonestly",
	"internal/dbm":             "§3.2.4 disk claim (SDBM/GDBM flavours); propfind_sweep, calc_browse",
	"internal/experiments":     "eccebench tables 1–3, robust, disk, chaos, ablation",
	"internal/ftp":             "Table 2's FTP opponent (eccebench table2)",
	"internal/migrate":         "eccemigrate; examples/migration; TestGrandTour",
	"internal/model":           "Figure 3 object model; calc_browse populate",
	"internal/obs":             "davd /metrics (TestEveryFamilyHasAReader); benchmark client metrics",
	"internal/obs/ops":         "davd -slo and /debug/status; TestOpsConsoleOverBuiltServer",
	"internal/obs/prof":        "davd incident bundles; TestOpsConsoleOverBuiltServer",
	"internal/obs/trace":       "benchmark --trace 1 per-layer split; davd /debug/traces",
	"internal/oodb":            "Table 3 and §3.2.4's Ecce 1.5 baseline (eccebench table3, disk)",
	"internal/store":           "davd's store (store.Store); every benchmark workload",
	"internal/store/fsck":      "davfsck; fsck clean after every benchmark run",
	"internal/store/journal":   "davd crash consistency; TestCrashPointMatrix",
	"internal/store/pathlock":  "davd write gate and path locks; author_mix",
	"internal/tools":           "Table 3 (CalcViewer.Load); calc_browse",
	"internal/xmldom":          "Table 1's DOM-vs-SAX attribution; propfind_sweep",
	"examples/chemworkflow":    "TestExamplesRun",
	"examples/migration":       "TestExamplesRun",
	"examples/quickstart":      "TestExamplesRun",
	"examples/webview":         "TestExamplesRun",
}

// exampleLines names, per example, one line its run must print.
var exampleLines = map[string]string{
	"chemworkflow": "input deck now has 2 versions:",
	"migration":    "DAV + SDBM: migrated",
	"quickstart":   "archived copy keeps foreign metadata: present=true",
	"webview":      "rendered ",
}

// TestEveryPackageHasAReader fails when a directory under internal/ or
// examples/ holds non-test Go but has no row in packageReaders, when a
// row names no directory or no reader, when an internal package is
// imported by nothing outside itself, or when an example is not run by
// TestExamplesRun.
func TestEveryPackageHasAReader(t *testing.T) {
	dirs := goPackageDirs(t, "internal", "examples")
	for _, d := range dirs {
		if packageReaders[d] == "" {
			t.Errorf("%s holds non-test Go but has no row in packageReaders: name its reader or delete it", d)
		}
	}
	have := map[string]bool{}
	for _, d := range dirs {
		have[d] = true
	}
	for d := range packageReaders {
		if !have[d] {
			t.Errorf("packageReaders row %s names no package", d)
		}
	}

	imported := importedPackages(t)
	for d := range packageReaders {
		switch {
		case strings.HasPrefix(d, "internal/"):
			if !imported[d] {
				t.Errorf("%s is imported by nothing outside itself", d)
			}
		case strings.HasPrefix(d, "examples/"):
			if _, ok := exampleLines[strings.TrimPrefix(d, "examples/")]; !ok {
				t.Errorf("%s is not run by TestExamplesRun", d)
			}
		}
	}
}

// goPackageDirs lists, slash-separated and sorted, every directory under
// the given roots that holds at least one non-test .go file.
func goPackageDirs(t *testing.T, roots ...string) []string {
	t.Helper()
	set := map[string]bool{}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
				set[filepath.ToSlash(filepath.Dir(p))] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var out []string
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// importedPackages returns the module-relative directories of every
// repro/... package that some Go file (test or not, benchmark/
// included) imports from outside that package's own directory.
func importedPackages(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || (strings.HasPrefix(d.Name(), ".") && p != ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			rel, ok := strings.CutPrefix(path, "repro/")
			if ok && rel != filepath.ToSlash(filepath.Dir(p)) {
				out[rel] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestExamplesRun builds every example and runs it as a user would:
// each must exit 0 within the timeout and print its named line.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping example runs in -short mode")
	}
	dir := t.TempDir()
	for name, line := range exampleLines {
		t.Run(name, func(t *testing.T) {
			bin := filepath.Join(dir, name)
			build := exec.Command("go", "build", "-o", bin, "./examples/"+name)
			if msg, err := build.CombinedOutput(); err != nil {
				t.Fatalf("build: %v\n%s", err, msg)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			run := exec.CommandContext(ctx, bin)
			run.Dir = t.TempDir()
			run.Env = os.Environ()
			out, err := run.CombinedOutput()
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out)
			}
			if !strings.Contains(string(out), line) {
				t.Fatalf("output lacks %q:\n%s", line, out)
			}
		})
	}
}
