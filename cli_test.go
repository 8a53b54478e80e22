package repro

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chem"
	"repro/internal/experiments"
	"repro/internal/model"
)

// buildBinaries compiles the command-line tools once per test run.
func buildBinaries(t *testing.T, names ...string) map[string]string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping binary build in -short mode")
	}
	dir := t.TempDir()
	out := map[string]string{}
	for _, name := range names {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, msg)
		}
		out[name] = bin
	}
	return out
}

// runCLI executes a built binary and returns combined output.
func runCLI(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestDavCLIAgainstServer drives the dav binary through a full session
// against an in-process server — the user-facing workflow of the
// README quickstart.
func TestDavCLIAgainstServer(t *testing.T) {
	bins := buildBinaries(t, "dav")
	env, err := experiments.StartDAVEnv(experiments.DAVEnvOptions{Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	dav := func(args ...string) string {
		t.Helper()
		out, err := runCLI(t, bins["dav"], append([]string{"-url", env.URL}, args...)...)
		if err != nil {
			t.Fatalf("dav %v: %v\n%s", args, err, out)
		}
		return out
	}

	// mkcol + put + get round trip.
	dav("mkcol", "/notebook")
	src := filepath.Join(t.TempDir(), "entry.txt")
	if err := os.WriteFile(src, []byte("strong hydration shell\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := dav("put", src, "/notebook/entry.txt"); !strings.Contains(out, "created") {
		t.Fatalf("put output: %s", out)
	}
	if out := dav("get", "/notebook/entry.txt"); !strings.Contains(out, "hydration shell") {
		t.Fatalf("get output: %s", out)
	}

	// Metadata: propset / props / find / search.
	dav("propset", "/notebook/entry.txt", "ecce:", "topic", "hydration")
	if out := dav("props", "/notebook/entry.txt"); !strings.Contains(out, "{ecce:}topic = hydration") {
		t.Fatalf("props output: %s", out)
	}
	if out := dav("find", "/", "ecce:", "topic"); !strings.Contains(out, "/notebook/entry.txt") {
		t.Fatalf("find output: %s", out)
	}
	if out := dav("search", "/", "ecce:", "topic", "like", "hydr%"); !strings.Contains(out, "/notebook/entry.txt") {
		t.Fatalf("search output: %s", out)
	}
	if out := dav("search", "/", "ecce:", "topic", "eq", "nomatch"); strings.Contains(out, "entry.txt") {
		t.Fatalf("search should not match: %s", out)
	}

	// Versioning.
	dav("vc", "/notebook/entry.txt")
	if err := os.WriteFile(src, []byte("revised entry\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dav("put", src, "/notebook/entry.txt")
	out := dav("versions", "/notebook/entry.txt")
	if !strings.Contains(out, "v1") || !strings.Contains(out, "v2") {
		t.Fatalf("versions output: %s", out)
	}

	// Copy, ls, rm.
	dav("cp", "/notebook", "/archive")
	if out := dav("ls", "/archive"); !strings.Contains(out, "entry.txt") {
		t.Fatalf("ls output: %s", out)
	}
	dav("rm", "/notebook")
	if out, err := runCLI(t, bins["dav"], "-url", env.URL, "get", "/notebook/entry.txt"); err == nil {
		t.Fatalf("get after rm succeeded: %s", out)
	}

	// Lock / unlock.
	token := strings.TrimSpace(dav("lock", "/archive/entry.txt"))
	if !strings.HasPrefix(token, "opaquelocktoken:") {
		t.Fatalf("lock output: %q", token)
	}
	dav("unlock", "/archive/entry.txt", token)
}

// TestDavdAndOodbdBinaries boots the daemons and checks they serve.
func TestDavdAndOodbdBinaries(t *testing.T) {
	bins := buildBinaries(t, "davd", "oodbd")

	davdRoot := t.TempDir()
	davd := exec.Command(bins["davd"], "-addr", "127.0.0.1:0", "-root", davdRoot, "-quiet")
	davdOut, err := davd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := davd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		davd.Process.Kill()
		davd.Wait()
	}()
	url := fieldContaining(waitBanner(t, davdOut, "http://"), "http://")
	if url == "" {
		t.Fatal("davd printed no URL")
	}

	// The dav client can talk to the daemon.
	davBins := buildBinaries(t, "dav")
	out, err := runCLI(t, davBins["dav"], "-url", url, "mkcol", "/x")
	if err != nil {
		t.Fatalf("dav mkcol against davd: %v\n%s", err, out)
	}

	// oodbd boots and reports its schema.
	oodbd := exec.Command(bins["oodbd"], "-addr", "127.0.0.1:0", "-dir", t.TempDir())
	oodbdOut, err := oodbd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := oodbd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		oodbd.Process.Kill()
		oodbd.Wait()
	}()
	if banner := waitBanner(t, oodbdOut, "serving"); banner == "" {
		t.Fatal("oodbd printed no banner")
	}
}

// waitBanner reads from r until a full line containing marker arrives,
// returning everything read so far ("" on EOF without a match).
func waitBanner(t *testing.T, r interface{ Read([]byte) (int, error) }, marker string) string {
	t.Helper()
	buf := make([]byte, 4096)
	var acc string
	for i := 0; i < 50; i++ {
		n, err := r.Read(buf)
		acc += string(buf[:n])
		if strings.Contains(acc, marker) && strings.Contains(acc, "\n") {
			return acc
		}
		if err != nil {
			break
		}
	}
	return ""
}

// fieldContaining returns the first whitespace-separated field of text
// containing substr.
func fieldContaining(text, substr string) string {
	for _, f := range strings.Fields(text) {
		if strings.Contains(f, substr) {
			return f
		}
	}
	return ""
}

// TestEccemigrateBinary runs the full migration pipeline through the
// compiled binaries: oodbd serves a populated legacy store, davd the
// destination, and eccemigrate converts and verifies.
func TestEccemigrateBinary(t *testing.T) {
	bins := buildBinaries(t, "davd", "oodbd", "eccemigrate")

	// Populate a legacy OODB on disk first (in-process, then serve it
	// with the daemon).
	oodbDir := t.TempDir()
	func() {
		env, err := experiments.StartOODBEnv(oodbDir)
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		if err := env.Storage.CreateProject("/legacy", model.Project{Name: "legacy"}); err != nil {
			t.Fatal(err)
		}
		if err := env.Storage.CreateCalculation("/legacy/c1", model.Calculation{
			Name: "c1", Theory: "SCF"}); err != nil {
			t.Fatal(err)
		}
		if err := env.Storage.SaveMolecule("/legacy/c1", chem.MakeWater(), chem.FormatXYZ); err != nil {
			t.Fatal(err)
		}
	}()

	oodbd := exec.Command(bins["oodbd"], "-addr", "127.0.0.1:0", "-dir", oodbDir)
	oodbdOut, _ := oodbd.StdoutPipe()
	if err := oodbd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { oodbd.Process.Kill(); oodbd.Wait() }()
	banner := waitBanner(t, oodbdOut, "serving")
	oodbAddr := fieldContaining(banner, "127.0.0.1:")
	if oodbAddr == "" {
		t.Fatalf("could not find oodbd address in banner %q", banner)
	}

	davd := exec.Command(bins["davd"], "-addr", "127.0.0.1:0", "-root", t.TempDir(), "-quiet")
	davdOut, _ := davd.StdoutPipe()
	if err := davd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { davd.Process.Kill(); davd.Wait() }()
	davURL := fieldContaining(waitBanner(t, davdOut, "http://"), "http://")

	out, err := runCLI(t, bins["eccemigrate"], "-oodb", oodbAddr, "-dav", davURL, "-verify")
	if err != nil {
		t.Fatalf("eccemigrate: %v\n%s", err, out)
	}
	for _, want := range []string{"1 projects", "1 calculations", "verified"} {
		if !strings.Contains(out, want) {
			t.Fatalf("migrate output missing %q:\n%s", want, out)
		}
	}
}

// TestEccebenchBinary: an unknown command is refused before anything
// runs, with or without -metrics, and the telemetry smoke passes.
func TestEccebenchBinary(t *testing.T) {
	bins := buildBinaries(t, "eccebench")
	const commands = "<table1|table2|table3|robust|disk|chaos|ablation|smoke|all>"
	for _, args := range [][]string{{"bogus"}, {"-metrics", "bogus"}} {
		out, err := runCLI(t, bins["eccebench"], args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("eccebench %v: %v, want exit status 2", args, err)
		}
		if want := "eccebench: unknown experiment \"bogus\"\nusage: eccebench [flags] " + commands + "\n"; out != want {
			t.Errorf("eccebench %v printed %q, want only %q", args, out, want)
		}
	}
	out, err := runCLI(t, bins["eccebench"], "smoke")
	if err != nil || !strings.Contains(out, "smoke: metrics exposition OK") {
		t.Errorf("eccebench smoke: %v\n%s", err, out)
	}
}
