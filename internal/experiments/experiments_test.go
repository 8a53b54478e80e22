package experiments

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/davclient"
	"repro/internal/obs"
	"repro/internal/store"
)

// The experiment smoke tests run scaled-down configurations; the
// full-size paper configurations run via cmd/eccebench and the root
// benchmarks.

func TestTable1Small(t *testing.T) {
	res, err := RunTable1(Table1Options{Docs: 8, Props: 10, ValueBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Timing.Elapsed <= 0 {
			t.Fatalf("%s has non-positive elapsed", row.Label)
		}
	}
	out := renderToString(t, func(sb *strings.Builder) { res.Table().Fprint(sb) })
	for _, want := range []string{"Table 1", "Copy hierarchy", "0.068"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Variants(t *testing.T) {
	// The ablation axes all run: SAX parser and persistent
	// connections.
	for _, opt := range []Table1Options{
		{Docs: 4, Props: 5, ValueBytes: 128, SAX: true},
		{Docs: 4, Props: 5, ValueBytes: 128, Persistent: true},
		{Docs: 4, Props: 5, ValueBytes: 128, InMemory: true},
	} {
		res, err := RunTable1(opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if len(res.Rows) != 6 {
			t.Fatalf("%+v rows = %d", opt, len(res.Rows))
		}
	}
}

func TestTable2Small(t *testing.T) {
	res, err := RunTable2(Table2Options{SizesMB: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (FTP + PUT)", len(res.Rows))
	}
	// Shape check: HTTP PUT within 4x of FTP (paper: comparable).
	ftpS := res.Rows[0].Timing.Elapsed.Seconds()
	putS := res.Rows[1].Timing.Elapsed.Seconds()
	if putS > 4*ftpS+0.05 {
		t.Fatalf("HTTP PUT (%0.3fs) should be comparable to FTP (%0.3fs)", putS, ftpS)
	}
	out := renderToString(t, func(sb *strings.Builder) { res.Table().Fprint(sb) })
	if !strings.Contains(out, "FTP 2 MB") || !strings.Contains(out, "HTTP put 2 MB") {
		t.Fatalf("rendered table:\n%s", out)
	}
}

func TestTable3Small(t *testing.T) {
	res, err := RunTable3(Table3Options{Waters: 3, GridPoints: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{BackendOODB, BackendDAV} {
		rows := res.Rows[backend]
		if len(rows) != 6 {
			t.Fatalf("%s rows = %d", backend, len(rows))
		}
	}
	tables := res.Tables()
	if len(tables) != 2 {
		t.Fatalf("tables = %d", len(tables))
	}
	out := renderToString(t, func(sb *strings.Builder) {
		for _, tbl := range tables {
			tbl.Fprint(sb)
		}
	})
	for _, want := range []string{"Ecce 1.5", "Ecce 2.0", "Builder", "Job Launcher", "NA"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered tables missing %q:\n%s", want, out)
		}
	}
}

func TestRobustSmall(t *testing.T) {
	res, err := RunRobust(RobustOptions{PropMB: 2, DocMB: 4, Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		out := renderToString(t, func(sb *strings.Builder) { res.Table().Fprint(sb) })
		t.Fatalf("robustness checks failed:\n%s", out)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
}

func TestChaosWorkload(t *testing.T) {
	// Full acceptance sizes: seeded, so this is deterministic, and the
	// retry delays are the only real time spent.
	res, err := RunChaos(DefaultChaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		out := renderToString(t, func(sb *strings.Builder) { res.Table().Fprint(sb) })
		t.Fatalf("chaos acceptance failed:\n%s", out)
	}
	with, without := res.Rows[0], res.Rows[1]
	if with.Faults == 0 {
		t.Fatal("injector fired no faults")
	}
	if with.Requests <= int64(res.Options.Iterations*2) {
		t.Fatalf("retrying run sent %d requests for %d operations — no retries happened",
			with.Requests, res.Options.Iterations*2)
	}
	if without.Retries != 0 {
		t.Fatalf("no-retry control reported %d retries", without.Retries)
	}
}

func TestDiskSmall(t *testing.T) {
	res, err := RunDisk(DiskOptions{Calculations: 8, GridPoints: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.OODBBytes == 0 || res.SDBMBytes == 0 || res.GDBMBytes == 0 {
		t.Fatalf("zero footprints: %+v", res)
	}
	// The paper's shape: GDBM store bigger than SDBM store (larger
	// per-resource database minimums).
	if res.SDBMBytes >= res.GDBMBytes {
		t.Fatalf("SDBM (%d) should be smaller than GDBM (%d)", res.SDBMBytes, res.GDBMBytes)
	}
	if res.GDBMOverhead <= res.SDBMOverhead {
		t.Fatalf("overheads: SDBM %+.0f%% GDBM %+.0f%%", res.SDBMOverhead, res.GDBMOverhead)
	}
}

func TestDAVEnvLifecycle(t *testing.T) {
	env, err := StartDAVEnv(DAVEnvOptions{Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.Client.PutBytes("/x", []byte("1"), ""); err != nil {
		t.Fatal(err)
	}
	// Extra client with a different policy works against the same
	// server.
	c2, err := env.NewClient(false, davclient.ParserSAX)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := c2.Get("/x"); err != nil || string(b) != "1" {
		t.Fatalf("second client get = (%q, %v)", b, err)
	}
	c2.Close()
	env.Close()
	// After close the temp dir is gone; a new env can start fresh.
	env2, err := StartDAVEnv(DAVEnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	env2.Close()
}

// panicStore panics on a Get of /boom.
type panicStore struct{ store.Store }

func (p panicStore) Get(ctx context.Context, path string) (io.ReadCloser, store.ResourceInfo, error) {
	if path == "/boom" {
		panic("panicStore: boom")
	}
	return p.Store.Get(ctx, path)
}

// TestDAVEnvServesTheShippedChain: the environment's server is
// davserver.Build's, not a private assembly — with no telemetry enabled
// it still echoes X-Request-ID (the telemetry layer), answers /readyz
// (the probe mux) and turns a handler panic into a 500 (Harden), none
// of which the bare DAV handler does.
func TestDAVEnvServesTheShippedChain(t *testing.T) {
	env, err := StartDAVEnv(DAVEnvOptions{
		InMemory:  true,
		WrapStore: func(s store.Store) store.Store { return panicStore{s} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if _, err := env.Client.PutBytes("/boom", []byte("x"), ""); err != nil {
		t.Fatal(err)
	}
	get := func(path, id string) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, env.URL+path, nil)
		req.Header.Set(obs.RequestIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := get("/boom", "abc"); resp.StatusCode != 500 || resp.Header.Get(obs.RequestIDHeader) != "abc" {
		t.Fatalf("GET /boom = %d with X-Request-ID %q, want a recovered 500 echoing abc",
			resp.StatusCode, resp.Header.Get(obs.RequestIDHeader))
	}
	if resp := get("/readyz", "abc"); resp.StatusCode != 200 {
		t.Fatalf("GET /readyz = %d, want 200 from the probe mux", resp.StatusCode)
	}
}

// Table 3's measured cells resolve a load well under a millisecond: a
// 400 µs load must not render as zero, as it did in seconds to three
// decimals.
func TestTable3CellsResolveSubMillisecondLoads(t *testing.T) {
	res := Table3Result{Rows: map[string][]Table3Row{BackendDAV: {{
		Tool:    "Builder",
		Startup: bench.Timing{Elapsed: 2 * time.Millisecond},
		Load:    bench.Timing{Elapsed: 400 * time.Microsecond},
		Warm:    bench.Timing{Elapsed: 90 * time.Microsecond},
	}}}}
	out := renderToString(t, func(sb *strings.Builder) {
		for _, tbl := range res.Tables() {
			tbl.Fprint(sb)
		}
	})
	for _, want := range []string{"2.000 ms", "0.400 ms", "0.090 ms", "1.10 s", "0.10 s"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table lacks %q:\n%s", want, out)
		}
	}
}

func renderToString(t *testing.T, fn func(*strings.Builder)) string {
	t.Helper()
	var sb strings.Builder
	fn(&sb)
	return sb.String()
}

func TestSearchAblation(t *testing.T) {
	tbl, err := RunSearchAblation()
	if err != nil {
		t.Fatal(err)
	}
	out := renderToString(t, func(sb *strings.Builder) { tbl.Fprint(sb) })
	for _, want := range []string{"DASL SEARCH", "PROPFIND walk", "kept body"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation table missing %q:\n%s", want, out)
		}
	}
}
