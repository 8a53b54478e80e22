// Command benchmark measures the davd this tree ships, from outside:
// it builds cmd/davd, runs it as a child process with its default
// flags, drives it over loopback with internal/davclient on one of four
// paper-shaped workloads, verifies every response, and prints seven
// end-to-end metrics — or, with -trace 1, the per-layer metrics that
// say where a change in those seven came from. See README.md.
//
//	go run . -workload propfind_sweep -seed 1 -seconds 20
//	go run . -workload all -repeat 5 -check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// environment is recorded next to every result: the numbers mean
// nothing without it.
type environment struct {
	Commit         string   `json:"git_commit"`
	GoVersion      string   `json:"go_version"`
	NProc          int      `json:"nproc"`
	ServerCPUs     string   `json:"server_cpus"`
	ClientCPUs     string   `json:"client_cpus"`
	Pinned         bool     `json:"pinned"`
	StoreFS        string   `json:"store_fs"`
	DavdFlags      []string `json:"davd_flags"` // everything else is davd's default
	DavdGOMAXPROCS int      `json:"davd_gomaxprocs"`
	Seed           int64    `json:"seed"`
	TimedSeconds   float64  `json:"timed_seconds"`
	SetupRounds    int      `json:"setup_rounds"`
	Short          bool     `json:"short"`
}

// resultFile is what -out writes.
type resultFile struct {
	Env      environment `json:"environment"`
	Outcomes []outcome   `json:"workloads"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadArg = flag.String("workload", "", "doc_transfer, propfind_sweep, calc_browse, author_mix, or all")
		seed        = flag.Int64("seed", 1, "seed for every generated body, value and choice")
		seconds     = flag.Float64("seconds", 20, "length of the timed phase")
		traceArg    = flag.Int("trace", 0, "1 = report the per-layer metrics (process view, traced in-process run, isolated calls) in place of the end-to-end ones")
		short       = flag.Bool("short", false, "smoke sizes: 2 s phases, 8 calculations, 1 MiB documents")
		repeat      = flag.Int("repeat", 1, "run each chosen workload this many times and print the spread of every end-to-end metric")
		check       = flag.Bool("check", false, "with -repeat: exit 1 if any spread is outside its metric's bound")
		outPath     = flag.String("out", "", "write environment and results to this file as JSON")
		spansPath   = flag.String("spans", "", "with -trace 1: write the span log here (default <build dir>/spans-<workload>.jsonl)")
	)
	flag.Parse()
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
		return 2
	}

	var chosen []spec
	if *workloadArg == "all" {
		chosen = specs
	} else if sp, ok := findSpec(*workloadArg); ok {
		chosen = []spec{sp}
	} else {
		return fail("unknown -workload %q", *workloadArg)
	}
	timed := time.Duration(*seconds * float64(time.Second))
	if *short {
		timed = 2 * time.Second
	}

	repo, err := findRepo()
	if err != nil {
		return fail("%v", err)
	}
	buildDir := filepath.Join(repo, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return fail("%v", err)
	}
	t0 := time.Now()
	davdBin, err := buildDavd(repo, buildDir)
	if err != nil {
		return fail("%v", err)
	}
	buildS := time.Since(t0).Seconds()

	all, err := affinity(0)
	if err != nil {
		return fail("%v", err)
	}
	cfg := config{davdBin: davdBin, buildDir: buildDir, all: all,
		seed: *seed, timed: timed, short: *short, trace: *traceArg != 0}
	cfg.server, cfg.client, cfg.pinned = splitCPUs(all)
	if cfg.pinned {
		if err := pinSelf(cfg.client); err != nil {
			return fail("%v", err)
		}
	}
	var storeFS string
	if cfg.storeDir, storeFS, err = chooseStoreDir(buildDir); err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(cfg.storeDir)

	env := environment{
		Commit: gitCommit(repo), GoVersion: runtime.Version(), NProc: len(all),
		ServerCPUs: cfg.server.String(), ClientCPUs: cfg.client.String(), Pinned: cfg.pinned,
		StoreFS: storeFS, DavdFlags: []string{"-addr", "127.0.0.1:0", "-root", "<fresh directory>"},
		DavdGOMAXPROCS: len(cfg.server), Seed: *seed, TimedSeconds: timed.Seconds(),
		SetupRounds: setupRounds, Short: *short,
	}
	if cfg.short || cfg.trace {
		env.SetupRounds = 1
	}
	envJSON, _ := json.Marshal(env)
	fmt.Printf("environment %s\n", envJSON)
	fmt.Printf("info build_davd_s %.3f s (not part of setup_s)\n", buildS)
	if !cfg.pinned {
		fmt.Println("info one CPU allowed: davd and the generator share it, unpinned")
	}

	file := resultFile{Env: env}
	status := 0
	byWorkload := map[string][]outcome{}
	for r := 0; r < *repeat; r++ {
		for _, sp := range chosen {
			out, err := runWorkload(cfg, sp, *spansPath)
			if err != nil {
				// Nothing is printed for a run that could not be
				// measured; the exit code says so.
				return fail("%s: %v", sp.name, err)
			}
			file.Outcomes = append(file.Outcomes, out)
			byWorkload[sp.name] = append(byWorkload[sp.name], out)
			if !out.Correct {
				status = 1
			}
			printOutcome(out, cfg.trace)
		}
	}
	if *repeat > 1 && !cfg.trace {
		if !printSpreads(chosen, byWorkload) && *check {
			status = 1
		}
	}
	if *outPath != "" {
		b, _ := json.MarshalIndent(file, "", "  ")
		if err := os.WriteFile(*outPath, append(b, '\n'), 0o644); err != nil {
			return fail("%v", err)
		}
	}
	// The last line of output is the machine-readable result of the
	// last run.
	last := file.Outcomes[len(file.Outcomes)-1]
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line, _ := json.Marshal(struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]reported `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, report(defs, last.Values)})
	fmt.Printf("%s\n", line)
	return status
}

// runWorkload is one measured run of one workload: end to end, and with
// cfg.trace also traced in process and in isolated calls.
func runWorkload(cfg config, sp spec, spansPath string) (outcome, error) {
	out, err := runEndToEnd(cfg, sp)
	if err != nil || !cfg.trace {
		return out, err
	}
	// Client and server now share this process, so it gets every CPU.
	if cfg.pinned {
		if err := pinSelf(cfg.all); err != nil {
			return out, err
		}
		defer pinSelf(cfg.client)
	}
	env, w, ph, err := runTraced(cfg, sp, out.Values)
	if err != nil {
		return out, err
	}
	defer env.close()
	out.Attempted += ph.attempted
	if spansPath == "" {
		spansPath = filepath.Join(cfg.buildDir, "spans-"+sp.name+".jsonl")
	}
	if err := env.rec.writeJSONL(spansPath); err != nil {
		return out, err
	}
	fmt.Printf("info %s spans written to %s\n", sp.name, spansPath)
	return out, runIsolated(env, w, cfg.buildDir, cfg.short, out.Values)
}

func printOutcome(out outcome, trace bool) {
	fmt.Printf("workload %s correct=%v attempted=%d failed=%d latency_samples=%d timed_s=%.3f setup_rounds_s=%.3f\n",
		out.Workload, out.Correct, out.Attempted, out.Failed, out.Samples, out.TimedS, out.SetupsS)
	for _, p := range out.Problems {
		fmt.Printf("problem %s %s\n", out.Workload, p)
	}
	defs := endToEnd
	if trace {
		defs = append(append([]metricDef(nil), endToEnd...), perLayer...)
	}
	for _, d := range defs {
		fmt.Printf("metric %s %s %.6g %s\n", out.Workload, d.Name, out.Values[d.Name], d.Unit)
	}
	for _, name := range []string{"machine.server_speed", "machine.client_speed", "setup_s", "ops_per_s",
		"op_p50_ms", "op_p95_ms", "server_cpu_ms_per_op", "client_cpu_ms_per_op"} {
		fmt.Printf("raw %s %s %.6g\n", out.Workload, name, out.Raw[name])
	}
}

// printSpreads prints, per workload and end-to-end metric, the median,
// quartiles and range over the repeated runs and whether the
// interquartile spread is inside the metric's bound. It reports whether
// all were.
func printSpreads(chosen []spec, byWorkload map[string][]outcome) bool {
	ok := true
	fmt.Printf("\n%-15s %-25s %10s %10s %10s %10s %10s %8s %6s  %s\n",
		"workload", "metric", "median", "q1", "q3", "min", "max", "spread", "bound", "")
	for _, sp := range chosen {
		for _, d := range endToEnd {
			var vs []float64
			for _, o := range byWorkload[sp.name] {
				vs = append(vs, o.Values[d.Name])
			}
			q1, q3 := quartiles(vs)
			s := sortedCopy(vs)
			verdict := "inside"
			if spread(vs) > d.Bound {
				verdict, ok = "OUTSIDE", false
			}
			fmt.Printf("%-15s %-25s %10.5g %10.5g %10.5g %10.5g %10.5g %7.2f%% %5.0f%%  %s\n",
				sp.name, d.Name, median(vs), q1, q3, s[0], s[len(s)-1], 100*spread(vs), 100*d.Bound, verdict)
		}
	}
	return ok
}
