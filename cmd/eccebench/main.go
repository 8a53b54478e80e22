// Command eccebench regenerates every table and experiment in the
// paper's evaluation, printing measured numbers next to the published
// ones.
//
// Usage:
//
//	eccebench [flags] <table1|table2|table3|robust|disk|chaos|ablation|smoke|bench-pr3|crash-recovery|bench-pr7|bench-pr8|bench-pr9|bench-pr10|opssmoke|all>
//
// By default the paper's full workload sizes are used for table1 and
// table3; table2, robust and disk default to scaled sizes unless -full
// is given (the full sizes move hundreds of megabytes).
//
// With -metrics, telemetry is enabled on every in-process server and
// client, and a Prometheus-format snapshot of the accumulated registry
// is printed after each experiment. The smoke command runs a tiny
// instrumented workload and validates the exposition — CI uses it to
// guarantee the telemetry path stays alive.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/ops"
)

func main() {
	var (
		full        = flag.Bool("full", false, "use the paper's full sizes everywhere (slow: moves 100s of MB)")
		docs        = flag.Int("docs", 50, "table1: number of documents")
		props       = flag.Int("props", 50, "table1: properties per document")
		size        = flag.Int("propsize", 1024, "table1: property value bytes")
		calcs       = flag.Int("calcs", 64, "disk: calculations to migrate (paper: 259)")
		withMetrics = flag.Bool("metrics", false,
			"instrument servers/clients and print a Prometheus metrics snapshot after each experiment")
		benchOut = flag.String("out", "",
			"bench-pr*, crash-recovery: output file for the JSON result (default BENCH_PR<n>.json, n taken from the command; crash-recovery is 6)")
		benchN = flag.Int("n", 0,
			"bench-pr3: operations per experiment; crash-recovery: PUTs in the journal-overhead measurement; bench-pr7: requests in the Zipf phase; 0 = that benchmark's default")
		adminURL = flag.String("admin-url", "",
			"opssmoke: base URL of a live davd admin listener (e.g. http://127.0.0.1:8081)")
		davURL = flag.String("dav-url", "",
			"opssmoke: base URL of the matching DAV listener; when set, a small workload is driven first so the analytics have something to show")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: eccebench [flags] <table1|table2|table3|robust|disk|chaos|ablation|smoke|bench-pr3|crash-recovery|bench-pr7|bench-pr8|bench-pr9|bench-pr10|opssmoke|all>")
		os.Exit(2)
	}
	which := flag.Arg(0)
	outFor := func(pr int) string {
		if *benchOut != "" {
			return *benchOut
		}
		return fmt.Sprintf("BENCH_PR%d.json", pr)
	}
	if *withMetrics {
		experiments.EnableMetrics()
	}
	run := func(name string, fn func() error) {
		if which == name || which == "all" {
			if err := fn(); err != nil {
				log.Fatalf("eccebench %s: %v", name, err)
			}
			if *withMetrics {
				fmt.Printf("\n--- metrics after %s ---\n", name)
				if err := experiments.EnableMetrics().Registry.WritePrometheus(os.Stdout); err != nil {
					log.Fatalf("eccebench %s: metrics snapshot: %v", name, err)
				}
			}
		}
	}

	run("table1", func() error {
		res, err := experiments.RunTable1(experiments.Table1Options{
			Docs: *docs, Props: *props, ValueBytes: *size,
		})
		if err != nil {
			return err
		}
		res.Table().Fprint(os.Stdout)
		return nil
	})

	run("table2", func() error {
		sizes := []int{20}
		if *full {
			sizes = []int{20, 200}
		}
		res, err := experiments.RunTable2(experiments.Table2Options{SizesMB: sizes})
		if err != nil {
			return err
		}
		res.Table().Fprint(os.Stdout)
		return nil
	})

	run("table3", func() error {
		res, err := experiments.RunTable3(experiments.DefaultTable3Options())
		if err != nil {
			return err
		}
		for _, t := range res.Tables() {
			t.Fprint(os.Stdout)
		}
		return nil
	})

	run("robust", func() error {
		opts := experiments.RobustOptions{PropMB: 16, DocMB: 32, Repeats: 3}
		if *full {
			opts = experiments.DefaultRobustOptions() // 100 MB props, 200 MB docs
		}
		res, err := experiments.RunRobust(opts)
		if err != nil {
			return err
		}
		res.Table().Fprint(os.Stdout)
		if !res.Passed() {
			return fmt.Errorf("robustness checks failed")
		}
		return nil
	})

	run("disk", func() error {
		opts := experiments.DefaultDiskOptions()
		opts.Calculations = *calcs
		if *full {
			opts.Calculations = 259 // the paper's corpus size
		}
		res, err := experiments.RunDisk(opts)
		if err != nil {
			return err
		}
		res.Table().Fprint(os.Stdout)
		return nil
	})

	run("chaos", func() error {
		res, err := experiments.RunChaos(experiments.DefaultChaosOptions())
		if err != nil {
			return err
		}
		res.Table().Fprint(os.Stdout)
		if !res.Passed() {
			return fmt.Errorf("chaos workload leaked errors through the retry layer")
		}
		return nil
	})

	run("ablation", runAblations)

	// smoke runs a tiny instrumented workload and fails unless the
	// resulting exposition is present and well formed. It is the CI
	// guard for the telemetry path and is excluded from "all".
	if which == "smoke" {
		if err := runSmoke(); err != nil {
			log.Fatalf("eccebench smoke: %v", err)
		}
	}

	// bench-pr3 runs the traced benchmark trajectory, writes the JSON
	// result, and re-validates the written file against the schema —
	// the CI trace smoke. Excluded from "all" (it re-enables tracing
	// globally, which would perturb the plain table runs).
	if which == "bench-pr3" {
		if err := runBenchPR3(outFor(3), *benchN); err != nil {
			log.Fatalf("eccebench bench-pr3: %v", err)
		}
	}

	// crash-recovery crashes every journaled store operation at every
	// step boundary, times the recovery pass, and asserts zero data
	// loss; the JSON result is the CI crash smoke. Excluded from "all"
	// (it reopens hundreds of scratch stores).
	if which == "crash-recovery" {
		if err := runCrashRecovery(outFor(6), *benchN); err != nil {
			log.Fatalf("eccebench crash-recovery: %v", err)
		}
	}

	// bench-pr7 runs the workload-analytics benchmark (Zipf hot-resource
	// verification, SLO burn under injected latency, sampler overhead),
	// writes the JSON result, and re-validates the written file — the CI
	// ops smoke. Excluded from "all" (its latency-injection phase
	// deliberately sleeps on the serving path).
	if which == "bench-pr7" {
		if err := runBenchPR7(outFor(7), *benchN); err != nil {
			log.Fatalf("eccebench bench-pr7: %v", err)
		}
	}

	// bench-pr8 runs the continuous-profiling benchmark (chaos latency →
	// degraded window → exactly one incident bundle with parseable
	// evidence, then profiler overhead on the PR 4 mix), writes the JSON
	// result, and re-validates the written file. Excluded from "all"
	// (its chaos phase deliberately sleeps on the serving path).
	if which == "bench-pr8" {
		if err := runBenchPR8(outFor(8)); err != nil {
			log.Fatalf("eccebench bench-pr8: %v", err)
		}
	}

	// bench-pr9 runs the cancellation benchmark (contended parallel mix
	// with a fraction of clients disconnecting mid-flight, detached
	// baseline vs cancelling stack), writes the JSON result, and
	// re-validates the written file — the CI cancellation smoke.
	// Excluded from "all" (its stall injection deliberately sleeps
	// inside the path lock).
	if which == "bench-pr9" {
		if err := runBenchPR9(outFor(9)); err != nil {
			log.Fatalf("eccebench bench-pr9: %v", err)
		}
	}

	// bench-pr10 runs the overload benchmark (a closed-loop fleet
	// saturating a throttled store, unprotected baseline vs the
	// admission-controlled stack), writes the JSON result, and
	// re-validates the written file — the CI overload smoke. Excluded
	// from "all" (its throttled store deliberately sleeps on the
	// serving path and its shed clients honor multi-second Retry-After).
	if which == "bench-pr10" {
		if err := runBenchPR10(outFor(10)); err != nil {
			log.Fatalf("eccebench bench-pr10: %v", err)
		}
	}

	// opssmoke scrapes a LIVE davd admin listener — /metrics and
	// /debug/status?format=json — and validates both, optionally driving
	// a small workload against the DAV listener first. CI uses it to
	// prove the operational console works over real HTTP, not just
	// in-process.
	if which == "opssmoke" {
		if err := runOpsSmoke(*adminURL, *davURL); err != nil {
			log.Fatalf("eccebench opssmoke: %v", err)
		}
	}

	switch which {
	case "table1", "table2", "table3", "robust", "disk", "chaos", "ablation", "smoke", "bench-pr3", "crash-recovery", "bench-pr7", "bench-pr8", "bench-pr9", "bench-pr10", "opssmoke", "all":
	default:
		fmt.Fprintf(os.Stderr, "eccebench: unknown experiment %q\n", which)
		os.Exit(2)
	}
}

// runSmoke drives a minimal Table 1 workload with telemetry enabled and
// validates the metrics exposition end to end.
func runSmoke() error {
	m := experiments.EnableMetrics()
	if _, err := experiments.RunTable1(experiments.Table1Options{
		Docs: 3, Props: 3, ValueBytes: 64,
	}); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := m.Registry.WritePrometheus(&buf); err != nil {
		return err
	}
	if err := obs.CheckExposition(buf.Bytes()); err != nil {
		return fmt.Errorf("exposition invalid: %w", err)
	}
	out := buf.String()
	for _, want := range []string{
		"dav_requests_total",
		"dav_store_op_duration_seconds",
		"davclient_requests_total",
	} {
		if !strings.Contains(out, want) {
			return fmt.Errorf("exposition missing %s", want)
		}
	}
	if n := strings.Count(out, "dav_request_duration_seconds_bucket"); n < 8 {
		return fmt.Errorf("latency histogram has %d bucket samples, want >= 8", n)
	}
	fmt.Printf("smoke: metrics exposition OK (%d bytes, %d series lines)\n",
		buf.Len(), strings.Count(out, "\n"))
	return nil
}

// runBenchPR3 runs the traced benchmark trajectory, writes the result
// as JSON, and validates what was actually written — asserting, among
// other things, that at least one trace was sampled and every
// experiment has a server-side breakdown.
func runBenchPR3(outPath string, ops int) error {
	res, err := experiments.RunBenchPR3(experiments.BenchPR3Options{Ops: ops})
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	written, err := os.ReadFile(outPath)
	if err != nil {
		return err
	}
	if err := experiments.ValidateBenchPR3(written); err != nil {
		return fmt.Errorf("written %s failed validation: %w", outPath, err)
	}
	for _, e := range res.Experiments {
		fmt.Printf("bench-pr3: %-28s p50=%7.2fms p90=%7.2fms p99=%7.2fms  "+
			"breakdown(handler/store/dbm)=%.1f/%.1f/%.1fms over %d traces\n",
			e.Name, e.P50Ms, e.P90Ms, e.P99Ms,
			e.Breakdown.HandlerMs, e.Breakdown.StoreMs, e.Breakdown.DBMMs, e.Breakdown.Traces)
	}
	fmt.Printf("bench-pr3: %d traces sampled; result written to %s\n", res.SampledTraces, outPath)
	return nil
}

// runCrashRecovery runs the PR 6 crash matrix plus the journal and
// fsck cost measurements, writes BENCH_PR6.json, and validates what
// was actually written — asserting zero torn states and zero
// post-recovery fsck findings across every crash point.
func runCrashRecovery(outPath string, journalDocs int) error {
	res, err := experiments.RunCrashRecovery(experiments.BenchPR6Options{
		JournalDocs: journalDocs,
	})
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	written, err := os.ReadFile(outPath)
	if err != nil {
		return err
	}
	if err := experiments.ValidateBenchPR6(written); err != nil {
		return fmt.Errorf("written %s failed validation: %w", outPath, err)
	}
	total := 0
	for _, op := range res.Ops {
		total += op.CrashPoints
		fmt.Printf("crash-recovery: %-14s %2d crash points  rolled fwd/back=%d/%d  "+
			"torn=%d  fsck findings=%d  recover mean=%.2fms max=%.2fms\n",
			op.Op, op.CrashPoints, op.RolledForward, op.RolledBack,
			op.TornStates, op.FsckFindings, op.MeanRecoverMs, op.MaxRecoverMs)
	}
	fmt.Printf("crash-recovery: %d crash points total, %d data-loss events; "+
		"journal overhead %.1f%% over %d PUTs; fsck %d resources/%d databases in %.1fms; "+
		"result written to %s\n",
		total, res.DataLossEvents, res.Journal.OverheadPct, res.Journal.Docs,
		res.Fsck.Resources, res.Fsck.Databases, res.Fsck.WallMs, outPath)
	return nil
}

// runBenchPR7 runs the workload-analytics benchmark, writes the result
// as JSON, and validates what was actually written — asserting the
// top-K named the known-hottest document, the SLO degraded under
// injected latency, and the sampler stayed inside its overhead budget.
func runBenchPR7(outPath string, reqs int) error {
	res, err := experiments.RunBenchPR7(experiments.BenchPR7Options{Requests: reqs})
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	written, err := os.ReadFile(outPath)
	if err != nil {
		return err
	}
	if err := experiments.ValidateBenchPR7(written); err != nil {
		return fmt.Errorf("written %s failed validation: %w", outPath, err)
	}
	tk := res.TopK
	fmt.Printf("bench-pr7: zipf(%g) over %d docs, %d requests: hottest %s "+
		"(%.1f%% of traffic, console agrees=%v)\n",
		tk.ZipfS, tk.Docs, tk.Requests, tk.HottestObserved,
		100*tk.HotPaths[0].Share, tk.Agrees)
	fmt.Printf("bench-pr7: slo %s burn %0.2f -> %0.2f (short) / %0.2f (long) "+
		"under injected latency; degraded=%v\n",
		res.SLO.Objective, res.SLO.BaselineBurnShort, res.SLO.ChaosBurnShort,
		res.SLO.ChaosBurnLong, res.SLO.Degraded)
	fmt.Printf("bench-pr7: sampler overhead %.2f%% (%d samples, %.0f vs %.0f ops/s); "+
		"result written to %s\n",
		100*res.Sampler.Overhead, res.Sampler.Samples,
		res.Sampler.BaselineOpsPerSec, res.Sampler.SampledOpsPerSec, outPath)
	return nil
}

// runBenchPR8 runs the continuous-profiling benchmark, writes the
// result as JSON, and validates what was actually written — asserting
// the degraded window produced exactly one deduplicated, fully
// parseable incident bundle and the profiler stayed inside its
// overhead budget.
func runBenchPR8(outPath string) error {
	res, err := experiments.RunBenchPR8(experiments.BenchPR8Options{})
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	written, err := os.ReadFile(outPath)
	if err != nil {
		return err
	}
	if err := experiments.ValidateBenchPR8(written); err != nil {
		return fmt.Errorf("written %s failed validation: %w", outPath, err)
	}
	inc := res.Incident
	fmt.Printf("bench-pr8: %d chaos GETs degraded the SLO; watcher fired %d, "+
		"%d bundle (%s, %d bytes, repeat suppressed=%v)\n",
		inc.ChaosRequests, inc.WatcherFired, inc.Bundles, inc.BundleID,
		inc.BundleBytes, inc.SuppressedRepeat)
	fmt.Printf("bench-pr8: bundle holds %d profile kinds, %d trace lines, "+
		"metrics ok=%v, status ok=%v, %d log lines\n",
		inc.ProfileKinds, inc.TraceLines, inc.MetricsOK, inc.StatusOK, inc.LogLines)
	fmt.Printf("bench-pr8: profiler overhead %.2f%% (%d captures, measured ratio %.4f, "+
		"%.0f vs %.0f ops/s); result written to %s\n",
		100*res.Sampler.Overhead, res.Sampler.Captures, res.Sampler.MeasuredRatio,
		res.Sampler.BaselineOpsPerSec, res.Sampler.SampledOpsPerSec, outPath)
	return nil
}

// runBenchPR9 runs the cancellation benchmark, writes the result as
// JSON, and validates what was actually written — asserting the
// cancelling stack reclaimed abandoned store work the detached baseline
// burned, and that every reclaimed operation rolled back cleanly.
func runBenchPR9(outPath string) error {
	res, err := experiments.RunBenchPR9(experiments.BenchPR9Options{})
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	written, err := os.ReadFile(outPath)
	if err != nil {
		return err
	}
	if err := experiments.ValidateBenchPR9(written); err != nil {
		return fmt.Errorf("written %s failed validation: %w", outPath, err)
	}
	for _, a := range res.Arms {
		fmt.Printf("bench-pr9: %-10s wall=%7.1fms drain=%7.1fms  survivors %5.1f ops/s  "+
			"aborted=%d  stalled ops=%d (%.0fms store busy)  gate cancels=%d wait=%.0fms  lock cancels=%d\n",
			a.Name, a.WallMs, a.DrainMs, a.SurvivorOpsPerSec,
			a.AbortedRequests, a.OpsStalled, a.StoreBusyMs,
			a.GateCancelled, a.GateWaitMs, a.LockCancelled)
	}
	fmt.Printf("bench-pr9: reclaimed %.0fms of store work; drain speedup %.2fx; "+
		"fsck findings=%d, journal pending=%d; result written to %s\n",
		res.ReclaimedStoreMs, res.DrainSpeedup,
		res.Integrity.FsckFindings, res.Integrity.JournalPending, outPath)
	return nil
}

// runBenchPR10 runs the overload benchmark, writes the result as JSON,
// and validates what was actually written — asserting the admission
// controller kept goodput up under saturation, every shed carried an
// honest Retry-After, and the store came out clean.
func runBenchPR10(outPath string) error {
	res, err := experiments.RunBenchPR10(experiments.BenchPR10Options{})
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	written, err := os.ReadFile(outPath)
	if err != nil {
		return err
	}
	if err := experiments.ValidateBenchPR10(written); err != nil {
		return fmt.Errorf("written %s failed validation: %w", outPath, err)
	}
	for _, a := range res.Arms {
		fmt.Printf("bench-pr10: %-12s wall=%7.1fms  %4d requests  good=%4d (%.1f/s)  "+
			"slow-ok=%3d  sheds=%4d (retry-after on %d)  ok p50/p99=%.0f/%.0fms  writer puts/sheds=%d/%d\n",
			a.Name, a.WallMs, a.Requests, a.Good, a.GoodPerSec,
			a.SlowOK, a.Sheds, a.ShedsWithRetryAfter, a.OKP50Ms, a.OKP99Ms,
			a.WriterPuts, a.WriterSheds)
		if a.Admission != nil {
			fmt.Printf("bench-pr10: %-12s limit converged to %.1f (+%d/-%d adjustments), "+
				"%d admitted, %d shed at the limiter\n",
				a.Name, a.Admission.FinalLimit, a.Admission.Increases,
				a.Admission.Decreases, a.Admission.Admitted, a.Admission.Shed)
		}
	}
	fmt.Printf("bench-pr10: goodput ratio %.2fx; fsck findings=%d, journal pending=%d; "+
		"result written to %s\n",
		res.GoodputRatio, res.Integrity.FsckFindings, res.Integrity.JournalPending, outPath)
	return nil
}

// runOpsSmoke validates a live davd admin surface over real HTTP: the
// Prometheus exposition parses and carries the ops families, and
// /debug/status?format=json decodes into the documented schema.
func runOpsSmoke(adminURL, davURL string) error {
	if adminURL == "" {
		return fmt.Errorf("-admin-url is required")
	}
	client := &http.Client{Timeout: 30 * time.Second}

	if davURL != "" {
		// Drive a tiny skewed workload so the analytics are non-empty:
		// /smoke/hot.dat is unambiguously the hottest resource.
		mkcol, err := http.NewRequest("MKCOL", davURL+"/smoke", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(mkcol)
		if err != nil {
			return fmt.Errorf("MKCOL /smoke: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		// 405 = the collection already exists (a rerun against the same
		// store), which is fine.
		if resp.StatusCode >= 300 && resp.StatusCode != http.StatusMethodNotAllowed {
			return fmt.Errorf("MKCOL /smoke: status %d", resp.StatusCode)
		}
		for i := 0; i < 12; i++ {
			p := "/smoke/hot.dat"
			if i%4 == 3 {
				p = fmt.Sprintf("/smoke/cold%d.dat", i)
			}
			req, err := http.NewRequest(http.MethodPut, davURL+p, strings.NewReader("opssmoke"))
			if err != nil {
				return err
			}
			resp, err := client.Do(req)
			if err != nil {
				return fmt.Errorf("PUT %s: %w", p, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode >= 300 {
				return fmt.Errorf("PUT %s: status %d", p, resp.StatusCode)
			}
		}
	}

	resp, err := client.Get(adminURL + "/metrics")
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	exposition, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if err := obs.CheckExposition(exposition); err != nil {
		return fmt.Errorf("/metrics exposition invalid: %w", err)
	}
	for _, want := range []string{
		"dav_requests_total",
		"dav_hot_path_requests",
		"dav_slo_degraded",
		"dav_runtime_goroutines",
		"dav_journal_pending_intents",
	} {
		if !bytes.Contains(exposition, []byte(want)) {
			return fmt.Errorf("/metrics missing %s", want)
		}
	}

	resp, err = client.Get(adminURL + "/debug/status?format=json")
	if err != nil {
		return fmt.Errorf("fetch /debug/status: %w", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		return fmt.Errorf("/debug/status?format=json served Content-Type %q", ct)
	}
	var doc ops.StatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return fmt.Errorf("/debug/status JSON undecodable: %w", err)
	}
	if doc.Schema != ops.StatusSchema {
		return fmt.Errorf("/debug/status schema %q, want %q", doc.Schema, ops.StatusSchema)
	}
	if doc.Go == "" || doc.PID <= 0 || doc.UptimeSeconds <= 0 {
		return fmt.Errorf("/debug/status missing process identity: %+v", doc)
	}
	if len(doc.Gauges) == 0 {
		return fmt.Errorf("/debug/status has no storage gauges")
	}
	if davURL != "" {
		if doc.Observations <= 0 || len(doc.HotPaths) == 0 {
			return fmt.Errorf("/debug/status analytics empty after driving %s", davURL)
		}
		if doc.HotPaths[0].Key != "/smoke/hot.dat" {
			return fmt.Errorf("/debug/status hottest = %q, want /smoke/hot.dat", doc.HotPaths[0].Key)
		}
		if len(doc.SLO) == 0 {
			return fmt.Errorf("/debug/status has no SLO section")
		}
	}
	fmt.Printf("opssmoke: metrics exposition OK (%d bytes); /debug/status OK "+
		"(schema %s, %d observations, %d hot paths, %d gauges)\n",
		len(exposition), doc.Schema, doc.Observations, len(doc.HotPaths), len(doc.Gauges))
	return nil
}

// runAblations measures the design-choice axes the paper discusses:
// DOM vs SAX parsing, persistent vs per-request connections.
func runAblations() error {
	t := bench.NewTable("Ablations: Table 1(c) bulk PROPFIND under design variants",
		"variant", "elapsed", "cpu")
	t.Note = "50 objects x 5 of 50 properties, depth=1; the paper predicts SAX removes most client-side cost"
	variants := []struct {
		label string
		opts  experiments.Table1Options
	}{
		{"DOM, reconnect per request (paper config)", experiments.Table1Options{}},
		{"DOM, persistent connections", experiments.Table1Options{Persistent: true}},
		{"SAX, reconnect per request", experiments.Table1Options{SAX: true}},
		{"SAX, persistent connections", experiments.Table1Options{SAX: true, Persistent: true}},
	}
	for _, v := range variants {
		opts := v.opts
		opts.Docs, opts.Props, opts.ValueBytes = 50, 50, 1024
		res, err := experiments.RunTable1(opts)
		if err != nil {
			return err
		}
		// Row 2 is the depth=1 bulk query (Table 1c).
		row := res.Rows[2]
		t.AddRow(v.label, bench.Seconds(row.Timing.Elapsed), bench.Seconds(row.Timing.CPU))
	}
	t.Fprint(os.Stdout)

	t2, err := experiments.RunSearchAblation()
	if err != nil {
		return err
	}
	t2.Fprint(os.Stdout)
	return nil
}
