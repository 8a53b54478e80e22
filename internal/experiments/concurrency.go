package experiments

import (
	"context"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/davproto"
	"repro/internal/store"
)

// This file is the PR 4 concurrency benchmark: a parallel
// PROPFIND/PUT/PROPPATCH mix run against two storage architectures —
// the PR 3 baseline (one store-wide RWMutex, a database open per
// property touch, no batched reads) and the re-architected stack
// (hierarchical path locks, the shared DBM handle cache, batched
// PROPFIND) — at increasing client counts. The output (BENCH_PR4.json)
// reports throughput per architecture per level of parallelism, the
// speedup of the new stack, and the lock/cache counters behind it.

// BenchPR4Schema identifies the BENCH_PR4.json format.
const BenchPR4Schema = "bench_pr4/v1"

// serializedStore reimposes the PR 3 concurrency architecture on a
// store: every operation holds one store-wide RWMutex (writes
// exclusively), and the batched reads are taken apart again, so
// PROPFIND degrades to the one-lookup-per-member pattern.
type serializedStore struct {
	store.Store // the wrapped store behind the RWMutex interceptor
}

// serialize wraps s in the PR 3 concurrency architecture.
func serialize(s store.Store) store.Store {
	var mu sync.RWMutex
	return &serializedStore{store.Intercept(s, func(ctx context.Context, op store.Op, next func(context.Context) error) error {
		switch op.Name {
		case store.OpStat, store.OpList, store.OpGet, store.OpPropGet, store.OpPropNames, store.OpPropAll:
			mu.RLock()
			defer mu.RUnlock()
		default:
			mu.Lock()
			defer mu.Unlock()
		}
		return next(ctx)
	})}
}

// StatWithProps is the PR 3 read pattern, kept on purpose: Stat, then
// PropAll, each its own trip through the store-wide lock.
func (ss *serializedStore) StatWithProps(ctx context.Context, p string) (store.ResourceInfo, map[xml.Name][]byte, error) {
	ri, err := ss.Stat(ctx, p)
	if err != nil {
		return store.ResourceInfo{}, nil, err
	}
	props, err := ss.PropAll(ctx, p)
	return ri, props, err
}

// ListWithProps is the PR 3 N+1 pattern: List, then one PropAll per
// member.
func (ss *serializedStore) ListWithProps(ctx context.Context, p string) ([]store.MemberProps, error) {
	members, err := ss.List(ctx, p)
	if err != nil {
		return nil, err
	}
	out := make([]store.MemberProps, 0, len(members))
	for _, m := range members {
		props, err := ss.PropAll(ctx, m.Path)
		if err != nil {
			return nil, err
		}
		out = append(out, store.MemberProps{Info: m, Props: props})
	}
	return out, nil
}

// BenchPR4Cell is one (architecture, parallelism) measurement.
type BenchPR4Cell struct {
	Workers   int     `json:"workers"`
	Ops       int     `json:"ops"` // total operations across all workers
	WallMs    float64 `json:"wall_ms"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// BenchPR4Arch is one architecture's throughput curve.
type BenchPR4Arch struct {
	Name  string         `json:"name"` // "serialized" or "concurrent"
	Cells []BenchPR4Cell `json:"cells"`
}

// BenchPR4Concurrency summarizes the concurrent run's lock and cache
// counters at the highest level of parallelism.
type BenchPR4Concurrency struct {
	LockAcquisitions int64   `json:"lock_acquisitions"`
	LockContended    int64   `json:"lock_contended"`
	LockWaitMs       float64 `json:"lock_wait_ms"`
	CacheHits        int64   `json:"cache_hits"`
	CacheMisses      int64   `json:"cache_misses"`
	CacheHitRate     float64 `json:"cache_hit_rate"`
}

// BenchPR4Result is the full concurrency benchmark outcome.
type BenchPR4Result struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go"`
	CPUs      int    `json:"cpus"`
	Mix       string `json:"mix"`
	// Archs holds the serialized baseline first, then the concurrent
	// stack.
	Archs []BenchPR4Arch `json:"archs"`
	// SpeedupParallel is concurrent/serialized throughput at the
	// highest worker count.
	SpeedupParallel float64             `json:"speedup_parallel"`
	Concurrency     BenchPR4Concurrency `json:"concurrency"`
}

// BenchPR4Options sizes the benchmark.
type BenchPR4Options struct {
	// OpsPerWorker is the measured iterations each client runs
	// (default 30; every iteration issues several DAV requests).
	OpsPerWorker int
	// Workers are the parallelism levels (default 1, 4, 8).
	Workers []int
	// SharedMembers sizes the shared collection every client lists
	// (default 12 documents, each carrying dead properties).
	SharedMembers int
}

const benchPR4Mix = "per iteration: PUT 4KB + PROPPATCH(2 props) + PROPFIND depth:1 (own tree); every 4th: PROPFIND depth:1 (shared tree)"

// RunBenchPR4 measures parallel-mix throughput on the serialized PR 3
// baseline and the concurrent stack.
func RunBenchPR4(opts BenchPR4Options) (BenchPR4Result, error) {
	if opts.OpsPerWorker <= 0 {
		opts.OpsPerWorker = 30
	}
	if len(opts.Workers) == 0 {
		opts.Workers = []int{1, 4, 8}
	}
	if opts.SharedMembers <= 0 {
		opts.SharedMembers = 12
	}

	res := BenchPR4Result{
		Schema:    BenchPR4Schema,
		GoVersion: runtime.Version(),
		CPUs:      runtime.NumCPU(),
		Mix:       benchPR4Mix,
	}

	for _, arch := range []string{"serialized", "concurrent"} {
		a := BenchPR4Arch{Name: arch}
		for _, workers := range opts.Workers {
			cell, stats, err := runBenchPR4Cell(arch, workers, opts)
			if err != nil {
				return res, fmt.Errorf("bench-pr4 %s/%d: %w", arch, workers, err)
			}
			a.Cells = append(a.Cells, cell)
			if arch == "concurrent" && workers == opts.Workers[len(opts.Workers)-1] {
				res.Concurrency = stats
			}
		}
		res.Archs = append(res.Archs, a)
	}

	base := res.Archs[0].Cells[len(res.Archs[0].Cells)-1].OpsPerSec
	conc := res.Archs[1].Cells[len(res.Archs[1].Cells)-1].OpsPerSec
	if base > 0 {
		res.SpeedupParallel = conc / base
	}
	return res, nil
}

// runBenchPR4Cell boots a fresh environment in the given architecture
// and drives the mixed workload with the given number of parallel
// clients.
func runBenchPR4Cell(arch string, workers int, opts BenchPR4Options) (BenchPR4Cell, BenchPR4Concurrency, error) {
	serialized := arch == "serialized"
	envOpts := DAVEnvOptions{Persistent: true, Serialized: serialized}
	if serialized {
		envOpts.HandleCacheSize = -1 // PR 3 opened a database per operation
	}
	env, err := StartDAVEnv(envOpts)
	if err != nil {
		return BenchPR4Cell{}, BenchPR4Concurrency{}, err
	}
	defer env.Close()

	// Seed: a shared collection every client lists, plus one private
	// subtree per client.
	if err := env.Client.Mkcol("/bench"); err != nil {
		return BenchPR4Cell{}, BenchPR4Concurrency{}, err
	}
	if err := env.Client.Mkcol("/bench/shared"); err != nil {
		return BenchPR4Cell{}, BenchPR4Concurrency{}, err
	}
	prop := davproto.NewTextProperty("ecce:", "state", "complete")
	for i := 0; i < opts.SharedMembers; i++ {
		p := fmt.Sprintf("/bench/shared/m%02d.dat", i)
		if _, err := env.Client.PutBytes(p, []byte("shared member"), "text/plain"); err != nil {
			return BenchPR4Cell{}, BenchPR4Concurrency{}, err
		}
		if err := env.Client.SetProps(p, prop); err != nil {
			return BenchPR4Cell{}, BenchPR4Concurrency{}, err
		}
	}
	for w := 0; w < workers; w++ {
		if err := env.Client.Mkcol(fmt.Sprintf("/bench/w%d", w)); err != nil {
			return BenchPR4Cell{}, BenchPR4Concurrency{}, err
		}
	}

	body := make([]byte, 4<<10)
	for i := range body {
		body[i] = 'd'
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := env.NewClient(true, 0)
			if err != nil {
				errs[w] = err
				return
			}
			defer c.Close()
			home := fmt.Sprintf("/bench/w%d", w)
			for i := 0; i < opts.OpsPerWorker; i++ {
				doc := fmt.Sprintf("%s/doc%d.dat", home, i%4)
				if _, err := c.PutBytes(doc, body, "application/octet-stream"); err != nil {
					errs[w] = fmt.Errorf("put %s: %w", doc, err)
					return
				}
				if err := c.SetProps(doc,
					davproto.NewTextProperty("ecce:", "state", fmt.Sprintf("run%d", i)),
					davproto.NewTextProperty("ecce:", "theory", "B3LYP"),
				); err != nil {
					errs[w] = fmt.Errorf("proppatch %s: %w", doc, err)
					return
				}
				if _, err := c.PropFindAll(home, davproto.Depth1); err != nil {
					errs[w] = fmt.Errorf("propfind %s: %w", home, err)
					return
				}
				if i%4 == 0 {
					if _, err := c.PropFindAll("/bench/shared", davproto.Depth1); err != nil {
						errs[w] = fmt.Errorf("propfind shared: %w", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return BenchPR4Cell{}, BenchPR4Concurrency{}, err
		}
	}

	totalOps := workers * opts.OpsPerWorker
	cell := BenchPR4Cell{
		Workers:   workers,
		Ops:       totalOps,
		WallMs:    ms(wall),
		OpsPerSec: float64(totalOps) / wall.Seconds(),
	}

	var stats BenchPR4Concurrency
	if fs, ok := env.Store.(*store.FSStore); ok {
		ls, cs := fs.LockStats(), fs.CacheStats()
		stats = BenchPR4Concurrency{
			LockAcquisitions: ls.Acquisitions,
			LockContended:    ls.Contended,
			LockWaitMs:       ms(ls.WaitTotal),
			CacheHits:        cs.Hits,
			CacheMisses:      cs.Misses,
		}
		if total := cs.Hits + cs.Misses; total > 0 {
			stats.CacheHitRate = float64(cs.Hits) / float64(total)
		}
	}
	return cell, stats, nil
}

// ValidateBenchPR4 checks a serialized BENCH_PR4.json against the
// schema the CI bench smoke asserts: the schema tag, both
// architectures with matching parallelism levels, positive throughput
// everywhere, cache activity on the concurrent run, and a parallel-mix
// speedup over the serialized baseline.
func ValidateBenchPR4(data []byte) error {
	var r BenchPR4Result
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("bench-pr4: unparseable: %w", err)
	}
	if r.Schema != BenchPR4Schema {
		return fmt.Errorf("bench-pr4: schema %q, want %q", r.Schema, BenchPR4Schema)
	}
	if len(r.Archs) != 2 || r.Archs[0].Name != "serialized" || r.Archs[1].Name != "concurrent" {
		return fmt.Errorf("bench-pr4: want archs [serialized concurrent], got %d", len(r.Archs))
	}
	if len(r.Archs[0].Cells) == 0 || len(r.Archs[0].Cells) != len(r.Archs[1].Cells) {
		return fmt.Errorf("bench-pr4: mismatched cell counts: %d vs %d",
			len(r.Archs[0].Cells), len(r.Archs[1].Cells))
	}
	for _, a := range r.Archs {
		for _, c := range a.Cells {
			if c.Workers <= 0 || c.Ops <= 0 || c.OpsPerSec <= 0 {
				return fmt.Errorf("bench-pr4: %s cell %+v not measured", a.Name, c)
			}
		}
	}
	if r.Concurrency.CacheHits+r.Concurrency.CacheMisses == 0 {
		return fmt.Errorf("bench-pr4: concurrent run recorded no handle-cache activity")
	}
	if r.Concurrency.LockAcquisitions == 0 {
		return fmt.Errorf("bench-pr4: concurrent run recorded no path-lock acquisitions")
	}
	if r.SpeedupParallel <= 1 {
		return fmt.Errorf("bench-pr4: no parallel speedup over the serialized baseline (%.2fx)",
			r.SpeedupParallel)
	}
	return nil
}
