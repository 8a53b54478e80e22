package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/davserver"
	"repro/internal/dbm"
	"repro/internal/store"
)

// inproc is client and server in one process: davserver.NewHandler over
// an FSStore, reached over a real loopback socket, with the span
// wrappers of trace.go between every pair of layers. It exists only to
// split time by layer; davd's middleware chain is not in it, and the
// end-to-end numbers never come from it.
type inproc struct {
	dir string
	fs  *store.FSStore
	srv *httptest.Server
	rec *recorder
}

func startInproc(parent string, rec *recorder) (*inproc, error) {
	dir, err := os.MkdirTemp(parent, "inproc-")
	if err != nil {
		return nil, err
	}
	fs, err := store.NewFSStoreWith(filepath.Join(dir, "root"), dbm.GDBM, store.FSOptions{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	h := davserver.NewHandler(&spanStore{fs, rec}, nil)
	return &inproc{dir: dir, fs: fs, rec: rec,
		srv: httptest.NewServer(spanHandler{http.Handler(h), rec})}, nil
}

func (e *inproc) close() {
	e.srv.Close()
	e.fs.Close()
	os.RemoveAll(e.dir)
}

// Fixed operation counts for the traced run, per workload (not per
// client): counts, unlike durations, give every commit the same work.
const (
	tracedWarmOps = 30
	tracedOps     = 300
)

// runTraced populates an in-process site, runs the workload once with
// the recorder off and once with it on, and fills in the per-layer
// metrics that come from spans and counters. It returns the site still
// open so the isolated calls can use its store and captured inputs.
func runTraced(cfg config, sp spec, v map[string]float64) (*inproc, workload, phase, error) {
	warm, ops := tracedWarmOps, tracedOps
	if cfg.short {
		warm, ops = 4, 20
	}
	rec := newRecorder()
	env, err := startInproc(cfg.storeDir, rec)
	if err != nil {
		return nil, nil, phase{}, err
	}
	w := sp.make(cfg.seed, cfg.short)
	var clients []*client
	for i := 0; i < sp.clients; i++ {
		c, err := newClient(env.srv.URL, i, cfg.seed, true, rec)
		if err != nil {
			env.close()
			return nil, nil, phase{}, err
		}
		defer c.close()
		clients = append(clients, c)
	}
	fail := func(what string, ph phase) (*inproc, workload, phase, error) {
		env.close()
		return nil, nil, ph, fmt.Errorf("in-process %s of %s: %d of %d operations failed: %s",
			what, sp.name, ph.failed, ph.attempted, strings.Join(ph.errs, "; "))
	}
	if err := w.populate(clients[0]); err != nil {
		env.close()
		return nil, nil, phase{}, fmt.Errorf("in-process populate of %s: %w", sp.name, err)
	}
	if ph := runPhase(w, clients, warm/sp.clients, 0); ph.failed > 0 {
		return fail("warm-up", ph)
	}

	// Wrappers off: the baseline for tracing overhead, and the whole
	// process's allocations per operation.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := runPhase(w, clients, ops/sp.clients, 0)
	runtime.ReadMemStats(&m1)
	if plain.failed > 0 {
		return fail("untraced run", plain)
	}
	n := float64(plain.attempted)
	v["inproc.op_ms"] = mean(plain.latMs)
	v["inproc.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / n
	v["inproc.alloc_kb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n

	// Wrappers on.
	locks0, cache0 := env.fs.LockStats(), env.fs.CacheStats()
	var kb0 float64
	for _, c := range clients {
		kb0 += c.m.respKB
	}
	rec.on.Store(true)
	traced := runPhase(w, clients, ops/sp.clients, 0)
	rec.on.Store(false)
	if traced.failed > 0 {
		return fail("traced run", traced)
	}
	locks1, cache1 := env.fs.LockStats(), env.fs.CacheStats()
	var kb1 float64
	for _, c := range clients {
		kb1 += c.m.respKB
	}
	n = float64(traced.attempted)

	lt := selfTimes(rec.spans)
	for _, layer := range []string{"harness", "tools", "core", "davclient", "http", "davserver"} {
		v[layer+".self_ms_per_op"] = lt.SelfMs[layer] / n
	}
	v["store.busy_ms_per_op"] = lt.BusyMs["store"] / n
	v["store.calls_per_op"] = float64(lt.Calls["store"]) / n
	v["davserver.response_kb_per_op"] = (kb1 - kb0) / n
	v["trace.op_ms"] = mean(traced.latMs)
	v["trace.overhead_ratio"] = mean(traced.latMs) / mean(plain.latMs)
	v["trace.self_sum_ratio"] = lt.SelfSumMs / lt.RootMs

	acq := float64(locks1.Acquisitions - locks0.Acquisitions)
	v["pathlock.acquisitions_per_op"] = acq / n
	if acq > 0 {
		v["pathlock.contended_ratio"] = float64(locks1.Contended-locks0.Contended) / acq
	}
	v["pathlock.wait_ms_per_op"] = float64(locks1.WaitTotal-locks0.WaitTotal) / 1e6 / n
	hits, misses := float64(cache1.Hits-cache0.Hits), float64(cache1.Misses-cache0.Misses)
	if hits+misses > 0 {
		v["dbm.cache_hit_ratio"] = hits / (hits + misses)
	}
	v["dbm.cache_opens_per_op"] = misses / n
	v["dbm.cache_evictions_per_op"] = float64(cache1.Evictions-cache0.Evictions) / n

	traced.attempted += plain.attempted
	return env, w, traced, nil
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
