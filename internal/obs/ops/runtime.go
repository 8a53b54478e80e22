package ops

import (
	"os"
	"runtime/metrics"

	"repro/internal/obs"
)

// Runtime is one point read of process health, taken when asked: the
// dav_runtime_* gauges read it at scrape time and /debug/status when it
// renders.
type Runtime struct {
	Goroutines     int     `json:"goroutines"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64  `json:"heap_sys_bytes"`
	HeapObjects    uint64  `json:"heap_objects"`
	GCCPUFraction  float64 `json:"gc_cpu_fraction"`
	GCRuns         uint64  `json:"gc_runs"`
	OpenFDs        int     `json:"open_fds"` // -1 when the platform offers no cheap count
}

// runtimeMetrics are the runtime/metrics samples a Runtime is built
// from, in the order readMetrics indexes them. The four heap classes sum
// to MemStats.HeapSys; the first is MemStats.HeapAlloc.
var runtimeMetrics = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/memory/classes/heap/free:bytes",
	"/memory/classes/heap/released:bytes",
	"/gc/heap/objects:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// ReadRuntime reads the runtime's metrics and the open-FD count now,
// without stopping the world.
func ReadRuntime() Runtime {
	rt := readMetrics()
	rt.OpenFDs = countOpenFDs()
	return rt
}

// readMetrics is ReadRuntime without the FD count.
func readMetrics() Runtime {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	u := func(i int) uint64 { return s[i].Value.Uint64() }
	rt := Runtime{
		Goroutines:     int(u(0)),
		HeapAllocBytes: u(1),
		HeapSysBytes:   u(1) + u(2) + u(3) + u(4),
		HeapObjects:    u(5),
		GCRuns:         u(6),
	}
	if total := s[8].Value.Float64(); total > 0 {
		rt.GCCPUFraction = s[7].Value.Float64() / total
	}
	return rt
}

// RegisterRuntime exposes the dav_runtime_* gauges, each read from the
// runtime at scrape time.
func RegisterRuntime(r *obs.Registry) {
	read := func(f func(Runtime) float64) func() float64 {
		return func() float64 { return f(readMetrics()) }
	}
	r.GaugeFunc("dav_runtime_goroutines", "Live goroutines.", nil,
		read(func(rt Runtime) float64 { return float64(rt.Goroutines) }))
	r.GaugeFunc("dav_runtime_heap_alloc_bytes", "Bytes of allocated heap objects.", nil,
		read(func(rt Runtime) float64 { return float64(rt.HeapAllocBytes) }))
	r.GaugeFunc("dav_runtime_heap_sys_bytes", "Heap bytes obtained from the OS.", nil,
		read(func(rt Runtime) float64 { return float64(rt.HeapSysBytes) }))
	r.GaugeFunc("dav_runtime_gc_cpu_fraction",
		"The runtime's estimate of the fraction of CPU time spent in the GC since process start.", nil,
		read(func(rt Runtime) float64 { return rt.GCCPUFraction }))
	r.GaugeFunc("dav_runtime_open_fds",
		"Open file descriptors (-1 when the platform offers no cheap count).", nil,
		func() float64 { return float64(countOpenFDs()) })
}

// countOpenFDs counts entries in /proc/self/fd; -1 where that (or an
// equivalent) is unavailable.
func countOpenFDs() int {
	f, err := os.Open("/proc/self/fd")
	if err != nil {
		return -1
	}
	defer f.Close()
	names, err := f.Readdirnames(-1)
	if err != nil {
		return -1
	}
	// The open directory handle itself is one of the entries.
	return len(names) - 1
}
