package ops

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRuntimeGauges: every dav_runtime_* family reads a live, non-zero
// value at scrape time, and the heap figures are MemStats' own: a
// ReadRuntime beside a ReadMemStats, with the world quiet, agrees with
// it exactly.
func TestRuntimeGauges(t *testing.T) {
	r := obs.NewRegistry()
	RegisterRuntime(r)
	var m runtime.MemStats
	var rt Runtime
	// The GC makes the CPU estimate non-zero and empties the heap of
	// garbage. ReadRuntime's own allocation can still grow the heap past
	// the ReadMemStats beside it; such a pair is taken again.
	for i := 0; i < 10; i++ {
		runtime.GC()
		runtime.ReadMemStats(&m)
		if rt = ReadRuntime(); rt.HeapSysBytes == m.HeapSys {
			break
		}
	}
	if rt.HeapObjects != m.HeapObjects || rt.GCRuns != uint64(m.NumGC) {
		t.Errorf("heap objects %d, GC runs %d; MemStats says %d, %d", rt.HeapObjects, rt.GCRuns, m.HeapObjects, m.NumGC)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckExposition([]byte(b.String())); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	scraped := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			scraped[name], _ = strconv.ParseFloat(v, 64)
		}
	}

	for _, row := range []struct {
		family string
		read   float64 // ReadRuntime's value
		want   float64 // MemStats' value, where it has an exact one
	}{
		{"dav_runtime_goroutines", float64(rt.Goroutines), 0},
		{"dav_runtime_heap_alloc_bytes", float64(rt.HeapAllocBytes), float64(m.HeapAlloc)},
		{"dav_runtime_heap_sys_bytes", float64(rt.HeapSysBytes), float64(m.HeapSys)},
		{"dav_runtime_gc_cpu_fraction", rt.GCCPUFraction, 0},
		{"dav_runtime_open_fds", float64(rt.OpenFDs), 0},
	} {
		if row.read <= 0 || scraped[row.family] <= 0 {
			t.Errorf("%s: read %v, scraped %v; want both > 0", row.family, row.read, scraped[row.family])
		}
		if row.want != 0 && row.read != row.want {
			t.Errorf("%s: read %v, MemStats says %v", row.family, row.read, row.want)
		}
	}
	if len(scraped) != 5 {
		t.Errorf("%d dav_runtime_* series, want 5: %v", len(scraped), scraped)
	}
}
