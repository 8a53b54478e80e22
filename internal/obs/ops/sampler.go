package ops

import (
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// Sample is one point-in-time snapshot of process health. The sampler
// keeps a ring of them so /debug/status can render a trend, and the
// latest one backs the dav_runtime_* gauges.
type Sample struct {
	Time                time.Time `json:"time"`
	Goroutines          int       `json:"goroutines"`
	HeapAllocBytes      uint64    `json:"heap_alloc_bytes"`
	HeapSysBytes        uint64    `json:"heap_sys_bytes"`
	HeapObjects         uint64    `json:"heap_objects"`
	GCPauseTotalSeconds float64   `json:"gc_pause_total_seconds"`
	GCCPUFraction       float64   `json:"gc_cpu_fraction"`
	GCRuns              uint32    `json:"gc_runs"`
	OpenFDs             int       `json:"open_fds"` // -1 when the platform offers no cheap count
	SchedLatencySeconds float64   `json:"sched_latency_seconds"`
}

// SamplerConfig sizes a Sampler.
type SamplerConfig struct {
	// Interval between samples (default 10s).
	Interval time.Duration
	// Ring is how many samples the trend buffer retains (default 120 —
	// twenty minutes at the default interval).
	Ring int
}

// Sampler periodically snapshots runtime health into a ring buffer and
// exposes the latest snapshot as gauges. The cost per tick is one
// runtime.ReadMemStats (a brief stop-the-world on large heaps — keep
// the interval in seconds, not milliseconds, on production daemons),
// one /proc read, and a ~1ms scheduler-latency probe that blocks only
// the sampler's own goroutine.
type Sampler struct {
	interval time.Duration
	probe    time.Duration // scheduler-latency probe sleep

	mu    sync.Mutex
	ring  []Sample
	next  int
	count int64 // samples taken, cumulative

	stop chan struct{}
	done chan struct{}
}

// schedProbe is the nominal sleep whose overshoot proxies scheduler
// latency: a loaded scheduler (or a CPU-starved cgroup) wakes the
// sampler late, and the overshoot is what every other goroutine's
// timers are experiencing too.
const schedProbe = time.Millisecond

// NewSampler builds a sampler; call Start to begin ticking.
func NewSampler(cfg SamplerConfig) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Second
	}
	if cfg.Ring <= 0 {
		cfg.Ring = 120
	}
	return &Sampler{
		interval: cfg.Interval,
		probe:    schedProbe,
		ring:     make([]Sample, 0, cfg.Ring),
	}
}

// Start takes an immediate sample and begins the periodic loop.
// Starting an already-started sampler is a no-op.
func (s *Sampler) Start() {
	s.mu.Lock()
	if s.stop != nil {
		s.mu.Unlock()
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	stop, done := s.stop, s.done
	s.mu.Unlock()

	s.SampleNow()
	go func() {
		defer close(done)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.SampleNow()
			case <-stop:
				return
			}
		}
	}()
}

// Stop halts the loop and waits for it to exit. The ring and gauges
// keep their last values. Safe to call on a never-started sampler.
func (s *Sampler) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// SampleNow takes one sample synchronously, appends it to the ring, and
// returns it. The periodic loop calls this; tests and benchmarks can
// too.
func (s *Sampler) SampleNow() Sample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)

	// Scheduler-latency probe: how late does a 1ms timer fire?
	start := time.Now()
	time.Sleep(s.probe)
	over := time.Since(start) - s.probe
	if over < 0 {
		over = 0
	}

	sm := Sample{
		Time:                time.Now(),
		Goroutines:          runtime.NumGoroutine(),
		HeapAllocBytes:      m.HeapAlloc,
		HeapSysBytes:        m.HeapSys,
		HeapObjects:         m.HeapObjects,
		GCPauseTotalSeconds: float64(m.PauseTotalNs) / 1e9,
		GCCPUFraction:       m.GCCPUFraction,
		GCRuns:              m.NumGC,
		OpenFDs:             countOpenFDs(),
		SchedLatencySeconds: over.Seconds(),
	}

	s.mu.Lock()
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, sm)
	} else {
		s.ring[s.next] = sm
		s.next = (s.next + 1) % cap(s.ring)
	}
	s.count++
	s.mu.Unlock()
	return sm
}

// Latest returns the most recent sample, or ok=false before the first
// one.
func (s *Sampler) Latest() (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ring) == 0 {
		return Sample{}, false
	}
	i := s.next - 1
	if i < 0 {
		i = len(s.ring) - 1
	}
	if len(s.ring) < cap(s.ring) {
		i = len(s.ring) - 1
	}
	return s.ring[i], true
}

// Trend returns the retained samples oldest-first.
func (s *Sampler) Trend() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, 0, len(s.ring))
	if len(s.ring) < cap(s.ring) {
		out = append(out, s.ring...)
		return out
	}
	out = append(out, s.ring[s.next:]...)
	out = append(out, s.ring[:s.next]...)
	return out
}

// Samples reports how many samples have been taken since construction
// (the ring retains only the most recent SamplerConfig.Ring of them).
func (s *Sampler) Samples() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Register exposes the latest sample as dav_runtime_* gauges, read at
// scrape time. Gauges report zero until the first sample.
func (s *Sampler) Register(r *obs.Registry) {
	latest := func(f func(Sample) float64) func() float64 {
		return func() float64 {
			sm, ok := s.Latest()
			if !ok {
				return 0
			}
			return f(sm)
		}
	}
	r.GaugeFunc("dav_runtime_goroutines",
		"Live goroutines at the last runtime sample.", nil,
		latest(func(sm Sample) float64 { return float64(sm.Goroutines) }))
	r.GaugeFunc("dav_runtime_heap_alloc_bytes",
		"Allocated heap bytes at the last runtime sample.", nil,
		latest(func(sm Sample) float64 { return float64(sm.HeapAllocBytes) }))
	r.GaugeFunc("dav_runtime_heap_sys_bytes",
		"Heap bytes obtained from the OS at the last runtime sample.", nil,
		latest(func(sm Sample) float64 { return float64(sm.HeapSysBytes) }))
	r.GaugeFunc("dav_runtime_gc_pause_seconds_total",
		"Cumulative GC stop-the-world pause time.", nil,
		latest(func(sm Sample) float64 { return sm.GCPauseTotalSeconds }))
	r.GaugeFunc("dav_runtime_gc_cpu_fraction",
		"Fraction of available CPU consumed by the GC since process start.", nil,
		latest(func(sm Sample) float64 { return sm.GCCPUFraction }))
	r.GaugeFunc("dav_runtime_open_fds",
		"Open file descriptors (-1 when the platform offers no cheap count).", nil,
		latest(func(sm Sample) float64 { return float64(sm.OpenFDs) }))
	r.GaugeFunc("dav_runtime_sched_latency_seconds",
		"Overshoot of a 1ms timer at the last sample — a scheduler-pressure proxy.", nil,
		latest(func(sm Sample) float64 { return sm.SchedLatencySeconds }))
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
