// Package prof is the continuous-profiling and incident-capture
// subsystem. The PR 7 ops layer can say *that* the server degraded
// (SLO burn, runtime gauges); this package captures *what the server
// was doing* at that moment, automatically: a background sampler keeps
// a bounded ring of recent pprof snapshots (CPU, heap, goroutine,
// mutex, block), and an incident capturer assembles a single
// downloadable tar.gz bundle — profiles, trace tail, metrics snapshot,
// status document, log tail — when a trigger fires (SLO degraded
// transition, slow-request trip, recovered panic, or a manual POST).
// Everything is stdlib-only, in-memory, and bounded.
package prof

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/obs"
)

// Profile kinds the sampler captures each tick. CPU is a short timed
// slice; the rest are point-in-time runtime/pprof lookups. All
// artifacts are gzipped protobuf (the pprof wire format).
const (
	KindCPU       = "cpu"
	KindHeap      = "heap"
	KindGoroutine = "goroutine"
	KindMutex     = "mutex"
	KindBlock     = "block"
)

// Kinds lists every profile kind a tick can produce, in capture order.
var Kinds = []string{KindCPU, KindHeap, KindGoroutine, KindMutex, KindBlock}

// cpuMu serializes CPU profiling process-wide: the runtime allows only
// one CPU profile at a time, so the periodic sampler and the incident
// capturer must take turns (and both must tolerate an operator running
// /debug/pprof/profile by hand, which surfaces as a capture error).
var cpuMu sync.Mutex

// errCPUBusy reports that another capture holds the CPU profiler.
var errCPUBusy = fmt.Errorf("prof: cpu profiler busy")

// captureCPU records a CPU profile of roughly d and returns the gzipped
// protobuf. With wait=false it gives up immediately when another
// in-process capture holds the profiler (the sampler's policy: skip a
// tick rather than queue); with wait=true it queues (the incident
// capturer's policy: evidence beats punctuality). cancel, when non-nil,
// cuts the slice short.
func captureCPU(d time.Duration, wait bool, cancel <-chan struct{}) ([]byte, error) {
	if wait {
		cpuMu.Lock()
	} else if !cpuMu.TryLock() {
		return nil, errCPUBusy
	}
	defer cpuMu.Unlock()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	t := time.NewTimer(d)
	select {
	case <-t.C:
	case <-cancel:
		t.Stop()
	}
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

// captureLookup snapshots one runtime/pprof named profile as gzipped
// protobuf (WriteTo debug=0).
func captureLookup(kind string) ([]byte, error) {
	p := pprof.Lookup(kind)
	if p == nil {
		return nil, fmt.Errorf("prof: unknown profile %q", kind)
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Artifact is one captured profile. Data is the gzipped pprof protobuf;
// the exported metadata (everything but Data) is what the ring index
// and /debug/profiles list.
type Artifact struct {
	Kind      string            `json:"kind"`
	Seq       int64             `json:"seq"`
	Time      time.Time         `json:"time"`
	Bytes     int               `json:"bytes"`
	CaptureMS float64           `json:"capture_ms"`
	Meta      map[string]string `json:"meta,omitempty"`
	Data      []byte            `json:"-"`
}

// SamplerConfig sizes a Sampler. Zero values select the documented
// defaults.
type SamplerConfig struct {
	// Interval between capture ticks (default 60s).
	Interval time.Duration
	// Ring is how many ticks of artifacts the ring retains (default 8;
	// the ring holds up to Ring*len(Kinds) artifacts).
	Ring int
	// CPUSlice is the timed CPU-profile length per tick (default 1s,
	// capped at Interval/2; negative disables CPU capture).
	CPUSlice time.Duration
}

// The runtime's mutex and block profiles sample nothing until a rate is
// set; Start sets these and Stop turns both off again.
const (
	mutexFraction = 5       // runtime.SetMutexProfileFraction
	blockRate     = 100_000 // runtime.SetBlockProfileRate: events >= ~100µs
)

// Sampler periodically captures compressed pprof snapshots into a
// bounded in-memory ring, so the moment an anomaly is noticed the
// recent past is already profiled. Overhead is measured, not guessed:
// cumulative capture work is tracked against wall time and exposed as
// dav_prof_overhead_ratio (the CPU-slice portion costs sampling
// interrupts, not sampler CPU, and is reported separately as duty
// cycle). All methods are safe for concurrent use.
type Sampler struct {
	cfg SamplerConfig

	mu        sync.Mutex
	ring      []Artifact // oldest first
	seq       int64
	captures  map[string]int64
	errors    map[string]int64
	busy      time.Duration // cumulative non-slice capture work
	started   time.Time     // overhead denominator epoch
	prevAlloc uint64        // TotalAlloc at the previous heap capture

	stop chan struct{}
	done chan struct{}
}

// NewSampler builds a sampler; call Start for the periodic loop, or
// drive CaptureNow directly (tests, benchmarks).
func NewSampler(cfg SamplerConfig) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = 60 * time.Second
	}
	if cfg.Ring <= 0 {
		cfg.Ring = 8
	}
	if cfg.CPUSlice == 0 {
		cfg.CPUSlice = time.Second
	}
	if cfg.CPUSlice > cfg.Interval/2 {
		cfg.CPUSlice = cfg.Interval / 2
	}
	return &Sampler{
		cfg:      cfg,
		captures: map[string]int64{},
		errors:   map[string]int64{},
		started:  time.Now(),
	}
}

// Start enables the mutex/block runtime fractions, takes an immediate
// capture, and begins the periodic loop. Starting an already-started
// sampler is a no-op.
func (s *Sampler) Start() {
	s.mu.Lock()
	if s.stop != nil {
		s.mu.Unlock()
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	stop, done := s.stop, s.done
	s.started = time.Now()
	s.mu.Unlock()

	runtime.SetMutexProfileFraction(mutexFraction)
	runtime.SetBlockProfileRate(blockRate)
	go func() {
		defer close(done)
		s.capture(stop)
		t := time.NewTicker(s.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.capture(stop)
			case <-stop:
				return
			}
		}
	}()
}

// Stop halts the loop, waits for any in-flight capture, and restores
// the mutex/block fractions to off. The ring keeps its contents. Safe
// on a never-started sampler.
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
	runtime.SetMutexProfileFraction(0)
	runtime.SetBlockProfileRate(0)
}

// CaptureNow takes one full capture tick synchronously and returns the
// artifacts appended to the ring (the CPU slice is skipped when another
// capture holds the profiler). The periodic loop calls this; tests and
// benchmarks can too.
func (s *Sampler) CaptureNow() []Artifact {
	return s.capture(nil)
}

// capture runs one tick: the timed CPU slice first (skipped rather
// than queued when contended), then the point-in-time lookups.
func (s *Sampler) capture(cancel <-chan struct{}) []Artifact {
	var out []Artifact
	if s.cfg.CPUSlice > 0 {
		start := time.Now()
		data, err := captureCPU(s.cfg.CPUSlice, false, cancel)
		if err != nil {
			s.noteError(KindCPU)
		} else {
			out = append(out, s.finish(KindCPU, data, time.Since(start), nil))
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.mu.Lock()
	prev := s.prevAlloc
	s.prevAlloc = m.TotalAlloc
	s.mu.Unlock()
	heapMeta := map[string]string{
		"heap_alloc_bytes":  fmt.Sprint(m.HeapAlloc),
		"alloc_bytes_delta": fmt.Sprint(m.TotalAlloc - prev),
	}
	for _, kind := range []string{KindHeap, KindGoroutine, KindMutex, KindBlock} {
		start := time.Now()
		data, err := captureLookup(kind)
		if err != nil {
			s.noteError(kind)
			continue
		}
		var meta map[string]string
		if kind == KindHeap {
			meta = heapMeta
		}
		out = append(out, s.finish(kind, data, time.Since(start), meta))
	}
	return out
}

// finish records one successful capture into the ring and counters.
func (s *Sampler) finish(kind string, data []byte, d time.Duration, meta map[string]string) Artifact {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	a := Artifact{
		Kind:      kind,
		Seq:       s.seq,
		Time:      time.Now(),
		Bytes:     len(data),
		CaptureMS: float64(d) / float64(time.Millisecond),
		Meta:      meta,
		Data:      data,
	}
	s.ring = append(s.ring, a)
	if max := s.cfg.Ring * len(Kinds); len(s.ring) > max {
		s.ring = append([]Artifact(nil), s.ring[len(s.ring)-max:]...)
	}
	s.captures[kind]++
	// The CPU slice is mostly waiting for the profiler's sampling
	// interrupts, not sampler work; count only the non-slice remainder
	// as busy time so the overhead ratio reflects actual cost.
	busy := d
	if kind == KindCPU && busy > s.cfg.CPUSlice {
		busy -= s.cfg.CPUSlice
	} else if kind == KindCPU {
		busy = 0
	}
	s.busy += busy
	return a
}

// noteError counts one failed capture.
func (s *Sampler) noteError(kind string) {
	s.mu.Lock()
	s.errors[kind]++
	s.mu.Unlock()
}

// Artifacts returns the retained artifacts, oldest first.
func (s *Sampler) Artifacts() []Artifact {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Artifact(nil), s.ring...)
}

// Latest returns the freshest retained artifact of the given kind.
func (s *Sampler) Latest(kind string) (Artifact, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.ring) - 1; i >= 0; i-- {
		if s.ring[i].Kind == kind {
			return s.ring[i], true
		}
	}
	return Artifact{}, false
}

// Find returns the retained artifact with the given sequence number.
func (s *Sampler) Find(seq int64) (Artifact, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.ring) - 1; i >= 0; i-- {
		if s.ring[i].Seq == seq {
			return s.ring[i], true
		}
	}
	return Artifact{}, false
}

// Stats is a point-in-time summary of the sampler's counters.
type Stats struct {
	Captures      map[string]int64 `json:"captures"`
	Errors        map[string]int64 `json:"errors,omitempty"`
	RingArtifacts int              `json:"ring_artifacts"`
	RingBytes     int              `json:"ring_bytes"`
	// OverheadRatio is cumulative capture work over wall time since
	// Start — the measured cost of continuous profiling, excluding the
	// CPU slice's sampling-interrupt duty cycle (see CPUDutyCycle).
	OverheadRatio float64 `json:"overhead_ratio"`
	// CPUDutyCycle is CPUSlice/Interval: the fraction of wall time the
	// CPU profiler's ~100 Hz sampling interrupts are enabled.
	CPUDutyCycle float64 `json:"cpu_duty_cycle"`
}

// Stats returns the sampler's counters.
func (s *Sampler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Captures:      map[string]int64{},
		Errors:        map[string]int64{},
		RingArtifacts: len(s.ring),
	}
	for k, v := range s.captures {
		st.Captures[k] = v
	}
	for k, v := range s.errors {
		st.Errors[k] = v
	}
	for _, a := range s.ring {
		st.RingBytes += a.Bytes
	}
	if wall := time.Since(s.started); wall > 0 {
		st.OverheadRatio = float64(s.busy) / float64(wall)
	}
	if s.cfg.CPUSlice > 0 {
		st.CPUDutyCycle = float64(s.cfg.CPUSlice) / float64(s.cfg.Interval)
	}
	return st
}

// Register exposes the sampler as dav_prof_* metrics, read at scrape
// time: per-kind capture/error counts, the ring occupancy, and the
// measured overhead ratio.
func (s *Sampler) Register(r *obs.Registry) {
	for _, kind := range Kinds {
		kind := kind
		l := obs.Labels{"kind": kind}
		r.GaugeFunc("dav_prof_captures_total",
			"Profile captures completed, by kind (cumulative).", l,
			func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.captures[kind]) })
		r.GaugeFunc("dav_prof_capture_errors_total",
			"Profile captures that failed or were skipped under contention, by kind (cumulative).", l,
			func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.errors[kind]) })
	}
	r.GaugeFunc("dav_prof_ring_artifacts",
		"Profiles currently retained in the in-memory ring.", nil,
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(len(s.ring)) })
	r.GaugeFunc("dav_prof_ring_bytes",
		"Total compressed bytes retained in the profile ring.", nil,
		func() float64 { return float64(s.Stats().RingBytes) })
	r.GaugeFunc("dav_prof_overhead_ratio",
		"Measured continuous-profiling overhead: cumulative capture work over wall time.", nil,
		func() float64 { return s.Stats().OverheadRatio })
}
