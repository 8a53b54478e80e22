package ops

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSamplerRing: the ring retains the most recent samples
// oldest-first and Latest tracks the newest.
func TestSamplerRing(t *testing.T) {
	s := NewSampler(SamplerConfig{Interval: time.Hour, Ring: 3})
	if _, ok := s.Latest(); ok {
		t.Fatal("Latest before any sample")
	}
	var last Sample
	for i := 0; i < 5; i++ {
		last = s.SampleNow()
	}
	if got := s.Samples(); got != 5 {
		t.Fatalf("Samples = %d, want 5", got)
	}
	trend := s.Trend()
	if len(trend) != 3 {
		t.Fatalf("Trend len = %d, want ring size 3", len(trend))
	}
	for i := 1; i < len(trend); i++ {
		if trend[i].Time.Before(trend[i-1].Time) {
			t.Fatalf("trend not oldest-first: %v then %v", trend[i-1].Time, trend[i].Time)
		}
	}
	latest, ok := s.Latest()
	if !ok || !latest.Time.Equal(last.Time) {
		t.Fatalf("Latest = %v ok=%v, want the final sample %v", latest.Time, ok, last.Time)
	}
	if latest.Goroutines <= 0 || latest.HeapAllocBytes == 0 {
		t.Errorf("implausible sample: %+v", latest)
	}
}

// TestSamplerStartStop: the loop produces samples and Stop halts it.
func TestSamplerStartStop(t *testing.T) {
	s := NewSampler(SamplerConfig{Interval: 5 * time.Millisecond, Ring: 64})
	s.Start()
	s.Start() // double-start is a no-op
	deadline := time.Now().Add(2 * time.Second)
	for s.Samples() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	s.Stop()
	if got := s.Samples(); got < 3 {
		t.Fatalf("only %d samples after start", got)
	}
	n := s.Samples()
	time.Sleep(30 * time.Millisecond)
	if got := s.Samples(); got != n {
		t.Fatalf("sampler still ticking after Stop: %d -> %d", n, got)
	}
	s.Stop() // double-stop is a no-op
}

// TestSamplerGauges: registered dav_runtime_* gauges expose the latest
// sample's values.
func TestSamplerGauges(t *testing.T) {
	s := NewSampler(SamplerConfig{Interval: time.Hour, Ring: 4})
	r := obs.NewRegistry()
	s.Register(r)
	s.SampleNow()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"dav_runtime_goroutines", "dav_runtime_heap_alloc_bytes",
		"dav_runtime_heap_sys_bytes", "dav_runtime_gc_cpu_fraction",
		"dav_runtime_gc_pause_seconds_total", "dav_runtime_open_fds",
		"dav_runtime_sched_latency_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if err := obs.CheckExposition([]byte(out)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	if strings.Contains(out, "dav_runtime_goroutines 0\n") {
		t.Error("goroutine gauge still zero after a sample")
	}
}
