package prof

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// quickSampler returns a sampler sized for tests: tiny CPU slice so a
// capture tick is fast.
func quickSampler(ring int) *Sampler {
	return NewSampler(SamplerConfig{
		Interval: time.Second,
		Ring:     ring,
		CPUSlice: 20 * time.Millisecond,
	})
}

// gunzipAll decompresses a gzipped pprof artifact; every profile the
// sampler stores must round-trip.
func gunzipAll(t *testing.T, data []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("gzip.NewReader: %v", err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	return out
}

func TestCaptureNowProducesAllKinds(t *testing.T) {
	s := quickSampler(4)
	arts := s.CaptureNow()
	byKind := map[string]Artifact{}
	for _, a := range arts {
		byKind[a.Kind] = a
	}
	for _, kind := range Kinds {
		a, ok := byKind[kind]
		if !ok {
			t.Errorf("kind %s missing from capture", kind)
			continue
		}
		if len(a.Data) == 0 {
			t.Errorf("kind %s: empty artifact", kind)
			continue
		}
		if raw := gunzipAll(t, a.Data); len(raw) == 0 {
			t.Errorf("kind %s: empty decompressed profile", kind)
		}
	}
	if a, ok := s.Latest(KindHeap); !ok {
		t.Error("Latest(heap) empty after capture")
	} else if a.Meta["heap_alloc_bytes"] == "" || a.Meta["alloc_bytes_delta"] == "" {
		t.Errorf("heap meta missing: %v", a.Meta)
	}
}

func TestRingEviction(t *testing.T) {
	s := quickSampler(2) // retains 2 ticks = 2*len(Kinds) artifacts
	for i := 0; i < 4; i++ {
		s.CaptureNow()
	}
	arts := s.Artifacts()
	if max := 2 * len(Kinds); len(arts) > max {
		t.Fatalf("ring holds %d artifacts, cap is %d", len(arts), max)
	}
	// Oldest retained sequence must be from the later ticks.
	if arts[0].Seq <= int64(len(Kinds)) {
		t.Errorf("oldest retained seq %d; first tick should be evicted", arts[0].Seq)
	}
	// Find resolves retained sequences and misses evicted ones.
	if _, ok := s.Find(arts[0].Seq); !ok {
		t.Error("Find missed a retained artifact")
	}
	if _, ok := s.Find(1); ok {
		t.Error("Find returned an evicted artifact")
	}
	st := s.Stats()
	if st.Captures[KindHeap] != 4 {
		t.Errorf("heap captures = %d, want 4 (eviction must not reset counters)", st.Captures[KindHeap])
	}
	if st.RingBytes <= 0 {
		t.Errorf("RingBytes = %d", st.RingBytes)
	}
}

func TestCPUContentionSkips(t *testing.T) {
	// Hold the CPU profiler the way a concurrent capture would; the
	// sampler must skip its CPU slice (counted as an error) but still
	// deliver the point-in-time kinds.
	cpuMu.Lock()
	s := quickSampler(2)
	arts := s.CaptureNow()
	cpuMu.Unlock()
	for _, a := range arts {
		if a.Kind == KindCPU {
			t.Fatal("CPU artifact captured while the profiler was held")
		}
	}
	if len(arts) != len(Kinds)-1 {
		t.Errorf("got %d artifacts, want %d", len(arts), len(Kinds)-1)
	}
	if s.Stats().Errors[KindCPU] != 1 {
		t.Errorf("cpu errors = %d, want 1", s.Stats().Errors[KindCPU])
	}
}

func TestSamplerStartStop(t *testing.T) {
	s := NewSampler(SamplerConfig{
		Interval: 50 * time.Millisecond,
		Ring:     2,
		CPUSlice: 5 * time.Millisecond,
	})
	s.Start()
	s.Start() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Captures[KindGoroutine] < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	s.Stop()
	s.Stop() // idempotent
	if got := s.Stats().Captures[KindGoroutine]; got < 2 {
		t.Fatalf("goroutine captures = %d, want >= 2", got)
	}
	if len(s.Artifacts()) == 0 {
		t.Fatal("ring empty after Stop")
	}
}

// TestSamplerConcurrent drives overlapping captures and readers for the
// -race pass.
func TestSamplerConcurrent(t *testing.T) {
	s := quickSampler(2)
	s.Start()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				s.CaptureNow()
				s.Artifacts()
				s.Latest(KindHeap)
				s.Stats()
			}
		}()
	}
	wg.Wait()
	s.Stop()
}

func TestSamplerRegister(t *testing.T) {
	s := quickSampler(2)
	s.CaptureNow()
	r := obs.NewRegistry()
	s.Register(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`dav_prof_captures_total{kind="heap"} 1`,
		"dav_prof_ring_artifacts",
		"dav_prof_ring_bytes",
		"dav_prof_overhead_ratio",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, sb.String())
		}
	}
	if err := obs.CheckExposition([]byte(sb.String())); err != nil {
		t.Errorf("CheckExposition: %v", err)
	}
}

func TestProfilesHandler(t *testing.T) {
	s := quickSampler(2)
	arts := s.CaptureNow()
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/profiles", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("index = %d, body %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/profiles?format=json", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"ring_artifacts"`) {
		t.Errorf("json index = %d, body %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/profiles?seq=1", nil))
	if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), arts[0].Data) {
		t.Errorf("download = %d, %d bytes (want %d)", rec.Code, rec.Body.Len(), len(arts[0].Data))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/profiles?seq=999", nil))
	if rec.Code != 404 {
		t.Errorf("missing seq = %d, want 404", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/profiles?seq=abc", nil))
	if rec.Code != 400 {
		t.Errorf("bad seq = %d, want 400", rec.Code)
	}
}
