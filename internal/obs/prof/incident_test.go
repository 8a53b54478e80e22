package prof

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// testCapturer builds a capturer with every evidence source stubbed and
// a tiny CPU slice. clock may be nil for the real clock.
func testCapturer(t *testing.T, cfg CaptureConfig) *Capturer {
	t.Helper()
	if cfg.CPUSlice == 0 {
		cfg.CPUSlice = 10 * time.Millisecond
	}
	if cfg.WriteTraces == nil {
		cfg.WriteTraces = func(w io.Writer) error {
			_, err := io.WriteString(w, `{"trace_id":"abc","name":"dav.server GET"}`+"\n")
			return err
		}
	}
	if cfg.WriteMetrics == nil {
		reg := obs.NewRegistry()
		reg.Counter("dav_requests_total", "requests", nil).Inc()
		cfg.WriteMetrics = reg.WritePrometheus
	}
	if cfg.StatusJSON == nil {
		cfg.StatusJSON = func() ([]byte, error) {
			return json.Marshal(map[string]any{"schema": "dav_status/v2", "service": "test"})
		}
	}
	if cfg.LogTail == nil {
		cfg.LogTail = func() []byte { return []byte("level=INFO msg=hello\n") }
	}
	return NewCapturer(cfg)
}

// untar expands a bundle into name -> content.
func untar(t *testing.T, data []byte) map[string][]byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("bundle is not gzip: %v", err)
	}
	tr := tar.NewReader(zr)
	out := map[string][]byte{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("tar: %v", err)
		}
		body, err := io.ReadAll(tr)
		if err != nil {
			t.Fatalf("tar read %s: %v", hdr.Name, err)
		}
		out[hdr.Name] = body
	}
	return out
}

// gunzipAll decompresses a gzipped pprof profile; every profile a
// bundle holds must round-trip.
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

// TestTriggerMatrix drives each trigger source once, each past the 30 s
// rate limit, and asserts exactly one bundle per reason, then a repeat
// of each reason, again past the rate limit, suppressed by its 5 min
// dedup window.
func TestTriggerMatrix(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	c := testCapturer(t, CaptureConfig{Clock: func() time.Time { return now }})
	reasons := []string{TriggerDegraded, TriggerSlow, TriggerPanic, TriggerManual}
	for _, reason := range reasons {
		now = now.Add(31 * time.Second)
		b, ok := c.Trigger(reason, "matrix "+reason)
		if !ok || b == nil {
			t.Fatalf("trigger %s: suppressed, want a bundle", reason)
		}
		if b.Reason != reason {
			t.Errorf("bundle reason = %q, want %q", b.Reason, reason)
		}
		if c.Built(reason) != 1 {
			t.Errorf("built[%s] = %d, want 1", reason, c.Built(reason))
		}
	}
	if c.Len() != len(reasons) {
		t.Fatalf("retained = %d, want %d", c.Len(), len(reasons))
	}
	// Second trip of each reason inside the window: suppressed.
	for _, reason := range reasons {
		now = now.Add(31 * time.Second)
		if _, ok := c.Trigger(reason, "repeat"); ok {
			t.Errorf("trigger %s: repeat inside dedup window built a bundle", reason)
		}
		if c.Built(reason) != 1 || c.Suppressed(reason) != 1 {
			t.Errorf("%s: built=%d suppressed=%d, want 1/1",
				reason, c.Built(reason), c.Suppressed(reason))
		}
	}
	// Past the window the same reason fires again.
	now = now.Add(6 * time.Minute)
	if _, ok := c.Trigger(TriggerDegraded, "new window"); !ok {
		t.Error("trigger past the dedup window was suppressed")
	}
}

// TestRateLimit verifies the 30 s minimum interval suppresses across
// reasons.
func TestRateLimit(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	c := testCapturer(t, CaptureConfig{Clock: func() time.Time { return now }})
	if _, ok := c.Trigger(TriggerSlow, ""); !ok {
		t.Fatal("first trigger suppressed")
	}
	now = now.Add(10 * time.Second)
	if _, ok := c.Trigger(TriggerPanic, ""); ok {
		t.Fatal("trigger inside the minimum interval built a bundle")
	}
	now = now.Add(20 * time.Second)
	if _, ok := c.Trigger(TriggerPanic, ""); !ok {
		t.Fatal("trigger 30 s after the last bundle suppressed")
	}
}

// TestBundleContents unpacks a bundle and asserts every entry is
// present and parseable: manifest, gzipped profiles, JSONL traces,
// CheckExposition-clean metrics, JSON status, non-empty log tail.
func TestBundleContents(t *testing.T) {
	c := testCapturer(t, CaptureConfig{})
	b, ok := c.Trigger(TriggerDegraded, "burn past threshold")
	if !ok {
		t.Fatal("trigger suppressed")
	}
	files := untar(t, b.Data)

	man, ok := files["incident.json"]
	if !ok {
		t.Fatal("incident.json missing")
	}
	var m manifest
	if err := json.Unmarshal(man, &m); err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if m.Schema != BundleSchema || m.Reason != TriggerDegraded || m.ID != b.ID {
		t.Errorf("manifest = %+v", m)
	}
	if len(m.Errors) != 0 {
		t.Errorf("manifest reports source errors: %v", m.Errors)
	}

	for _, kind := range Kinds {
		name := "profiles/" + kind + ".pb.gz"
		data, ok := files[name]
		if !ok {
			t.Errorf("%s missing", name)
			continue
		}
		if raw := gunzipAll(t, data); len(raw) == 0 {
			t.Errorf("%s: empty profile", name)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(string(files["traces.jsonl"])), "\n") {
		var doc map[string]any
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Errorf("traces.jsonl line %q: %v", line, err)
		}
	}
	if err := obs.CheckExposition(files["metrics.prom"]); err != nil {
		t.Errorf("metrics.prom: %v", err)
	}
	var status map[string]any
	if err := json.Unmarshal(files["status.json"], &status); err != nil {
		t.Errorf("status.json: %v", err)
	}
	if len(files["logs.txt"]) == 0 {
		t.Error("logs.txt empty")
	}
	if len(b.Entries) != len(files) {
		t.Errorf("manifest lists %d entries, tar holds %d", len(b.Entries), len(files))
	}
}

// TestBundleWithoutSampler verifies the profiles need nothing but the
// capturer: with every other evidence source unset, a bundle still
// holds every profile kind, and nothing else.
func TestBundleWithoutSampler(t *testing.T) {
	c := NewCapturer(CaptureConfig{CPUSlice: 10 * time.Millisecond})
	b, ok := c.Trigger(TriggerManual, "")
	if !ok {
		t.Fatal("trigger suppressed")
	}
	files := untar(t, b.Data)
	for _, kind := range Kinds {
		if _, ok := files["profiles/"+kind+".pb.gz"]; !ok {
			t.Errorf("profiles/%s.pb.gz missing", kind)
		}
	}
	if len(files) != 1+len(Kinds) {
		t.Errorf("bundle holds %d entries, want the manifest and %d profiles: %v", len(files), len(Kinds), b.Entries)
	}
}

// TestBundleRingEviction verifies the ring retains the newest 8 bundles
// while the built counters keep counting. Each trigger steps the clock
// past the 5 min dedup window.
func TestBundleRingEviction(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	c := testCapturer(t, CaptureConfig{Clock: func() time.Time { return now }})
	var ids []string
	for i := 0; i < 10; i++ {
		now = now.Add(5*time.Minute + time.Second)
		b, ok := c.Trigger(TriggerManual, fmt.Sprint(i))
		if !ok {
			t.Fatalf("trigger %d suppressed", i)
		}
		ids = append(ids, b.ID)
	}
	if c.Len() != 8 {
		t.Fatalf("retained = %d, want 8", c.Len())
	}
	if c.Find(ids[0]) != nil || c.Find(ids[1]) != nil {
		t.Error("evicted bundle still findable")
	}
	if c.Find(ids[2]) == nil || c.Find(ids[9]) == nil {
		t.Error("retained bundle missing")
	}
	if c.Built(TriggerManual) != 10 {
		t.Errorf("built = %d, want 10", c.Built(TriggerManual))
	}
	bundles := c.Bundles()
	if len(bundles) != 8 || bundles[0].ID != ids[9] {
		t.Errorf("Bundles() not newest-first: %v", bundles)
	}
}

// TestWriteBundles verifies the graceful-drain flush writes every
// retained bundle as a valid tar.gz.
func TestWriteBundles(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	c := testCapturer(t, CaptureConfig{Clock: func() time.Time { return now }})
	for i := 0; i < 2; i++ {
		now = now.Add(5*time.Minute + time.Second)
		if _, ok := c.Trigger(TriggerManual, fmt.Sprint(i)); !ok {
			t.Fatalf("trigger %d suppressed", i)
		}
	}
	dir := filepath.Join(t.TempDir(), "incidents")
	n, err := c.WriteBundles(dir)
	if err != nil || n != 2 {
		t.Fatalf("WriteBundles = %d, %v; want 2, nil", n, err)
	}
	for _, b := range c.Bundles() {
		data, err := os.ReadFile(filepath.Join(dir, b.ID+".tar.gz"))
		if err != nil {
			t.Fatalf("read %s: %v", b.ID, err)
		}
		if files := untar(t, data); len(files) != len(b.Entries) {
			t.Errorf("%s: %d entries on disk, want %d", b.ID, len(files), len(b.Entries))
		}
	}
	// Empty capturer writes nothing and creates nothing.
	empty := testCapturer(t, CaptureConfig{})
	ghost := filepath.Join(t.TempDir(), "ghost")
	if n, err := empty.WriteBundles(ghost); n != 0 || err != nil {
		t.Errorf("empty WriteBundles = %d, %v", n, err)
	}
	if _, err := os.Stat(ghost); !os.IsNotExist(err) {
		t.Error("empty flush created the directory")
	}
}

// TestIncidentHandlers exercises /debug/incidents and the manual
// trigger endpoint.
func TestIncidentHandlers(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	c := testCapturer(t, CaptureConfig{Clock: func() time.Time { return now }})

	trig := c.TriggerHandler()
	rec := httptest.NewRecorder()
	trig.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/incident", nil))
	if rec.Code != 405 {
		t.Fatalf("GET trigger = %d, want 405", rec.Code)
	}

	rec = httptest.NewRecorder()
	trig.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/incident?detail=ops+page", nil))
	if rec.Code != 202 {
		t.Fatalf("POST trigger = %d, want 202; body %s", rec.Code, rec.Body.String())
	}
	var b Bundle
	if err := json.Unmarshal(rec.Body.Bytes(), &b); err != nil || b.ID == "" {
		t.Fatalf("trigger response: %v (%s)", err, rec.Body.String())
	}
	if b.Detail != "ops page" {
		t.Errorf("detail = %q", b.Detail)
	}

	// Inside the minimum interval: 429.
	rec = httptest.NewRecorder()
	trig.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/incident", nil))
	if rec.Code != 429 {
		t.Fatalf("rate-limited POST = %d, want 429", rec.Code)
	}

	h := c.Handler()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/incidents", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), b.ID) {
		t.Errorf("index = %d, body %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/incidents?format=json", nil))
	var listed []Bundle
	if err := json.Unmarshal(rec.Body.Bytes(), &listed); err != nil || len(listed) != 1 {
		t.Errorf("json index: %v (%s)", err, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/incidents?id="+b.ID, nil))
	if rec.Code != 200 {
		t.Fatalf("download = %d", rec.Code)
	}
	if files := untar(t, rec.Body.Bytes()); len(files) == 0 {
		t.Error("downloaded bundle empty")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/incidents?id=nope", nil))
	if rec.Code != 404 {
		t.Errorf("missing id = %d, want 404", rec.Code)
	}
}

// TestIncidentRegister checks the dav_incident_* exposition.
func TestIncidentRegister(t *testing.T) {
	c := testCapturer(t, CaptureConfig{})
	if _, ok := c.Trigger(TriggerDegraded, ""); !ok {
		t.Fatal("trigger suppressed")
	}
	c.Trigger(TriggerDegraded, "") // suppressed by dedup
	r := obs.NewRegistry()
	c.Register(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`dav_incident_bundles_total{trigger="degraded"} 1`,
		`dav_incident_suppressed_total{trigger="degraded"} 1`,
		`dav_incident_retained 1`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, sb.String())
		}
	}
	if err := obs.CheckExposition([]byte(sb.String())); err != nil {
		t.Errorf("CheckExposition: %v", err)
	}
}
