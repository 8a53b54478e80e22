package ops

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// populatedStatus builds a console with every section live, backed by a
// small synthetic workload.
func populatedStatus(t *testing.T) *Status {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Gauge("dav_pathlock_held", "", nil).Set(2)
	reg.Gauge("dav_dbm_cache_open", "", nil).Set(7)
	reg.Gauge("unrelated_gauge", "", nil).Set(1)

	objs, err := ParseObjectives("GET:50ms:0.99")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(NewSLO(SLOConfig{Objectives: objs}))
	for i := 0; i < 5; i++ {
		tr.ObserveRequest("GET", "/calc/h2o.out", "", 200, time.Millisecond)
	}
	tr.ObserveRequest("PROPFIND", "/calc", "1", 207, 2*time.Millisecond)

	return NewStatus(StatusConfig{
		Service:  "davd-test",
		Registry: reg,
		Tracker:  tr,
		Ready:    func() any { return map[string]any{"status": "ready"} },
		Links:    []Link{{Name: "traces", Href: "/debug/traces"}},
	})
}

// goldenKeys pins the JSON document's key structure. Values are
// dynamic; the shape is the contract scrapers depend on.
var goldenKeys = map[string][]string{
	"": {"build", "degraded", "go", "gauges", "hot_ops", "hot_paths", "links", "observations", "pid", "ready", "runtime", "schema", "service", "slo", "start_time", "uptime_seconds"},
	"runtime": {"gc_cpu_fraction", "gc_runs", "goroutines", "heap_alloc_bytes", "heap_objects",
		"heap_sys_bytes", "open_fds"},
	"slo[0]":            {"bad_total", "degraded", "good_total", "name", "target", "threshold_ms", "windows"},
	"slo[0].windows[0]": {"bad", "bad_fraction", "burn_rate", "good", "window"},
	"hot_paths[0]":      {"count", "err_bound", "key"},
	"links[0]":          {"href", "name"},
}

func sortedKeys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestStatusJSONGolden pins the /debug/status?format=json shape: the
// schema tag and the key sets of the document and its sections.
func TestStatusJSONGolden(t *testing.T) {
	st := populatedStatus(t)
	data, err := json.Marshal(st.Doc())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["schema"] != StatusSchema {
		t.Fatalf("schema = %v, want %s", doc["schema"], StatusSchema)
	}

	section := func(path string) map[string]any {
		cur := any(doc)
		if path == "" {
			return doc
		}
		for _, part := range strings.Split(path, ".") {
			name, idx := part, -1
			if i := strings.IndexByte(part, '['); i >= 0 {
				name = part[:i]
				idx = int(part[i+1] - '0')
			}
			m, ok := cur.(map[string]any)
			if !ok {
				t.Fatalf("section %s: %T is not an object", path, cur)
			}
			cur = m[name]
			if idx >= 0 {
				arr, ok := cur.([]any)
				if !ok || len(arr) <= idx {
					t.Fatalf("section %s: %v has no index %d", path, name, idx)
				}
				cur = arr[idx]
			}
		}
		m, ok := cur.(map[string]any)
		if !ok {
			t.Fatalf("section %s: %T is not an object", path, cur)
		}
		return m
	}

	for path, want := range goldenKeys {
		got := sortedKeys(section(path))
		wantSorted := append([]string(nil), want...)
		sort.Strings(wantSorted)
		if !reflect.DeepEqual(got, wantSorted) {
			t.Errorf("section %q keys = %v, want %v", path, got, wantSorted)
		}
	}

	// Gauge filtering: storage-stack families in, unrelated ones out.
	gauges := section("gauges")
	if _, ok := gauges["dav_pathlock_held"]; !ok {
		t.Error("gauges missing dav_pathlock_held")
	}
	if _, ok := gauges["unrelated_gauge"]; ok {
		t.Error("gauges leaked unrelated_gauge past the prefix filter")
	}

	// The hottest path leads the table.
	hot := section("hot_paths[0]")
	if hot["key"] != "/calc/h2o.out" {
		t.Errorf("hottest path = %v, want /calc/h2o.out", hot["key"])
	}
}

// TestStatusServeHTTP: format negotiation and a well-formed HTML page.
func TestStatusServeHTTP(t *testing.T) {
	st := populatedStatus(t)

	rec := httptest.NewRecorder()
	st.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/status?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("json Content-Type = %q", ct)
	}
	var doc StatusDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("json response unparseable: %v", err)
	}
	if doc.Schema != StatusSchema || doc.Service != "davd-test" {
		t.Fatalf("doc = %+v", doc)
	}

	rec = httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/debug/status", nil)
	req.Header.Set("Accept", "application/json")
	st.ServeHTTP(rec, req)
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("Accept negotiation: %v", err)
	}

	rec = httptest.NewRecorder()
	st.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/status", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("html Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"davd-test", "/calc/h2o.out", "hot paths", "slo",
		"dav_pathlock_held", "/debug/traces", "GET depth=-",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("html missing %q", want)
		}
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[uint64]string{
		512:     "512 B",
		2048:    "2.0 KB",
		3 << 20: "3.0 MB",
		5 << 30: "5.0 GB",
	}
	for n, want := range cases {
		if got := humanBytes(n); got != want {
			t.Errorf("humanBytes(%d) = %q, want %q", n, got, want)
		}
	}
}
