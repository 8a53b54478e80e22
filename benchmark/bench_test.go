package main

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/davserver"
	"repro/internal/dbm"
	"repro/internal/store"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.01, 1}, {1, 10}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// and statistics.median print for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{83.6, 88.7, 85.1, 86.0, 84.2}, 83.9, 85.1, 87.35},
	} {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) || !near(median(c.in), c.med) {
			t.Errorf("%v: q1 %v median %v q3 %v, want %v %v %v", c.in, q1, median(c.in), q3, c.q1, c.med, c.q3)
		}
	}
	if got, want := spread([]float64{1, 2, 3}), 1.0; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSplitCPUs(t *testing.T) {
	for _, c := range []struct {
		all            cpuSet
		server, client string
		pinned         bool
	}{
		{cpuSet{3}, "3", "3", false},
		{cpuSet{0, 1}, "0", "1", true},
		{cpuSet{2, 5, 7}, "2,5", "7", true},
		{cpuSet{0, 1, 2, 3}, "0,1", "2,3", true},
	} {
		s, cl, p := splitCPUs(c.all)
		if s.String() != c.server || cl.String() != c.client || p != c.pinned {
			t.Errorf("splitCPUs(%v) = %v | %v pinned=%v", c.all, s, cl, p)
		}
	}
	if m := (cpuSet{0, 65}).mask(); m[0] != 1 || m[1] != 2 {
		t.Errorf("mask = %v", m[:2])
	}
}

func TestProcParsers(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	stat := "4242 (dav d) (x)) S 1 4242 4242 0 -1 4194560 1500 0 3 0 731 269 0 0 20 0 9 0 88213 1287 300 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0"
	u, s, err := parseProcStat(stat)
	if err != nil || u != 7310 || s != 2690 {
		t.Errorf("parseProcStat = %v, %v, %v; want 7310 ms, 2690 ms", u, s, err)
	}
	if _, _, err := parseProcStat("no parens here"); err == nil {
		t.Error("parseProcStat accepted a line without a command field")
	}
	io := parseKeyed("rchar: 123456\nwchar: 654321\nsyscr: 77\nsyscw: 88\nread_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n")
	if io["syscr"] != 77 || io["syscw"] != 88 || io["wchar"] != 654321 {
		t.Errorf("parseKeyed(io) = %v", io)
	}
	status := parseKeyed("Name:\tdavd\nState:\tS (sleeping)\nVmPeak:\t 1240000 kB\nVmHWM:\t   35012 kB\nThreads:\t9\nvoluntary_ctxt_switches:\t1201\nnonvoluntary_ctxt_switches:\t17\n")
	if status["VmHWM"] != 35012 || status["voluntary_ctxt_switches"] != 1201 {
		t.Errorf("parseKeyed(status) = %v", status)
	}
	// And on the real thing.
	if ps, err := sampleProc(os.Getpid(), true); err != nil || ps.PeakRSSKB == 0 || ps.VolCtx == 0 {
		t.Errorf("sampleProc(self) = %+v, %v", ps, err)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int64) int64 { return v * 1e6 }
	spans := []span{
		{ID: 1, Parent: 0, Op: 7, Name: "op", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Op: 7, Name: "davclient.propfind", Start: ms(10), End: ms(90)},
		{ID: 3, Parent: 2, Op: 7, Name: "http.propfind", Start: ms(20), End: ms(70)},
		{ID: 4, Parent: 3, Op: 7, Name: "davserver.propfind", Start: ms(25), End: ms(60)},
		{ID: 5, Parent: 4, Op: 7, Name: "store.stat", Start: ms(30), End: ms(40)},
		{ID: 6, Parent: 4, Op: 7, Name: "store.list_with_props", Start: ms(45), End: ms(50)},
	}
	lt := selfTimes(spans)
	want := map[string]float64{"harness": 20, "davclient": 30, "http": 15, "davserver": 20, "store": 15}
	if !reflect.DeepEqual(lt.SelfMs, want) {
		t.Errorf("self = %v, want %v", lt.SelfMs, want)
	}
	if lt.Ops != 1 || lt.RootMs != 100 || lt.SelfSumMs != 100 || lt.Calls["store"] != 2 || lt.BusyMs["store"] != 15 {
		t.Errorf("totals = %+v", lt)
	}
	// A child that outlasts its parent (client and server overlapping)
	// floors the parent at zero instead of going negative.
	spans[3].End = ms(80)
	if lt = selfTimes(spans); lt.SelfMs["http"] != 0 || lt.SelfSumMs <= lt.RootMs {
		t.Errorf("overlap: http self %v, sum %v vs root %v", lt.SelfMs["http"], lt.SelfSumMs, lt.RootMs)
	}
}

// requestLog records what a server was sent: method, path, Depth and a
// checksum of the body.
type requestLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *requestLog) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := crc32.NewIEEE()
		r.Body = io.NopCloser(io.TeeReader(r.Body, h))
		next.ServeHTTP(w, r)
		io.Copy(h, r.Body)
		l.mu.Lock()
		l.lines = append(l.lines, fmt.Sprintf("%s %s depth=%q dst=%q body=%08x",
			r.Method, r.URL.Path, r.Header.Get("Depth"), r.Header.Get("Destination"), h.Sum32()))
		l.mu.Unlock()
	})
}

// requestsOf populates sp's workload on a fresh server and runs a few
// operations per client, returning everything the server was sent.
func requestsOf(t *testing.T, sp spec, seed int64) []string {
	t.Helper()
	fs, err := store.NewFSStoreWith(t.TempDir(), dbm.GDBM, store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	var log requestLog
	srv := httptest.NewServer(log.wrap(davserver.NewHandler(fs, nil)))
	w := sp.make(seed, true)
	var clients []*client
	for i := 0; i < sp.clients; i++ {
		c, err := newClient(srv.URL, i, seed, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	err = w.populate(clients[0])
	var ph phase
	if err == nil {
		ph = runPhase(w, clients, 6, 0)
	}
	// A handler logs after it has answered, so wait for the server to
	// finish every request before reading the log.
	for _, c := range clients {
		c.close()
	}
	srv.Close()
	if err != nil || ph.failed > 0 {
		t.Fatalf("%s: %v %v", sp.name, err, ph.errs)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	// Destination headers carry the server's port.
	for i, line := range log.lines {
		log.lines[i] = strings.ReplaceAll(line, srv.URL, "")
	}
	if sp.clients > 1 {
		// Two clients interleave differently each time; what each sent
		// must still be the same.
		sort.Strings(log.lines)
	}
	return log.lines
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, sp := range specs {
		a, b := requestsOf(t, sp, 11), requestsOf(t, sp, 11)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs with seed 11 sent different requests", sp.name)
		}
		if sp.name == "calc_browse" {
			continue // its dataset is the paper's molecule, not seeded; only the choices are
		}
		if c := requestsOf(t, sp, 12); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 11 and 12 sent identical requests", sp.name)
		}
	}
}

// TestShortSmoke drives every workload through the in-process topology
// with the -short sizes: it is what keeps the harness compiling against
// internal/... and the wrappers recording what the metrics need.
func TestShortSmoke(t *testing.T) {
	traced := []string{"harness.self_ms_per_op", "davclient.self_ms_per_op", "http.self_ms_per_op",
		"davserver.self_ms_per_op", "store.busy_ms_per_op", "store.calls_per_op", "davserver.response_kb_per_op",
		"pathlock.acquisitions_per_op", "inproc.op_ms", "inproc.allocs_per_op", "inproc.alloc_kb_per_op",
		"trace.op_ms", "trace.overhead_ratio", "dbm.open_us", "dbm.get_us", "dbm.put_us", "dbm.foreach_us_per_db",
		"store.stat_with_props_us", "store.list_with_props_ms", "store.put_4k_us",
		"journal.begin_commit_us", "journal.begin_commit_disk_us"}
	xml := []string{"xmldom.parse_ms_per_body", "xmldom.sax_ms_per_body", "xmldom.marshal_ms_per_body",
		"davproto.parse_multistatus_ms_per_body", "davproto.decode_property_us", "dbm.cache_hit_ratio"}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			cfg := config{storeDir: t.TempDir(), buildDir: t.TempDir(), seed: 5, short: true}
			v := map[string]float64{}
			env, w, ph, err := runTraced(cfg, sp, v)
			if err != nil {
				t.Fatal(err)
			}
			defer env.close()
			if ph.failed != 0 {
				t.Fatalf("%d operations failed: %v", ph.failed, ph.errs)
			}
			if err := runIsolated(env, w, cfg.buildDir, true, v); err != nil {
				t.Fatal(err)
			}
			want := traced
			if sp.name != "doc_transfer" {
				want = append(want[:len(want):len(want)], xml...)
			}
			for _, name := range want {
				if v[name] <= 0 {
					t.Errorf("%s = %v, want a measurement", name, v[name])
				}
			}
			// A full run is within 3 %; the race detector slows the client's
			// checksumming and so widens doc_transfer's genuine overlap.
			if r := v["trace.self_sum_ratio"]; r < 0.95 || r > 1.15 {
				t.Errorf("self times sum to %.3f of traced operation latency", r)
			}
			for _, name := range []string{"tools.self_ms_per_op", "core.self_ms_per_op"} {
				if ran := v[name] > 0; ran != (sp.name == "calc_browse") {
					t.Errorf("%s = %v on %s", name, v[name], sp.name)
				}
			}
			if sp.clients == 1 && v["pathlock.wait_ms_per_op"] != 0 {
				t.Errorf("one client waited %v ms per op on path locks", v["pathlock.wait_ms_per_op"])
			}
			if sp.name == "propfind_sweep" && v["dbm.cache_hit_ratio"] < 0.99 {
				t.Errorf("propfind_sweep handle cache hit ratio %v, want >= 0.99", v["dbm.cache_hit_ratio"])
			}

			// The traced server must have taken the store's fast paths.
			seen := map[string]bool{}
			for _, s := range env.rec.spans {
				seen[s.Name] = true
			}
			fast := map[string][]string{
				"propfind_sweep": {"store.list_with_props"},
				"calc_browse":    {"store.stat_with_props", "store.list_with_props"},
				"author_mix":     {"store.copy_tree", "store.list_with_props"},
			}
			for _, name := range fast[sp.name] {
				if !seen[name] {
					t.Errorf("no %s span: the wrapper hid a fast path from davserver", name)
				}
			}
			path := filepath.Join(cfg.buildDir, "spans.jsonl")
			if err := env.rec.writeJSONL(path); err != nil {
				t.Fatal(err)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Errorf("span log: %v", err)
			}
		})
	}
}

// BENCHMARK.json repeats the metric and workload tables for the driver.
func TestBenchmarkJSONInStep(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n%v\n%v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go")
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("%d workloads, want %d", len(file.Workloads), len(specs))
	}
	for i, w := range file.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d is %q, want %q with the same why", i, w.Name, specs[i].name)
		}
	}
}
