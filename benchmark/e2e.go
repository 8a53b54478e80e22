package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/dbm"
	"repro/internal/store"
	"repro/internal/store/fsck"
)

// config is what one invocation fixed before any workload ran.
type config struct {
	davdBin  string
	storeDir string // parent of every store root and davd log
	buildDir string // on the checkout's own filesystem
	server   cpuSet
	client   cpuSet
	all      cpuSet
	pinned   bool
	seed     int64
	timed    time.Duration
	short    bool
	trace    bool
}

// Every run sets up this many times and reports the median, so one
// slow exec or page-cache miss does not become the set-up time. The
// last set-up is the one the timed phase then runs on.
const setupRounds = 3

// phase is the outcome of running a workload's clients for a while.
type phase struct {
	latMs     []float64 // verified operations only
	endMs     []float64 // when each of those finished, since the phase began
	attempted int
	failed    int
	elapsed   time.Duration
	errs      []string // the first few failures, for the log
}

// runPhase drives every client in its own goroutine, closed loop: each
// sends its next operation when the previous one has been verified.
// With ops > 0 each client performs exactly that many; otherwise all
// run until d has passed.
func runPhase(w workload, cs []*client, ops int, d time.Duration) phase {
	var mu sync.Mutex
	var ph phase
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var lat, ends []float64
			var errs []string
			attempted := 0
			for ; len(errs) < 100; attempted++ {
				if ops > 0 && attempted >= ops || ops == 0 && time.Since(start) >= d {
					break
				}
				end := c.tk.beginOp(int64(c.idx)<<32 | int64(c.n))
				t0 := time.Now()
				err := w.op(c, c.n)
				dt := time.Since(t0)
				end()
				c.n++
				if err != nil {
					errs = append(errs, err.Error())
					continue
				}
				lat = append(lat, float64(dt)/1e6)
				ends = append(ends, float64(time.Since(start))/1e6)
			}
			mu.Lock()
			ph.latMs = append(ph.latMs, lat...)
			ph.endMs = append(ph.endMs, ends...)
			ph.attempted += attempted
			ph.failed += len(errs)
			if room := 3 - len(ph.errs); room > 0 && len(errs) > 0 {
				ph.errs = append(ph.errs, errs[:min(room, len(errs))]...)
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph
}

// site is one davd with its dataset populated, its clients connected
// and warm.
type site struct {
	d         *davd
	dir       string
	w         workload
	clients   []*client
	setupS    float64   // exec to end of warm-up, less the store-size walk
	began     time.Time // of that interval, for the speed probes
	ended     time.Time
	userBytes int64
	diskBytes int64
}

// setUp starts davd on a fresh store, builds the dataset, connects the
// clients and warms them. The reported time runs from exec to the end
// of warm-up, less the walk that measures the store's size.
func setUp(cfg config, sp spec) (*site, error) {
	dir, err := os.MkdirTemp(cfg.storeDir, sp.name+"-")
	if err != nil {
		return nil, err
	}
	s := &site{dir: dir, w: sp.make(cfg.seed, cfg.short)}
	ok := false
	defer func() {
		if !ok {
			s.tearDown()
		}
	}()

	t0 := time.Now()
	if s.d, err = startDavd(cfg.davdBin, dir, cfg.server, cfg.client, cfg.pinned); err != nil {
		return nil, err
	}
	// The populating client is metered: PUT and PROPPATCH request
	// bodies are the user's bytes.
	pc, err := newClient(s.d.url, 0, cfg.seed, true, nil)
	if err != nil {
		return nil, err
	}
	err = s.w.populate(pc)
	s.userBytes = pc.m.reqBytes
	pc.close()
	if err != nil {
		return nil, fmt.Errorf("populate %s: %w", sp.name, err)
	}
	populated := time.Since(t0)

	if s.diskBytes, err = store.DiskUsage(s.d.root); err != nil {
		return nil, err
	}

	t1 := time.Now()
	for i := 0; i < sp.clients; i++ {
		// Timed runs use the plain client; the per-layer run meters
		// requests to get per-method latencies.
		c, err := newClient(s.d.url, i, cfg.seed, cfg.trace, nil)
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	warm := sp.warmOps
	if cfg.short {
		warm = 5
	}
	if ph := runPhase(s.w, s.clients, warm, 0); ph.failed > 0 {
		return nil, fmt.Errorf("warm-up of %s: %d of %d operations failed: %s",
			sp.name, ph.failed, ph.attempted, strings.Join(ph.errs, "; "))
	}
	s.began, s.ended = t0, time.Now()
	s.setupS = (populated + s.ended.Sub(t1)).Seconds()
	ok = true
	return s, nil
}

// tearDown stops davd gracefully and removes the store. It returns
// davd's exit error, if any.
func (s *site) tearDown() error {
	for _, c := range s.clients {
		c.close()
	}
	var err error
	if s.d != nil {
		err = s.d.stop()
	}
	os.RemoveAll(s.dir)
	return err
}

// meterTotals sums what metered clients have sent so far.
func meterTotals(cs []*client) (requests, userBytes int64) {
	for _, c := range cs {
		requests += c.m.requests
		userBytes += c.m.reqBytes
	}
	return requests, userBytes
}

// outcome is one workload's measured run.
type outcome struct {
	Workload  string    `json:"workload"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Samples   int       `json:"latency_samples"`
	SetupsS   []float64 `json:"setup_rounds_s"` // as measured, before normalisation
	TimedS    float64   `json:"timed_s"`
	Problems  []string  `json:"problems,omitempty"`
	// Values holds every metric by name. Raw holds the times as the
	// clock read them and the machine speeds they were divided by.
	Values map[string]float64 `json:"values"`
	Raw    map[string]float64 `json:"raw"`
}

// runEndToEnd measures one workload against a child davd. With
// cfg.trace the same run also yields the process-view per-layer
// metrics.
func runEndToEnd(cfg config, sp spec) (outcome, error) {
	out := outcome{Workload: sp.name, Values: map[string]float64{}, Raw: map[string]float64{}}
	mach := startMachine(cfg)
	defer mach.close()

	rounds := setupRounds
	if cfg.short || cfg.trace {
		rounds = 1
	}
	var s *site
	var setups []float64
	for r := 0; r < rounds; r++ {
		if s != nil {
			if err := s.tearDown(); err != nil {
				return out, fmt.Errorf("davd exit after set-up round %d: %w", r, err)
			}
		}
		var err error
		if s, err = setUp(cfg, sp); err != nil {
			return out, err
		}
		_, _, speed := mach.speeds(s.began, s.ended)
		out.SetupsS = append(out.SetupsS, s.setupS)
		setups = append(setups, s.setupS*speed)
	}

	pid := s.d.cmd.Process.Pid
	var m0, m1 runtime.MemStats
	var req0, sent0 int64
	if cfg.trace {
		// Warm-up went through the same meters; only the timed phase counts.
		req0, sent0 = meterTotals(s.clients)
		for _, c := range s.clients {
			c.m.lat = map[string][]float64{}
		}
		runtime.ReadMemStats(&m0)
	}
	p0, err := sampleProc(pid, cfg.trace)
	if err != nil {
		s.tearDown()
		return out, err
	}
	cpu0, began := selfCPUMs(), time.Now()
	ph := runPhase(s.w, s.clients, 0, cfg.timed)
	cpu1, ended := selfCPUMs(), time.Now()
	p1, err := sampleProc(pid, cfg.trace)
	if err != nil {
		s.tearDown()
		return out, err
	}
	if cfg.trace {
		runtime.ReadMemStats(&m1)
	}
	srvSpeed, cliSpeed, speed := mach.speeds(began, ended)

	out.Attempted, out.Failed, out.Samples = ph.attempted, ph.failed, len(ph.latMs)
	out.TimedS = ph.elapsed.Seconds()
	out.Problems = ph.errs
	done := float64(len(ph.latMs))
	lat := sortedCopy(ph.latMs)
	v, raw := out.Values, out.Raw
	raw["machine.server_speed"], raw["machine.client_speed"] = srvSpeed, cliSpeed
	raw["setup_s"] = median(out.SetupsS)
	v["setup_s"] = median(setups)
	v["disk_bytes_per_user_byte"] = float64(s.diskBytes) / float64(s.userBytes)
	if done > 0 {
		raw["ops_per_s"] = done / ph.elapsed.Seconds()
		raw["op_p50_ms"] = percentile(lat, 0.50)
		raw["op_p95_ms"] = percentile(lat, 0.95)
		raw["server_cpu_ms_per_op"] = (p1.UserMs + p1.SysMs - p0.UserMs - p0.SysMs) / done
		raw["client_cpu_ms_per_op"] = (cpu1 - cpu0) / done
		// Times are reported as they would read with both CPU sets at
		// reference speed (see probe.go); a rate is the inverse of one.
		v["ops_per_s"] = raw["ops_per_s"] / speed
		v["op_p50_ms"] = raw["op_p50_ms"] * speed
		v["op_p95_ms"] = raw["op_p95_ms"] * speed
		v["server_cpu_ms_per_op"] = raw["server_cpu_ms_per_op"] * srvSpeed
		v["client_cpu_ms_per_op"] = raw["client_cpu_ms_per_op"] * cliSpeed
	}
	if cfg.trace && done > 0 {
		// Per-layer numbers are as measured: nothing is gated on them.
		v["davd.peak_rss_mb"] = float64(p1.PeakRSSKB) / 1024
		v["davd.user_cpu_ms_per_op"] = (p1.UserMs - p0.UserMs) / done
		v["davd.sys_cpu_ms_per_op"] = (p1.SysMs - p0.SysMs) / done
		v["davd.read_syscalls_per_op"] = float64(p1.ReadCalls-p0.ReadCalls) / done
		v["davd.write_syscalls_per_op"] = float64(p1.WriteCalls-p0.WriteCalls) / done
		v["davd.vol_ctx_switches_per_op"] = float64(p1.VolCtx-p0.VolCtx) / done
		v["client.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / done
		v["client.alloc_kb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / done
		v["client.op_p99_ms"] = percentile(lat, 0.99)
		requests, sent := meterTotals(s.clients)
		v["davclient.requests_per_op"] = float64(requests-req0) / float64(ph.attempted)
		if sent > sent0 {
			v["davd.wchar_bytes_per_user_byte"] = float64(p1.WriteChars-p0.WriteChars) / float64(sent-sent0)
		}
		byMethod := map[string][]float64{}
		for _, c := range s.clients {
			for method, ms := range c.m.lat {
				byMethod[method] = append(byMethod[method], ms...)
			}
		}
		for method, ms := range byMethod {
			v["davclient."+strings.ToLower(method)+"_p50_ms"] = percentile(sortedCopy(ms), 0.50)
		}
	}

	// Untimed: davd must drain and exit cleanly on SIGTERM, and the
	// store it leaves must pass fsck.
	root := s.d.root
	for _, c := range s.clients {
		c.close()
	}
	stopErr := s.d.stop()
	rep, fsckErr := fsck.Check(root, dbm.GDBM)
	os.RemoveAll(s.dir)
	switch {
	case stopErr != nil:
		out.Problems = append(out.Problems, "davd exit: "+stopErr.Error())
	case fsckErr != nil:
		out.Problems = append(out.Problems, "fsck: "+fsckErr.Error())
	case !rep.Clean():
		out.Problems = append(out.Problems, fmt.Sprintf("fsck: %d findings, first: %s", len(rep.Findings), rep.Findings[0]))
	}
	out.Correct = out.Failed == 0 && out.Samples > 0 && len(out.Problems) == 0
	return out, nil
}
