// Package prof is the incident-capture subsystem. The ops layer can say
// *that* the server degraded (SLO burn, runtime gauges); this package
// captures *what the server was doing* at that moment: when a trigger
// fires (SLO degraded transition, slow-request trip, recovered panic,
// or a manual POST) a Capturer assembles one downloadable tar.gz bundle
// — profiles taken at trigger time, trace tail, metrics snapshot,
// status document, log tail. Everything is stdlib-only, in-memory, and
// bounded.
package prof

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/obs"
)

// Kinds lists the profiles every bundle holds, in capture order: a
// timed CPU slice, then the runtime's named profiles. All are gzipped
// protobuf (the pprof wire format).
var Kinds = []string{"cpu", "heap", "goroutine", "mutex", "block"}

// Trigger reasons the capturer understands. Anything else is counted
// under TriggerManual so the metric label set stays bounded.
const (
	TriggerDegraded = "degraded"
	TriggerSlow     = "slow"
	TriggerPanic    = "panic"
	TriggerManual   = "manual"
)

// triggerKinds is the bounded label set for the incident counters.
var triggerKinds = []string{TriggerDegraded, TriggerSlow, TriggerPanic, TriggerManual}

// triggerLabel clamps an arbitrary reason onto the bounded set.
func triggerLabel(reason string) string {
	switch reason {
	case TriggerDegraded, TriggerSlow, TriggerPanic:
		return reason
	}
	return TriggerManual
}

// BundleSchema identifies the incident.json manifest shape inside a
// bundle.
const BundleSchema = "dav_incident/v1"

// The Capturer's bounds.
const (
	// maxBundles bounds the retained-bundle ring.
	maxBundles = 8
	// dedupWindow suppresses repeat bundles for the same trigger reason
	// inside the window.
	dedupWindow = 5 * time.Minute
	// minInterval rate-limits bundle assembly across all reasons.
	minInterval = 30 * time.Second
)

// CaptureConfig wires a Capturer to its evidence sources. Every source
// is optional; missing ones drop their bundle entry.
type CaptureConfig struct {
	// CPUSlice is the CPU profile length recorded at bundle time
	// (default 1s). Tests shorten it.
	CPUSlice time.Duration
	// WriteTraces streams the trace flight-recorder tail as JSONL
	// (typically (*trace.Recorder).WriteJSONL).
	WriteTraces func(io.Writer) error
	// WriteMetrics streams a full metrics exposition snapshot (typically
	// (*obs.Registry).WritePrometheus).
	WriteMetrics func(io.Writer) error
	// StatusJSON returns the /debug/status document (typically a
	// json.Marshal of (*ops.Status).Doc()).
	StatusJSON func() ([]byte, error)
	// LogTail returns the in-memory log tail (typically
	// (*obs.LogRing).Bytes()).
	LogTail func() []byte
	// Clock overrides the clock so tests can step past minInterval and
	// dedupWindow.
	Clock func() time.Time
}

// Bundle is one assembled incident: a tar.gz holding the profiles taken
// at trigger time, the trace tail, a metrics snapshot, the status
// document, and the log tail, plus an incident.json manifest.
type Bundle struct {
	ID      string    `json:"id"`
	Reason  string    `json:"reason"`
	Detail  string    `json:"detail,omitempty"`
	Time    time.Time `json:"time"`
	Entries []string  `json:"entries"`
	Bytes   int       `json:"bytes"`
	Data    []byte    `json:"-"`
}

// manifest is the incident.json entry written first in every bundle.
type manifest struct {
	Schema  string            `json:"schema"`
	ID      string            `json:"id"`
	Reason  string            `json:"reason"`
	Detail  string            `json:"detail,omitempty"`
	Time    time.Time         `json:"time"`
	Entries []string          `json:"entries"`
	Errors  map[string]string `json:"errors,omitempty"`
}

// Capturer assembles incident bundles on trigger. Bundles are
// rate-limited globally, deduplicated per trigger reason, and retained
// in a bounded ring; a second trigger arriving while a bundle is being
// assembled is suppressed rather than queued (the evidence it would
// capture is the same). All methods are safe for concurrent use.
type Capturer struct {
	cfg CaptureConfig

	mu           sync.Mutex
	bundles      []*Bundle // oldest first
	seq          int64
	capturing    bool
	lastAny      time.Time
	lastByReason map[string]time.Time
	built        map[string]int64
	suppressed   map[string]int64
}

// NewCapturer builds a capturer from cfg.
func NewCapturer(cfg CaptureConfig) *Capturer {
	if cfg.CPUSlice == 0 {
		cfg.CPUSlice = time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Capturer{
		cfg:          cfg,
		lastByReason: map[string]time.Time{},
		built:        map[string]int64{},
		suppressed:   map[string]int64{},
	}
}

// Trigger assembles one incident bundle for the given reason, blocking
// for the on-demand CPU slice. It returns (nil, false) when the
// trigger was suppressed — deduplicated inside the reason's window,
// rate-limited globally, or arriving while another bundle is being
// assembled. Hot paths (panic recovery, the slow-trip hook) call it on
// a goroutine of their own so a request never waits the CPU slice.
func (c *Capturer) Trigger(reason, detail string) (*Bundle, bool) {
	now := c.cfg.Clock()
	c.mu.Lock()
	label := triggerLabel(reason)
	switch {
	case c.capturing:
		c.suppressed[label]++
		c.mu.Unlock()
		return nil, false
	case !c.lastAny.IsZero() && now.Sub(c.lastAny) < minInterval:
		c.suppressed[label]++
		c.mu.Unlock()
		return nil, false
	case !c.lastByReason[label].IsZero() && now.Sub(c.lastByReason[label]) < dedupWindow:
		c.suppressed[label]++
		c.mu.Unlock()
		return nil, false
	}
	// Reserve the windows before assembling so a concurrent trigger
	// during the (slow) CPU slice is suppressed, not queued.
	c.capturing = true
	c.lastAny = now
	c.lastByReason[label] = now
	c.seq++
	seq := c.seq
	c.mu.Unlock()

	b := c.assemble(seq, reason, detail, now)

	c.mu.Lock()
	c.capturing = false
	c.built[label]++
	c.bundles = append(c.bundles, b)
	if over := len(c.bundles) - maxBundles; over > 0 {
		c.bundles = append([]*Bundle(nil), c.bundles[over:]...)
	}
	c.mu.Unlock()
	return b, true
}

// assemble builds the tar.gz for one incident.
func (c *Capturer) assemble(seq int64, reason, detail string, now time.Time) *Bundle {
	id := fmt.Sprintf("inc-%03d-%s", seq, now.UTC().Format("20060102T150405Z"))
	type entry struct {
		name string
		data []byte
	}
	var entries []entry
	errs := map[string]string{}
	add := func(name string, data []byte, err error) {
		if err != nil {
			errs[name] = err.Error()
			return
		}
		entries = append(entries, entry{name, data})
	}

	// Profiles, every one taken now. The runtime runs one CPU profile at
	// a time and a capturer one assembly at a time, so the slice fails
	// only while an operator holds /debug/pprof/profile, and the manifest
	// says so. Heap, mutex and block are cumulative since process start;
	// goroutine is the moment itself.
	var cpu bytes.Buffer
	err := pprof.StartCPUProfile(&cpu)
	if err == nil {
		time.Sleep(c.cfg.CPUSlice)
		pprof.StopCPUProfile()
	}
	add("profiles/cpu.pb.gz", cpu.Bytes(), err)
	for _, kind := range Kinds[1:] {
		var buf bytes.Buffer
		err := pprof.Lookup(kind).WriteTo(&buf, 0)
		add("profiles/"+kind+".pb.gz", buf.Bytes(), err)
	}

	if c.cfg.WriteTraces != nil {
		var buf bytes.Buffer
		err := c.cfg.WriteTraces(&buf)
		add("traces.jsonl", buf.Bytes(), err)
	}
	if c.cfg.WriteMetrics != nil {
		var buf bytes.Buffer
		err := c.cfg.WriteMetrics(&buf)
		add("metrics.prom", buf.Bytes(), err)
	}
	if c.cfg.StatusJSON != nil {
		data, err := c.cfg.StatusJSON()
		add("status.json", data, err)
	}
	if c.cfg.LogTail != nil {
		add("logs.txt", c.cfg.LogTail(), nil)
	}

	names := make([]string, 0, len(entries)+1)
	names = append(names, "incident.json")
	for _, e := range entries {
		names = append(names, e.name)
	}
	man, _ := json.MarshalIndent(manifest{
		Schema: BundleSchema, ID: id, Reason: reason, Detail: detail,
		Time: now, Entries: names, Errors: errs,
	}, "", "  ")
	man = append(man, '\n')

	var out bytes.Buffer
	gz := gzip.NewWriter(&out)
	tw := tar.NewWriter(gz)
	write := func(name string, data []byte) {
		tw.WriteHeader(&tar.Header{
			Name: name, Mode: 0o644, Size: int64(len(data)), ModTime: now,
		})
		tw.Write(data)
	}
	write("incident.json", man)
	for _, e := range entries {
		write(e.name, e.data)
	}
	tw.Close()
	gz.Close()

	return &Bundle{
		ID: id, Reason: reason, Detail: detail, Time: now,
		Entries: names, Bytes: out.Len(), Data: out.Bytes(),
	}
}

// Bundles returns the retained bundles, newest first.
func (c *Capturer) Bundles() []*Bundle {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Bundle, len(c.bundles))
	for i, b := range c.bundles {
		out[len(out)-1-i] = b
	}
	return out
}

// Find returns the retained bundle with the given ID, or nil.
func (c *Capturer) Find(id string) *Bundle {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range c.bundles {
		if b.ID == id {
			return b
		}
	}
	return nil
}

// Len returns the number of retained bundles.
func (c *Capturer) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.bundles)
}

// Built reports how many bundles have been assembled for a trigger
// label (cumulative, unaffected by ring eviction).
func (c *Capturer) Built(label string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.built[triggerLabel(label)]
}

// Suppressed reports how many triggers were suppressed for a label.
func (c *Capturer) Suppressed(label string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.suppressed[triggerLabel(label)]
}

// WriteBundles writes every retained bundle to dir as <id>.tar.gz —
// the graceful-drain flush, so evidence captured in memory survives
// the process. Returns how many files were written.
func (c *Capturer) WriteBundles(dir string) (int, error) {
	bundles := c.Bundles()
	if len(bundles) == 0 {
		return 0, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	n := 0
	for _, b := range bundles {
		if err := os.WriteFile(filepath.Join(dir, b.ID+".tar.gz"), b.Data, 0o644); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Register exposes the capturer as dav_incident_* metrics, read at
// scrape time: per-trigger built/suppressed counts and the retained
// ring occupancy.
func (c *Capturer) Register(r *obs.Registry) {
	for _, trig := range triggerKinds {
		trig := trig
		l := obs.Labels{"trigger": trig}
		r.GaugeFunc("dav_incident_bundles_total",
			"Incident bundles assembled, by trigger (cumulative).", l,
			func() float64 { return float64(c.Built(trig)) })
		r.GaugeFunc("dav_incident_suppressed_total",
			"Incident triggers suppressed by dedup, rate limiting, or in-flight assembly, by trigger (cumulative).", l,
			func() float64 { return float64(c.Suppressed(trig)) })
	}
	r.GaugeFunc("dav_incident_retained",
		"Incident bundles currently retained in the in-memory ring.", nil,
		func() float64 { return float64(c.Len()) })
}
