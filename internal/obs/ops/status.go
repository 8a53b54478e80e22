package ops

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// StatusSchema identifies the /debug/status?format=json document shape.
const StatusSchema = "dav_status/v2"

// Link is one navigation entry on the console (deeper admin surfaces:
// traces, pprof, metrics).
type Link struct {
	Name string `json:"name"`
	Href string `json:"href"`
}

// StatusConfig wires the console to the subsystems it consolidates.
// Every field except Service is optional; missing ones drop their
// section.
type StatusConfig struct {
	// Service names the process ("davd").
	Service string
	// Registry supplies the gauge section (path locks, DBM cache,
	// recovery, journal — whatever matches gaugePrefixes).
	Registry *obs.Registry
	// Tracker supplies the hot-path, hot-op, and SLO sections.
	Tracker *Tracker
	// Ready, when set, embeds the /readyz document (any
	// JSON-marshallable value) so one page answers "would a load
	// balancer route to me".
	Ready func() any
	// Links point into the other admin endpoints.
	Links []Link
}

// gaugePrefixes selects the storage-stack and lifecycle gauge families
// the console shows.
var gaugePrefixes = []string{
	"dav_pathlock_", "dav_dbm_cache_", "dav_locks_",
	"dav_recovery_", "dav_recovering", "dav_journal_",
	"dav_fsync_", "dav_inflight_", "dav_panics_", "dav_metric_label_overflow",
	"dav_admit_", "dav_brownout_",
}

// topN bounds the rendered heavy-hitter tables.
const topN = 10

// StatusDoc is the JSON document served by /debug/status?format=json.
type StatusDoc struct {
	Schema        string             `json:"schema"`
	Service       string             `json:"service"`
	Go            string             `json:"go"`
	PID           int                `json:"pid"`
	StartTime     time.Time          `json:"start_time"`
	UptimeSeconds float64            `json:"uptime_seconds"`
	Build         map[string]string  `json:"build,omitempty"`
	Runtime       Runtime            `json:"runtime"`
	SLO           []ObjectiveStatus  `json:"slo,omitempty"`
	Degraded      bool               `json:"degraded"`
	HotPaths      []TopEntry         `json:"hot_paths,omitempty"`
	HotOps        []TopEntry         `json:"hot_ops,omitempty"`
	Observations  int64              `json:"observations"`
	Gauges        map[string]float64 `json:"gauges,omitempty"`
	Ready         any                `json:"ready,omitempty"`
	Links         []Link             `json:"links,omitempty"`
}

// Status is the unified operational console. Mount it on the admin
// listener at /debug/status; it serves HTML by default and the
// StatusDoc JSON with ?format=json (or an Accept: application/json
// header).
type Status struct {
	cfg   StatusConfig
	start time.Time
	build map[string]string
}

// NewStatus builds the console.
func NewStatus(cfg StatusConfig) *Status {
	if cfg.Service == "" {
		cfg.Service = "dav"
	}
	return &Status{cfg: cfg, start: time.Now(), build: buildInfo()}
}

// buildInfo extracts module path/version and VCS stamps from the
// binary's embedded build info.
func buildInfo() map[string]string {
	out := map[string]string{}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out["module"] = bi.Main.Path
	if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		out["version"] = bi.Main.Version
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision", "vcs.time", "vcs.modified":
			out[strings.TrimPrefix(s.Key, "vcs.")] = s.Value
		}
	}
	return out
}

// Doc assembles the current StatusDoc. Exported so benchmarks and the
// golden test can validate the shape without an HTTP round trip.
func (s *Status) Doc() StatusDoc {
	doc := StatusDoc{
		Schema:        StatusSchema,
		Service:       s.cfg.Service,
		Go:            runtime.Version(),
		PID:           os.Getpid(),
		StartTime:     s.start,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Build:         s.build,
		Runtime:       ReadRuntime(),
	}
	if tr := s.cfg.Tracker; tr != nil {
		doc.HotPaths = tr.HotPaths(topN)
		doc.HotOps = tr.HotOps(topN)
		doc.Observations = tr.Observations()
		if slo := tr.SLO(); slo != nil {
			doc.SLO = slo.Snapshot()
			doc.Degraded = slo.Degraded()
		}
	}
	if r := s.cfg.Registry; r != nil {
		doc.Gauges = filterGauges(r.Snapshot(), gaugePrefixes)
	}
	if s.cfg.Ready != nil {
		doc.Ready = s.cfg.Ready()
	}
	doc.Links = s.cfg.Links
	return doc
}

// filterGauges keeps scalar snapshot entries whose metric name matches
// one of the prefixes.
func filterGauges(snap map[string]any, prefixes []string) map[string]float64 {
	out := map[string]float64{}
	for key, v := range snap {
		f, ok := v.(float64)
		if !ok {
			continue
		}
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				out[key] = f
				break
			}
		}
	}
	return out
}

// ServeHTTP renders the console: JSON for ?format=json or an Accept
// header preferring application/json, HTML otherwise.
func (s *Status) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json") {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Doc())
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	s.renderHTML(w)
}

// statusTmpl is the HTML console. Deliberately dependency-free and
// render-only: every number comes from Doc, so the JSON and the page
// can never disagree.
var statusTmpl = template.Must(template.New("status").Funcs(template.FuncMap{
	"bytes": humanBytes,
	"pct":   func(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) },
	"f3":    func(v float64) string { return fmt.Sprintf("%.3f", v) },
}).Parse(`<!doctype html>
<html><head><title>{{.Doc.Service}} status</title><style>
body{font-family:monospace;margin:2em;background:#fafafa;color:#222}
h1{font-size:1.3em} h2{font-size:1.05em;border-bottom:1px solid #ccc;margin-top:1.6em}
table{border-collapse:collapse} td,th{padding:2px 12px 2px 0;text-align:left}
th{color:#666;font-weight:normal} .num{text-align:right}
.bad{color:#b00;font-weight:bold} .ok{color:#070}
</style></head><body>
<h1>{{.Doc.Service}} — operational status
{{if .Doc.Degraded}}<span class="bad">[SLO DEGRADED]</span>{{else}}<span class="ok">[healthy]</span>{{end}}</h1>
<p>go {{.Doc.Go}} · pid {{.Doc.PID}} · up {{printf "%.0fs" .Doc.UptimeSeconds}}
{{range $k, $v := .Doc.Build}} · {{$k}}={{$v}}{{end}}
· <a href="?format=json">json</a></p>

<h2>runtime</h2>
<table>
<tr><th>goroutines</th><td class="num">{{.Doc.Runtime.Goroutines}}</td></tr>
<tr><th>heap alloc</th><td class="num">{{bytes .Doc.Runtime.HeapAllocBytes}}</td></tr>
<tr><th>heap sys</th><td class="num">{{bytes .Doc.Runtime.HeapSysBytes}}</td></tr>
<tr><th>gc cpu</th><td class="num">{{pct .Doc.Runtime.GCCPUFraction}}</td></tr>
<tr><th>open fds</th><td class="num">{{.Doc.Runtime.OpenFDs}}</td></tr>
</table>

{{if .Doc.SLO}}
<h2>slo</h2>
<table><tr><th>objective</th><th>target</th><th class="num">good</th><th class="num">bad</th>
{{range (index .Doc.SLO 0).Windows}}<th class="num">burn {{.Window}}</th>{{end}}<th></th></tr>
{{range .Doc.SLO}}<tr><td>{{.Name}}</td><td>{{.Target}}</td>
<td class="num">{{.Good}}</td><td class="num">{{.Bad}}</td>
{{range .Windows}}<td class="num">{{f3 .BurnRate}}</td>{{end}}
<td>{{if .Degraded}}<span class="bad">degraded</span>{{else}}<span class="ok">ok</span>{{end}}</td>
</tr>{{end}}</table>
{{end}}

{{if .Doc.HotPaths}}
<h2>hot paths ({{.Doc.Observations}} requests observed)</h2>
<table><tr><th>#</th><th>path</th><th class="num">requests ≤</th><th class="num">err</th></tr>
{{range $i, $e := .Doc.HotPaths}}<tr><td>{{$i}}</td><td>{{$e.Key}}</td>
<td class="num">{{$e.Count}}</td><td class="num">{{$e.ErrBound}}</td></tr>{{end}}</table>
{{end}}

{{if .Doc.HotOps}}
<h2>hot operations (method, depth)</h2>
<table><tr><th>#</th><th>op</th><th class="num">requests ≤</th><th class="num">err</th></tr>
{{range $i, $e := .Doc.HotOps}}<tr><td>{{$i}}</td><td>{{$e.Key}}</td>
<td class="num">{{$e.Count}}</td><td class="num">{{$e.ErrBound}}</td></tr>{{end}}</table>
{{end}}

{{if .GaugeRows}}
<h2>storage &amp; lifecycle gauges</h2>
<table>{{range .GaugeRows}}<tr><th>{{.Name}}</th><td class="num">{{.Value}}</td></tr>{{end}}</table>
{{end}}

{{if .ReadyJSON}}
<h2>readiness</h2>
<pre>{{.ReadyJSON}}</pre>
{{end}}

{{if .Doc.Links}}
<h2>links</h2>
<p>{{range .Doc.Links}}<a href="{{.Href}}">{{.Name}}</a> · {{end}}</p>
{{end}}
</body></html>
`))

// gaugeRow is one rendered gauge line.
type gaugeRow struct {
	Name  string
	Value string
}

// renderHTML renders the console page from a fresh Doc.
func (s *Status) renderHTML(w http.ResponseWriter) {
	doc := s.Doc()
	data := struct {
		Doc       StatusDoc
		GaugeRows []gaugeRow
		ReadyJSON string
	}{Doc: doc}
	names := make([]string, 0, len(doc.Gauges))
	for n := range doc.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		data.GaugeRows = append(data.GaugeRows, gaugeRow{
			Name:  n,
			Value: fmt.Sprintf("%g", doc.Gauges[n]),
		})
	}
	if doc.Ready != nil {
		if b, err := json.MarshalIndent(doc.Ready, "", "  "); err == nil {
			data.ReadyJSON = string(b)
		}
	}
	if err := statusTmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// humanBytes renders a byte count with a binary unit.
func humanBytes(n uint64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := uint64(unit), 0
	for v := n / unit; v >= unit; v /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %cB", float64(n)/float64(div), "KMGTPE"[exp])
}
