package ops

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Objective is one latency service-level objective: Target fraction of
// matching requests must complete under Threshold (and without a 5xx).
type Objective struct {
	// Name labels the objective in metrics and the status console.
	Name string
	// Methods is the DAV method set the objective covers; empty covers
	// every method.
	Methods map[string]bool
	// Threshold is the latency bound a request must beat to be "good".
	Threshold time.Duration
	// Target is the required good fraction in (0, 1), e.g. 0.99.
	Target float64
}

// ParseObjectives parses the davd -slo flag syntax: semicolon-separated
// objectives, each "METHOD[,METHOD...]:THRESHOLD:TARGET", with "*" (or
// an empty method list) covering all methods.
//
//	GET,PROPFIND:50ms:0.99;PUT:250ms:0.95
func ParseObjectives(spec string) ([]Objective, error) {
	var out []Objective
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("ops: objective %q: want METHODS:THRESHOLD:TARGET", part)
		}
		o := Objective{Name: part}
		methods := strings.TrimSpace(fields[0])
		if methods != "" && methods != "*" {
			o.Methods = map[string]bool{}
			var names []string
			for _, m := range strings.Split(methods, ",") {
				m = strings.ToUpper(strings.TrimSpace(m))
				if m == "" {
					continue
				}
				o.Methods[m] = true
				names = append(names, m)
			}
			o.Name = strings.Join(names, ",")
		} else {
			o.Name = "*"
		}
		d, err := time.ParseDuration(strings.TrimSpace(fields[1]))
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("ops: objective %q: bad threshold %q", part, fields[1])
		}
		o.Threshold = d
		// Written as the range itself, so NaN (which ParseFloat accepts
		// and every comparison rejects) is refused too.
		t, err := strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
		if err != nil || !(t > 0 && t < 1) {
			return nil, fmt.Errorf("ops: objective %q: target %q not in (0, 1)", part, fields[2])
		}
		o.Target = t
		o.Name = fmt.Sprintf("%s<%s@%s", o.Name, d, trimFloat(t))
		out = append(out, o)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("ops: no objectives in %q", spec)
	}
	return out, nil
}

func trimFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// sloBucket is one time slice of good/bad counts. Epoch stamps which
// slice the slot currently holds so stale ring slots are skipped.
type sloBucket struct {
	epoch     int64
	good, bad int64
}

// objectiveState is one objective's rolling accounting: a bucket ring
// wide enough for the longest window, plus cumulative totals.
type objectiveState struct {
	Objective
	mu      sync.Mutex
	width   time.Duration
	buckets []sloBucket
	good    int64 // cumulative
	bad     int64
}

// window sums the buckets covering the trailing window w as of now.
func (st *objectiveState) window(now time.Time, w time.Duration) (good, bad int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	cur := now.UnixNano() / int64(st.width)
	n := int64(w / st.width)
	for i := range st.buckets {
		b := &st.buckets[i]
		if b.epoch > cur-n && b.epoch <= cur {
			good += b.good
			bad += b.bad
		}
	}
	return good, bad
}

func (st *objectiveState) observe(now time.Time, good bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	epoch := now.UnixNano() / int64(st.width)
	b := &st.buckets[epoch%int64(len(st.buckets))]
	if b.epoch != epoch {
		b.epoch, b.good, b.bad = epoch, 0, 0
	}
	if good {
		b.good++
		st.good++
	} else {
		b.bad++
		st.bad++
	}
}

// SLOConfig configures the engine.
type SLOConfig struct {
	// Objectives to track (required).
	Objectives []Objective
	// Now overrides the clock so tests can age events out.
	Now func() time.Time
}

// sloWindows are the trailing burn-rate windows, shortest first. The
// shortest also sets the bucket granularity (window/30).
var sloWindows = [...]time.Duration{5 * time.Minute, time.Hour}

// degradedBurn is the burn rate every window must reach before the
// engine reports degraded: the error budget is burning at twice the
// sustainable rate, and the short window confirms it is still
// happening now.
const degradedBurn = 2

// SLO tracks rolling good/bad counts per objective and computes
// multi-window burn rates: burn = (bad fraction) / (1 - target). Burn 1
// means the error budget is being consumed exactly as fast as the
// objective allows; sustained burn above 1 eventually violates it. The
// degraded bit goes up only when every window burns past
// degradedBurn — the long window proving real budget loss, the short
// window proving it is still happening — which is the standard
// multi-window burn-rate alert shape.
type SLO struct {
	states []*objectiveState
	now    func() time.Time
}

// NewSLO builds the engine.
func NewSLO(cfg SLOConfig) *SLO {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	width := sloWindows[0] / 30
	longest := sloWindows[len(sloWindows)-1]
	n := int(longest/width) + 2 // +1 partial head bucket, +1 ring slack
	e := &SLO{now: cfg.Now}
	for _, o := range cfg.Objectives {
		e.states = append(e.states, &objectiveState{
			Objective: o,
			width:     width,
			buckets:   make([]sloBucket, n),
		})
	}
	return e
}

// Observe scores one completed request against every matching
// objective: good means under the threshold and not a server error.
func (e *SLO) Observe(method string, status int, d time.Duration) {
	if e == nil {
		return
	}
	now := e.now()
	for _, st := range e.states {
		if st.Methods != nil && !st.Methods[method] {
			continue
		}
		st.observe(now, d <= st.Threshold && status < 500)
	}
}

// WindowStatus is one window's burn accounting for an objective.
type WindowStatus struct {
	Window      string  `json:"window"`
	Good        int64   `json:"good"`
	Bad         int64   `json:"bad"`
	BadFraction float64 `json:"bad_fraction"`
	BurnRate    float64 `json:"burn_rate"`
}

// ObjectiveStatus is one objective's full state for the status console.
type ObjectiveStatus struct {
	Name        string         `json:"name"`
	ThresholdMS float64        `json:"threshold_ms"`
	Target      float64        `json:"target"`
	Good        int64          `json:"good_total"`
	Bad         int64          `json:"bad_total"`
	Windows     []WindowStatus `json:"windows"`
	Degraded    bool           `json:"degraded"`
}

// Snapshot reports every objective's cumulative counts and per-window
// burn rates as of now.
func (e *SLO) Snapshot() []ObjectiveStatus {
	if e == nil {
		return nil
	}
	now := e.now()
	out := make([]ObjectiveStatus, 0, len(e.states))
	for _, st := range e.states {
		os := ObjectiveStatus{
			Name:        st.Name,
			ThresholdMS: float64(st.Threshold) / float64(time.Millisecond),
			Target:      st.Target,
			Degraded:    true,
		}
		st.mu.Lock()
		os.Good, os.Bad = st.good, st.bad
		st.mu.Unlock()
		for _, w := range sloWindows {
			good, bad := st.window(now, w)
			ws := WindowStatus{Window: fmtWindow(w), Good: good, Bad: bad}
			if total := good + bad; total > 0 {
				ws.BadFraction = float64(bad) / float64(total)
				ws.BurnRate = ws.BadFraction / (1 - st.Target)
			}
			if ws.BurnRate < degradedBurn {
				os.Degraded = false
			}
			os.Windows = append(os.Windows, ws)
		}
		if os.Good+os.Bad == 0 {
			os.Degraded = false
		}
		out = append(out, os)
	}
	return out
}

// Degraded reports whether any objective's burn rate reaches
// degradedBurn in every window.
func (e *SLO) Degraded() bool {
	if e == nil {
		return false
	}
	for _, os := range e.Snapshot() {
		if os.Degraded {
			return true
		}
	}
	return false
}

// Register exposes the engine as dav_slo_* gauges, evaluated at scrape
// time: per-objective target/threshold and cumulative good/bad counts,
// per-(objective, window) burn rates, and the overall degraded bit.
func (e *SLO) Register(r *obs.Registry) {
	for _, st := range e.states {
		st := st
		l := obs.Labels{"slo": st.Name}
		r.GaugeFunc("dav_slo_target",
			"Configured good-fraction target of the objective.", l,
			func() float64 { return st.Target })
		r.GaugeFunc("dav_slo_threshold_seconds",
			"Latency bound a request must beat to count as good.", l,
			func() float64 { return st.Threshold.Seconds() })
		r.GaugeFunc("dav_slo_good_total",
			"Requests that met the objective (cumulative).", l,
			func() float64 { st.mu.Lock(); defer st.mu.Unlock(); return float64(st.good) })
		r.GaugeFunc("dav_slo_bad_total",
			"Requests that missed the objective (cumulative).", l,
			func() float64 { st.mu.Lock(); defer st.mu.Unlock(); return float64(st.bad) })
		for _, w := range sloWindows {
			w := w
			wl := obs.Labels{"slo": st.Name, "window": fmtWindow(w)}
			r.GaugeFunc("dav_slo_burn_rate",
				"Error-budget burn rate over the trailing window (1 = budget consumed exactly at the sustainable rate).", wl,
				func() float64 {
					good, bad := st.window(e.now(), w)
					if good+bad == 0 {
						return 0
					}
					return (float64(bad) / float64(good+bad)) / (1 - st.Target)
				})
		}
	}
	r.GaugeFunc("dav_slo_degraded",
		"1 when some objective burns past the alert rate in every window, else 0.", nil,
		func() float64 {
			if e.Degraded() {
				return 1
			}
			return 0
		})
}

// fmtWindow renders a window duration compactly ("5m", "1h", "90s").
func fmtWindow(d time.Duration) string {
	switch {
	case d >= time.Hour && d%time.Hour == 0:
		return fmt.Sprintf("%dh", d/time.Hour)
	case d >= time.Minute && d%time.Minute == 0:
		return fmt.Sprintf("%dm", d/time.Minute)
	case d >= time.Second && d%time.Second == 0:
		return fmt.Sprintf("%ds", d/time.Second)
	default:
		return d.String()
	}
}
