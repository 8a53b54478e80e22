package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// TestSeriesLimitCapsFamilies: past the cap, new label combinations
// collapse into one {overflow="true"} series and the overflow counter
// counts every rejection; existing series keep working.
func TestSeriesLimitCapsFamilies(t *testing.T) {
	r := NewRegistry()
	r.SetSeriesLimit(3)
	for i := 0; i < 3; i++ {
		r.Counter("hits_total", "", Labels{"path": fmt.Sprintf("/p%d", i)}).Inc()
	}
	// Two rejected combinations share the overflow series.
	r.Counter("hits_total", "", Labels{"path": "/p3"}).Inc()
	r.Counter("hits_total", "", Labels{"path": "/p4"}).Add(2)
	// An existing combination is still its own series.
	r.Counter("hits_total", "", Labels{"path": "/p0"}).Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `hits_total{overflow="true"} 3`) {
		t.Errorf("overflow series wrong:\n%s", out)
	}
	if !strings.Contains(out, `hits_total{path="/p0"} 2`) {
		t.Errorf("pre-cap series lost an increment:\n%s", out)
	}
	if strings.Contains(out, "/p3") || strings.Contains(out, "/p4") {
		t.Errorf("rejected label values leaked into the exposition:\n%s", out)
	}
	if !strings.Contains(out, OverflowMetric+" 2") {
		t.Errorf("overflow counter != 2:\n%s", out)
	}
	if err := CheckExposition([]byte(out)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
}

// TestSeriesLimitExemptions: unlabelled series never overflow (one per
// family by construction), other families get their own budget, and
// histograms overflow like counters.
func TestSeriesLimitExemptions(t *testing.T) {
	r := NewRegistry()
	r.SetSeriesLimit(2)
	for i := 0; i < 5; i++ {
		r.Histogram("lat_seconds", "", Labels{"m": fmt.Sprintf("M%d", i)}, DefBuckets).Observe(0.01)
	}
	r.Gauge("plain_gauge", "", nil).Set(1) // unlabelled: always admitted
	r.Counter("other_total", "", Labels{"k": "v"}).Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `lat_seconds_count{overflow="true"} 3`) {
		t.Errorf("histogram overflow series wrong:\n%s", out)
	}
	if !strings.Contains(out, "plain_gauge 1") {
		t.Errorf("unlabelled gauge rejected:\n%s", out)
	}
	if !strings.Contains(out, `other_total{k="v"} 1`) {
		t.Errorf("fresh family rejected under its own budget:\n%s", out)
	}
}

// TestSeriesLimitDisabled: limit 0 keeps the original unbounded
// behavior and registers no overflow counter.
func TestSeriesLimitDisabled(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 50; i++ {
		r.Counter("hits_total", "", Labels{"path": fmt.Sprintf("/p%d", i)}).Inc()
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "overflow") {
		t.Fatalf("unlimited registry produced overflow artifacts:\n%s", b.String())
	}
}

// TestConcurrentRegistrationAndScrape hammers metric creation with
// unbounded fresh label values from many goroutines while scrapers
// render and snapshot concurrently — the -race guard for the registry's
// registration path and the cardinality cap.
func TestConcurrentRegistrationAndScrape(t *testing.T) {
	r := NewRegistry()
	r.SetSeriesLimit(16)
	const workers, iters = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l := Labels{"path": fmt.Sprintf("/w%d/i%d", w, i)}
				r.Counter("req_total", "", l).Inc()
				r.Gauge("inflight", "", l).Add(1)
				r.Histogram("lat_seconds", "", l, DefBuckets).Observe(0.001)
				if i%64 == 0 {
					r.GaugeFunc("cb_gauge", "", Labels{"w": fmt.Sprintf("%d", w)},
						func() float64 { return float64(i) })
				}
			}
		}(w)
	}
	// Two concurrent scrapers: text exposition and snapshot.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
				r.Snapshot()
			}
		}()
	}
	wg.Wait()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := CheckExposition([]byte(out)); err != nil {
		t.Fatalf("exposition invalid after hammer: %v", err)
	}
	// The cap held: at most limit+1 series per family (the +1 is the
	// overflow series itself).
	for _, fam := range []string{"req_total", "inflight"} {
		n := 0
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, fam+"{") {
				n++
			}
		}
		if n > 17 {
			t.Errorf("family %s has %d series, cap was 16+overflow", fam, n)
		}
	}
	// Every observation landed somewhere: total counted requests ==
	// workers*iters.
	var total int64
	for key, v := range r.Snapshot() {
		if strings.HasPrefix(key, "req_total") {
			total += int64(v.(float64))
		}
	}
	if want := int64(workers * iters); total != want {
		t.Errorf("req_total sum = %d, want %d (observations lost)", total, want)
	}
}
