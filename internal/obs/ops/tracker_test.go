package ops

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestTrackerHoldsTwenty: each heavy-hitter table holds 20 keys, and
// the exposition carries one rank per slot.
func TestTrackerHoldsTwenty(t *testing.T) {
	tr := NewTracker(nil)
	for i := 0; i < 25; i++ {
		tr.ObserveRequest("GET", fmt.Sprintf("/p%02d", i), fmt.Sprint(i), 200, time.Millisecond)
	}
	if n := len(tr.HotPaths(0)); n != 20 {
		t.Errorf("hot paths hold %d keys, want 20", n)
	}
	if n := len(tr.HotOps(0)); n != 20 {
		t.Errorf("hot ops hold %d keys, want 20", n)
	}
	r := obs.NewRegistry()
	tr.Register(r)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "dav_hot_path_requests{"); n != 20 {
		t.Errorf("exposition has %d hot-path ranks, want 20", n)
	}
}
