package ops

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestTopKExact: with fewer distinct keys than capacity the counts are
// exact and ordering is by frequency.
func TestTopKExact(t *testing.T) {
	tk := NewTopK(8)
	for i := 0; i < 30; i++ {
		tk.Observe("/a")
	}
	for i := 0; i < 20; i++ {
		tk.Observe("/b")
	}
	tk.Observe("/c")
	top := tk.Top(0)
	if len(top) != 3 {
		t.Fatalf("Top(0) len = %d, want 3", len(top))
	}
	want := []TopEntry{{"/a", 30, 0}, {"/b", 20, 0}, {"/c", 1, 0}}
	for i, w := range want {
		if top[i] != w {
			t.Errorf("top[%d] = %+v, want %+v", i, top[i], w)
		}
	}
}

// TestTopKHeavyHitterSurvivesEviction: the Space-Saving guarantee — a
// key with more occurrences than the table's minimum counter is always
// present, no matter how many cold keys churn through.
func TestTopKHeavyHitterSurvivesEviction(t *testing.T) {
	tk := NewTopK(10)
	rng := rand.New(rand.NewSource(1))
	hot := "/hot"
	for i := 0; i < 5000; i++ {
		if i%3 == 0 {
			tk.Observe(hot)
		} else {
			tk.Observe(fmt.Sprintf("/cold/%d", rng.Intn(2000)))
		}
	}
	top := tk.Top(1)
	if len(top) == 0 || top[0].Key != hot {
		t.Fatalf("hottest key = %+v, want %s on top", top, hot)
	}
	// Upper bound must cover the true count; lower bound must be
	// positive for a key this hot.
	const trueCount = 1667 // ceil(5000/3)
	if top[0].Count < trueCount {
		t.Errorf("upper bound %d below true count %d", top[0].Count, trueCount)
	}
	if top[0].Count-top[0].ErrBound <= 0 {
		t.Errorf("lower bound %d not positive", top[0].Count-top[0].ErrBound)
	}
	if got := tk.Len(); got != 10 {
		t.Errorf("Len = %d, want capacity 10", got)
	}
}

// TestTopKConcurrent hammers Observe/Top from many goroutines for the
// race detector.
func TestTopKConcurrent(t *testing.T) {
	tk := NewTopK(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				tk.Observe(fmt.Sprintf("/p%d", i%40))
				if i%100 == 99 {
					tk.Top(5)
				}
			}
		}(w)
	}
	wg.Wait()
	if tk.Len() != 16 {
		t.Fatalf("Len = %d after 40 distinct keys, want capacity 16", tk.Len())
	}
}
