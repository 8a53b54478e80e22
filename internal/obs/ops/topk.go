// Package ops is the operational-intelligence layer over the raw
// telemetry of internal/obs: a runtime reader (process health, read
// when asked), Space-Saving top-K heavy-hitter tables (which resources
// are hot), an SLO engine (are we meeting the latency objective, and
// how fast is the error budget burning), and a unified /debug/status
// console that renders all of it — plus the store's concurrency and
// recovery gauges — as one HTML+JSON page on the admin listener.
//
// The paper's server is shared infrastructure for many concurrent
// scientists; raw counters answer "how many requests", but an operator
// needs "which calculation tree is hot, is the process itself healthy,
// and are we inside our objective". This package turns the PR 2/3
// pillars (metrics, logs, traces) into those answers, using only the
// standard library.
package ops

import (
	"sort"
	"sync"
)

// TopEntry is one heavy hitter reported by a TopK table. Count is an
// upper bound on the key's true frequency; Count-ErrBound is a lower
// bound (Space-Saving's guarantee: any key whose true count exceeds the
// table's minimum counter is present).
type TopEntry struct {
	Key      string `json:"key"`
	Count    int64  `json:"count"`
	ErrBound int64  `json:"err_bound"`
}

// TopK maintains the k most frequent keys of a stream in O(k) memory
// with the Space-Saving algorithm (Metwally, Agrawal, El Abbadi 2005):
// a full table evicts its minimum-count entry and the newcomer inherits
// that count as its error bound. Safe for concurrent use.
type TopK struct {
	mu      sync.Mutex
	k       int
	entries map[string]*TopEntry
}

// NewTopK returns a table tracking up to k keys (k < 1 is treated
// as 1).
func NewTopK(k int) *TopK {
	if k < 1 {
		k = 1
	}
	return &TopK{k: k, entries: make(map[string]*TopEntry, k)}
}

// K returns the table's capacity.
func (t *TopK) K() int { return t.k }

// Observe counts one occurrence of key with the Space-Saving insert: an
// existing key accumulates; a new key either fills a free slot or
// replaces the minimum entry, inheriting its count as the error bound.
func (t *TopK) Observe(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[key]; ok {
		e.Count++
		return
	}
	if len(t.entries) < t.k {
		t.entries[key] = &TopEntry{Key: key, Count: 1}
		return
	}
	var min *TopEntry
	for _, e := range t.entries {
		if min == nil || e.Count < min.Count {
			min = e
		}
	}
	delete(t.entries, min.Key)
	t.entries[key] = &TopEntry{Key: key, Count: min.Count + 1, ErrBound: min.Count}
}

// Top returns up to n entries sorted by descending count (ties broken
// by key for stable output). n <= 0 returns every tracked entry.
func (t *TopK) Top(n int) []TopEntry {
	t.mu.Lock()
	out := make([]TopEntry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, *e)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Len reports how many keys the table currently tracks (at most k).
func (t *TopK) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}
