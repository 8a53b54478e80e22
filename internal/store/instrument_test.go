package store

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// opRecorder collects observed operations.
type opRecorder struct {
	mu   sync.Mutex
	ops  []string
	errs map[string]int
}

func newOpRecorder() *opRecorder { return &opRecorder{errs: map[string]int{}} }

func (r *opRecorder) observe(op string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d < 0 {
		panic("negative duration")
	}
	r.ops = append(r.ops, op)
	if err != nil {
		r.errs[op]++
	}
}

func (r *opRecorder) count(op string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, o := range r.ops {
		if o == op {
			n++
		}
	}
	return n
}

func TestInstrumentObservesOpsAndErrors(t *testing.T) {
	rec := newOpRecorder()
	s := Instrument(NewMemStore(), rec.observe)

	if _, err := s.Put(context.Background(), "/doc", strings.NewReader("hello"), "text/plain"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stat(context.Background(), "/doc"); err != nil {
		t.Fatal(err)
	}
	rc, _, err := s.Get(context.Background(), "/doc")
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if err := s.Mkcol(context.Background(), "/col"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ListWithProps(context.Background(), "/"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stat(context.Background(), "/missing"); err == nil {
		t.Fatal("expected ErrNotFound")
	}

	for op, want := range map[string]int{"put": 1, "stat": 2, "get": 1, "mkcol": 1, "list_with_props": 1} {
		if got := rec.count(op); got != want {
			t.Errorf("op %q observed %d times, want %d", op, got, want)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.errs["stat"] != 1 {
		t.Errorf("stat errors = %d, want 1", rec.errs["stat"])
	}
}

func TestInstrumentRenameDelegates(t *testing.T) {
	// A MOVE through the wrapper is one observed rename.
	fs, err := NewFSStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	rec := newOpRecorder()
	s := Instrument(fs, rec.observe)
	if _, err := s.Put(context.Background(), "/src", strings.NewReader("body"), ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Rename(context.Background(), "/src", "/dst"); err != nil {
		t.Fatal(err)
	}
	if got := rec.count("rename"); got != 1 {
		t.Errorf("rename observed %d times, want 1", got)
	}
}
