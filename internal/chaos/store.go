package chaos

import (
	"context"
	"errors"
	"math/rand"
	"sync"

	"repro/internal/store"
)

// ErrInjected is the storage failure surfaced by FaultyStore.
var ErrInjected = errors.New("chaos: injected storage failure")

// Store operation names accepted by FaultyStore arming calls: the
// store package's own, one per Store method.
const (
	OpStat          = store.OpStat
	OpMkcol         = store.OpMkcol
	OpPut           = store.OpPut
	OpGet           = store.OpGet
	OpDelete        = store.OpDelete
	OpPropPut       = store.OpPropPut
	OpPropDelete    = store.OpPropDelete
	OpStatWithProps = store.OpStatWithProps
	OpListWithProps = store.OpListWithProps
	OpCopyTree      = store.OpCopyTree
	OpRename        = store.OpRename
)

// trigger is one armed fault on a store operation.
type trigger struct {
	nth   int64 // fail the nth call from arming (1-based); 0 = disabled
	all   bool  // fail every call
	rate  float64
	rng   *rand.Rand
	calls int64
}

func (tr *trigger) fires() bool {
	tr.calls++
	if tr.all {
		return true
	}
	if tr.nth > 0 && tr.calls == tr.nth {
		return true
	}
	return tr.rate > 0 && tr.rng.Float64() < tr.rate
}

// FaultyStore wraps a store.Store and fails selected operations on
// demand — the storage-layer arm of the chaos harness, generalizing
// the ad-hoc test doubles the server's rollback tests began with. The
// zero set of triggers passes everything through.
type FaultyStore struct {
	// Store is the wrapped store behind the fault interceptor; every
	// Store method, batched and atomic ones included, passes through it.
	store.Store

	mu       sync.Mutex
	triggers map[string]*trigger
	faults   int64
}

// NewFaultyStore wraps s with no faults armed.
func NewFaultyStore(s store.Store) *FaultyStore {
	f := &FaultyStore{triggers: map[string]*trigger{}}
	f.Store = store.Intercept(s, func(ctx context.Context, op store.Op, next func(context.Context) error) error {
		if f.fail(op.Name) {
			return ErrInjected
		}
		return next(ctx)
	})
	return f
}

// FailNth arms op to fail on its nth call from now (1-based).
func (f *FaultyStore) FailNth(op string, n int) {
	f.arm(op, &trigger{nth: int64(n)})
}

// FailAll arms op to fail on every call until Clear.
func (f *FaultyStore) FailAll(op string) {
	f.arm(op, &trigger{all: true})
}

// FailRate arms op to fail with the given seeded probability per call.
func (f *FaultyStore) FailRate(op string, rate float64, seed int64) {
	f.arm(op, &trigger{rate: rate, rng: rand.New(rand.NewSource(seed))})
}

// Clear disarms op.
func (f *FaultyStore) Clear(op string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.triggers, op)
}

// Faults reports how many operations have been failed.
func (f *FaultyStore) Faults() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.faults
}

func (f *FaultyStore) arm(op string, tr *trigger) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.triggers[op] = tr
}

// fail reports whether the next call to op should fail.
func (f *FaultyStore) fail(op string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	tr, ok := f.triggers[op]
	if !ok || !tr.fires() {
		return false
	}
	f.faults++
	return true
}
