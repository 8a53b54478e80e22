package chaos

import (
	"fmt"
	"sync"
)

// CrashPanic is the panic payload CrashPoint raises to simulate a
// process crash at a named step boundary inside a multi-step store
// operation. Harnesses recover it, abandon the crashed store without
// closing it (a real crash would not close it either), and reopen the
// directory to exercise startup recovery.
type CrashPanic struct {
	Point string // the step that crashed, e.g. "put.renamed"
	Hit   int    // which occurrence fired (1-based)
}

func (c CrashPanic) Error() string {
	return fmt.Sprintf("chaos: simulated crash at %s (hit %d)", c.Point, c.Hit)
}

// CrashPoint is a crash-point fault injector for FSStore's step hooks:
// plug its Hook into store.FSOptions.StepHook and arm it at the k-th
// step of an operation. When the armed step fires, the hook panics
// with a CrashPanic, leaving the store exactly as a kill -9 between
// those two steps would — mid-operation, locks held, journal intent
// durable, nothing cleaned up.
//
// Arming by (operation, k) rather than by step name is what makes the
// crash matrix exhaustive without hard-coding the step list: the
// harness loops k upward until an operation completes without
// crashing, which proves it visited every step.
type CrashPoint struct {
	mu    sync.Mutex
	op    string // step-name prefix, e.g. "put" arms "put.*"
	k     int    // crash on the k-th matching step (1-based); 0 = disarmed
	hits  int
	fired *CrashPanic // last crash raised, nil if none
}

// NewCrashPoint returns a disarmed injector.
func NewCrashPoint() *CrashPoint { return &CrashPoint{} }

// Arm sets the injector to crash at the k-th (1-based) step of op
// ("put", "delete", "rename", "copy", "mkcol"), resetting the hit
// counter and the fired record.
func (c *CrashPoint) Arm(op string, k int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.op, c.k = op, k
	c.hits = 0
	c.fired = nil
}

// Fired returns the crash raised since the last Arm, or nil.
func (c *CrashPoint) Fired() *CrashPanic {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// Hook is the store.FSOptions.StepHook to install.
func (c *CrashPoint) Hook(point string) {
	c.mu.Lock()
	if c.k <= 0 || !matchesOp(point, c.op) {
		c.mu.Unlock()
		return
	}
	c.hits++
	if c.hits != c.k {
		c.mu.Unlock()
		return
	}
	cp := CrashPanic{Point: point, Hit: c.hits}
	c.fired = &cp
	c.k = 0 // one crash per arming
	c.mu.Unlock()
	panic(cp)
}

// matchesOp reports whether a step point ("put.renamed") belongs to
// the armed operation ("put").
func matchesOp(point, op string) bool {
	return len(point) > len(op) && point[:len(op)] == op && point[len(op)] == '.'
}

// Run invokes f, converting a CrashPanic into a normal return value
// (true if a crash fired) and re-panicking on anything else.
func Run(f func()) (crashed bool, cp CrashPanic) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if cp, ok = r.(CrashPanic); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	f()
	return false, CrashPanic{}
}
