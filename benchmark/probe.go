package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// This sandbox's CPUs do not run at one speed. With nothing else going
// on, a pure compute loop takes 20.0, 21.8 or 23–25 µs depending on the
// minute (host frequency and sibling-thread contention; /proc/stat
// shows no steal), and every timing of davd moves with it: the same
// commit gave calc_browse 302–371 ops/s over ten back-to-back runs.
// A speedProbe measures that state from outside the system under test
// so that it can be divided out of the reported times.

// referenceKernelUs is what one probe kernel costs on the build machine
// in its usual state. It only fixes the unit: on another machine every
// normalised time is off by one constant factor, which a comparison of
// two commits on that machine does not see.
const referenceKernelUs = 21.8

const clockThreadCPU = 3 // CLOCK_THREAD_CPUTIME_ID

// threadCPU is the CPU time the calling thread has consumed. Unlike
// wall time it does not count being preempted by davd, with which the
// server-side probe shares its CPUs.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// speedProbe runs a fixed, allocation-free compute kernel (FNV-1a over
// 32 KiB, twice — all in L1) every 20 ms on its own thread pinned to
// one CPU set and records the thread CPU time each run took. At about
// 22 µs per 20 ms it costs that CPU set 0.1 %.
type speedProbe struct {
	stop, done chan struct{}

	mu      sync.Mutex
	at      []time.Time
	kernels []float64 // µs
}

func startSpeedProbe(set cpuSet, pinned bool) *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		// The thread is never unlocked, so it dies with this goroutine
		// and its affinity cannot leak to other goroutines.
		runtime.LockOSThread()
		if pinned {
			if err := setAffinity(0, set); err != nil {
				return
			}
		}
		buf := make([]byte, 32<<10)
		for i := range buf {
			buf[i] = byte(i * 7)
		}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		var sink uint64
		for {
			select {
			case <-p.stop:
				_ = sink
				return
			case now := <-tick.C:
				t0 := threadCPU()
				h := uint64(14695981039346656037)
				for r := 0; r < 2; r++ {
					for _, b := range buf {
						h = (h ^ uint64(b)) * 1099511628211
					}
				}
				us := float64(threadCPU()-t0) / 1e3
				sink += h
				p.mu.Lock()
				p.at, p.kernels = append(p.at, now), append(p.kernels, us)
				p.mu.Unlock()
			}
		}
	}()
	return p
}

func (p *speedProbe) close() {
	close(p.stop)
	<-p.done
}

// speed is the CPU set's speed between from and to relative to the
// reference: the reference kernel time over the median observed one.
// Too few samples to tell (a sub-100 ms interval) reads as 1.
func (p *speedProbe) speed(from, to time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var in []float64
	for i, t := range p.at {
		if !t.Before(from) && !t.After(to) {
			in = append(in, p.kernels[i])
		}
	}
	if len(in) < 5 {
		return 1
	}
	return referenceKernelUs / median(in)
}

// machine is the pair of probes an end-to-end run keeps going.
type machine struct{ server, client *speedProbe }

func startMachine(cfg config) machine {
	return machine{startSpeedProbe(cfg.server, cfg.pinned), startSpeedProbe(cfg.client, cfg.pinned)}
}

func (m machine) close() {
	m.server.close()
	m.client.close()
}

// speeds returns both sets' speed over an interval and their geometric
// mean, which is what wall-clock times — part client work, part server
// work — are normalised by.
func (m machine) speeds(from, to time.Time) (server, client, both float64) {
	server, client = m.server.speed(from, to), m.client.speed(from, to)
	return server, client, math.Sqrt(server * client)
}
