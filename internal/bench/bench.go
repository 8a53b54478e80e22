// Package bench is the experiment harness: wall-clock plus CPU-time
// measurement (the paper's Table 1 reports both, attributing
// elapsed−CPU to the server side), and a fixed-width table renderer
// that prints each experiment next to the paper's published numbers.
package bench

import (
	"fmt"
	"io"
	"strings"
	"syscall"
	"time"
)

// Timing is one measured operation.
type Timing struct {
	Elapsed time.Duration
	CPU     time.Duration // process CPU (user+system) consumed, client side
}

// cpuNow returns this process's cumulative user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	toDur := func(tv syscall.Timeval) time.Duration {
		return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
	}
	return toDur(ru.Utime) + toDur(ru.Stime)
}

// Measure runs fn once and reports its elapsed and CPU time.
//
// Note the caveat for in-process harnesses: when client and server
// share the process (loopback goroutines), CPU includes both sides;
// the paper's client/server split only holds when the server runs in
// a separate process (cmd/davd).
func Measure(fn func() error) (Timing, error) {
	cpu0 := cpuNow()
	start := time.Now()
	err := fn()
	elapsed := time.Since(start)
	cpu := cpuNow() - cpu0
	return Timing{Elapsed: elapsed, CPU: cpu}, err
}

// Seconds formats a duration the way the paper's tables do ("0.068 s").
func Seconds(d time.Duration) string {
	return fmt.Sprintf("%.3f s", d.Seconds())
}

// Millis formats a duration in milliseconds to the microsecond
// ("0.400 ms"), for cells a millisecond's resolution would round to 0.
func Millis(d time.Duration) string {
	return fmt.Sprintf("%.3f ms", float64(d)/float64(time.Millisecond))
}

// Table renders experiment results aligned with paper-reference rows.
type Table struct {
	Title   string
	Note    string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; short rows are padded.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	fmt.Fprintf(w, "\n%s\n%s\n", t.Title, strings.Repeat("=", max(len(t.Title), total)))
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	for i, c := range t.Columns {
		fmt.Fprintf(w, "%-*s", widths[i]+2, c)
		_ = i
	}
	fmt.Fprintln(w)
	for i := range t.Columns {
		fmt.Fprintf(w, "%-*s", widths[i]+2, strings.Repeat("-", widths[i]))
	}
	fmt.Fprintln(w)
	for _, row := range t.rows {
		for i, cell := range row {
			fmt.Fprintf(w, "%-*s", widths[i]+2, cell)
		}
		fmt.Fprintln(w)
	}
}

// Repeat runs fn n times and returns the fastest timing (the paper's
// single-shot numbers are best approximated by min-of-n, excluding
// warm-up noise). Use n=1 for strict single-shot.
func Repeat(n int, fn func() error) (Timing, error) {
	best := Timing{Elapsed: time.Duration(1<<63 - 1)}
	for i := 0; i < n; i++ {
		t, err := Measure(fn)
		if err != nil {
			return t, err
		}
		if t.Elapsed < best.Elapsed {
			best = t
		}
	}
	return best, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
