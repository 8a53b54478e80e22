// Command eccebench regenerates every table and experiment in the
// paper's evaluation, printing measured numbers next to the published
// ones.
//
// Usage:
//
//	eccebench [flags] <table1|table2|table3|robust|disk|chaos|ablation|smoke|all>
//
// By default the paper's full workload sizes are used for table1 and
// table3; table2, robust and disk default to scaled sizes unless -full
// is given (the full sizes move hundreds of megabytes).
//
// With -metrics, telemetry is enabled on every in-process server and
// client, and a Prometheus-format snapshot of the accumulated registry
// is printed after each experiment. The smoke command runs a tiny
// instrumented workload and validates the exposition — CI uses it to
// guarantee the telemetry path stays alive.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// The experiments, in the order "all" runs them and EXPERIMENTS.md
// reports them.
var paperOrder = []string{"table1", "table2", "table3", "robust", "disk", "chaos", "ablation"}

const usage = "usage: eccebench [flags] <table1|table2|table3|robust|disk|chaos|ablation|smoke|all>"

func main() {
	var (
		full        = flag.Bool("full", false, "use the paper's full sizes everywhere (slow: moves 100s of MB)")
		docs        = flag.Int("docs", 50, "table1: number of documents")
		props       = flag.Int("props", 50, "table1: properties per document")
		size        = flag.Int("propsize", 1024, "table1: property value bytes")
		calcs       = flag.Int("calcs", 64, "disk: calculations to migrate (paper: 259)")
		withMetrics = flag.Bool("metrics", false,
			"instrument servers/clients and print a Prometheus metrics snapshot after each experiment")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}

	commands := map[string]func() error{
		"table1": func() error {
			res, err := experiments.RunTable1(experiments.Table1Options{
				Docs: *docs, Props: *props, ValueBytes: *size,
			})
			if err != nil {
				return err
			}
			res.Table().Fprint(os.Stdout)
			return nil
		},
		"table2": func() error {
			sizes := []int{20}
			if *full {
				sizes = []int{20, 200}
			}
			res, err := experiments.RunTable2(experiments.Table2Options{SizesMB: sizes})
			if err != nil {
				return err
			}
			res.Table().Fprint(os.Stdout)
			return nil
		},
		"table3": func() error {
			res, err := experiments.RunTable3(experiments.DefaultTable3Options())
			if err != nil {
				return err
			}
			for _, t := range res.Tables() {
				t.Fprint(os.Stdout)
			}
			return nil
		},
		"robust": func() error {
			opts := experiments.RobustOptions{PropMB: 16, DocMB: 32, Repeats: 3}
			if *full {
				opts = experiments.DefaultRobustOptions() // 100 MB props, 200 MB docs
			}
			res, err := experiments.RunRobust(opts)
			if err != nil {
				return err
			}
			res.Table().Fprint(os.Stdout)
			if !res.Passed() {
				return fmt.Errorf("robustness checks failed")
			}
			return nil
		},
		"disk": func() error {
			opts := experiments.DefaultDiskOptions()
			opts.Calculations = *calcs
			if *full {
				opts.Calculations = 259 // the paper's corpus size
			}
			res, err := experiments.RunDisk(opts)
			if err != nil {
				return err
			}
			res.Table().Fprint(os.Stdout)
			return nil
		},
		"chaos": func() error {
			res, err := experiments.RunChaos(experiments.DefaultChaosOptions())
			if err != nil {
				return err
			}
			res.Table().Fprint(os.Stdout)
			if !res.Passed() {
				return fmt.Errorf("chaos workload leaked errors through the retry layer")
			}
			return nil
		},
		"ablation": runAblations,
		// smoke is the CI guard for the telemetry path: it checks its own
		// exposition, so it is not part of "all" and prints no snapshot.
		"smoke": runSmoke,
	}

	which := flag.Arg(0)
	selected := []string{which}
	if which == "all" {
		selected = paperOrder
	} else if commands[which] == nil {
		fmt.Fprintf(os.Stderr, "eccebench: unknown experiment %q\n%s\n", which, usage)
		os.Exit(2)
	}
	if *withMetrics {
		experiments.EnableMetrics()
	}
	for _, name := range selected {
		if err := commands[name](); err != nil {
			log.Fatalf("eccebench %s: %v", name, err)
		}
		if *withMetrics && name != "smoke" {
			fmt.Printf("\n--- metrics after %s ---\n", name)
			if err := experiments.EnableMetrics().Registry.WritePrometheus(os.Stdout); err != nil {
				log.Fatalf("eccebench %s: metrics snapshot: %v", name, err)
			}
		}
	}
}

// runSmoke drives a minimal Table 1 workload with telemetry enabled and
// validates the metrics exposition end to end.
func runSmoke() error {
	m := experiments.EnableMetrics()
	if _, err := experiments.RunTable1(experiments.Table1Options{
		Docs: 3, Props: 3, ValueBytes: 64,
	}); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := m.Registry.WritePrometheus(&buf); err != nil {
		return err
	}
	if err := obs.CheckExposition(buf.Bytes()); err != nil {
		return fmt.Errorf("exposition invalid: %w", err)
	}
	out := buf.String()
	for _, want := range []string{
		"dav_requests_total",
		"dav_store_op_duration_seconds",
		"davclient_requests_total",
	} {
		if !strings.Contains(out, want) {
			return fmt.Errorf("exposition missing %s", want)
		}
	}
	if n := strings.Count(out, "dav_request_duration_seconds_bucket"); n < 8 {
		return fmt.Errorf("latency histogram has %d bucket samples, want >= 8", n)
	}
	fmt.Printf("smoke: metrics exposition OK (%d bytes, %d series lines)\n",
		buf.Len(), strings.Count(out, "\n"))
	return nil
}

// runAblations measures the design-choice axes the paper discusses:
// DOM vs SAX parsing, persistent vs per-request connections.
func runAblations() error {
	t := bench.NewTable("Ablations: Table 1(c) bulk PROPFIND under design variants",
		"variant", "elapsed", "cpu")
	t.Note = "50 objects x 5 of 50 properties, depth=1; the paper predicts SAX removes most client-side cost"
	variants := []struct {
		label string
		opts  experiments.Table1Options
	}{
		{"DOM, reconnect per request (paper config)", experiments.Table1Options{}},
		{"DOM, persistent connections", experiments.Table1Options{Persistent: true}},
		{"SAX, reconnect per request", experiments.Table1Options{SAX: true}},
		{"SAX, persistent connections", experiments.Table1Options{SAX: true, Persistent: true}},
	}
	for _, v := range variants {
		opts := v.opts
		opts.Docs, opts.Props, opts.ValueBytes = 50, 50, 1024
		res, err := experiments.RunTable1(opts)
		if err != nil {
			return err
		}
		// Row 2 is the depth=1 bulk query (Table 1c).
		row := res.Rows[2]
		t.AddRow(v.label, bench.Seconds(row.Timing.Elapsed), bench.Seconds(row.Timing.CPU))
	}
	t.Fprint(os.Stdout)

	t2, err := experiments.RunSearchAblation()
	if err != nil {
		return err
	}
	t2.Fprint(os.Stdout)
	return nil
}
