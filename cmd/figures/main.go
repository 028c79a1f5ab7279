// Command figures regenerates every table and figure of the paper's
// evaluation (Tables II–III, Figures 2–8, and the Section V-E trie
// calibration) and prints them as aligned tables or CSV. The Fig. 5–8
// sweeps fan out over a bounded worker pool; -j sizes it.
//
// Usage:
//
//	figures [-exp all|NAME] [-grade both|-2|-1L] [-csv] [-outdir DIR] [-j N] [-stats]
//
// NAME is one of the rows below (figures -h lists them).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"vrpower/internal/experiments"
	"vrpower/internal/fpga"
	"vrpower/internal/obs"
	"vrpower/internal/report"
	"vrpower/internal/sweep"
)

// emitter renders experiment output. The experiment name reaches emit as an
// argument instead of through shared mutable state, and the -outdir naming
// map is mutex-guarded, so concurrently running experiments cannot misfile
// each other's CSVs.
type emitter struct {
	w      io.Writer
	csv    bool
	outdir string

	mu      sync.Mutex
	written map[string]int
}

// emit prints one experiment table and, with -outdir, writes its CSV. A
// second table from the same experiment (e.g. fig4's two panels) gets a
// _1, _2, ... suffix.
func (em *emitter) emit(name string, t *report.Table) error {
	em.mu.Lock()
	defer em.mu.Unlock()
	if em.csv {
		fmt.Fprint(em.w, t.CSV())
	} else {
		fmt.Fprintln(em.w, t.String())
	}
	if em.outdir == "" {
		return nil
	}
	file := name
	if n := em.written[name]; n > 0 {
		file = fmt.Sprintf("%s_%d", name, n)
	}
	em.written[name]++
	return os.WriteFile(filepath.Join(em.outdir, file+".csv"), []byte(t.CSV()), 0o644)
}

// emitFn emits tables for one named experiment.
type emitFn func(*report.Table) error

// tableExp adapts a table-producing experiment to a row.
func tableExp(gen func() (*report.Table, error)) func(emitFn) error {
	return func(emit emitFn) error {
		t, err := gen()
		if err != nil {
			return err
		}
		return emit(t)
	}
}

// figExp adapts a figure-producing experiment to a row.
func figExp(gen func() (*report.Figure, error)) func(emitFn) error {
	return func(emit emitFn) error {
		f, err := gen()
		if err != nil {
			return err
		}
		return emit(f.Table())
	}
}

// perGrade adapts a per-speed-grade figure sweep to a row.
func perGrade(grades []fpga.SpeedGrade, gen func(fpga.SpeedGrade) (*report.Figure, error)) func(emitFn) error {
	return func(emit emitFn) error {
		for _, g := range grades {
			f, err := gen(g)
			if err != nil {
				return err
			}
			if err := emit(f.Table()); err != nil {
				return err
			}
		}
		return nil
	}
}

// options collects the parsed flags.
type options struct {
	exp      string
	grades   []fpga.SpeedGrade
	csv      bool
	outdir   string
	jobs     int
	stats    bool
	httpAddr string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command over its arguments and streams: 0 when every
// requested experiment printed, 1 when one failed, 2 on a flag the command
// does not have or a value a flag cannot take (an unknown -exp or -grade).
func run(args []string, stdout, stderr io.Writer) int {
	o := options{exp: "all", grades: fpga.Grades()}
	all := names(rows(nil))
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Func("exp", "`experiment` to regenerate: all (the default), "+strings.Join(all, ", "), func(s string) error {
		if s != "all" && !slices.Contains(all, s) {
			return fmt.Errorf("want all, %s", strings.Join(all, ", "))
		}
		o.exp = s
		return nil
	})
	fs.Func("grade", "speed `grade` for fig5-fig8: both (the default), -2 or -1L", func(s string) (err error) {
		o.grades, err = parseGrades(s)
		return err
	})
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.StringVar(&o.outdir, "outdir", "", "also write each experiment's CSV into this directory")
	fs.IntVar(&o.jobs, "j", 0, "sweep worker-pool size (0 = GOMAXPROCS); output is byte-identical at any value")
	fs.BoolVar(&o.stats, "stats", false, "print run instrumentation to stderr on exit")
	fs.StringVar(&o.httpAddr, "http", "", "serve live /metrics and /debug/pprof/ on this address while experiments run (e.g. :9090)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := o.regenerate(stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "figures:", err)
		return 1
	}
	return 0
}

// regenerate runs the experiment rows -exp names (every row for "all") in
// order, printing each table to stdout.
func (o *options) regenerate(stdout, stderr io.Writer) error {
	sweep.SetWorkers(o.jobs)
	if o.httpAddr != "" {
		// Live exposition for long regenerations: Prometheus counters and
		// pprof profiling of the sweep workers. Shut down on exit so repeated
		// smoke runs reuse the port cleanly.
		srv, err := obs.Serve(o.httpAddr, obs.TelemetryMux(nil, nil, nil))
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "figures: telemetry at http://%s/\n", srv.Addr())
		defer func() { _ = srv.Shutdown(5 * time.Second) }()
	}
	// Scope -stats to the experiments actually run: the process-wide metric
	// registry may already hold counts from package init or earlier runs.
	// Stderr keeps it out of piped CSV output.
	snap := obs.TakeSnapshot()
	if o.stats {
		defer func() { fmt.Fprint(stderr, obs.ReportSince(snap)) }()
	}
	if o.outdir != "" {
		if err := os.MkdirAll(o.outdir, 0o755); err != nil {
			return err
		}
	}
	em := &emitter{w: stdout, csv: o.csv, outdir: o.outdir, written: map[string]int{}}
	for _, r := range rows(o.grades) {
		if o.exp != "all" && o.exp != r.name {
			continue
		}
		if err := r.fn(func(t *report.Table) error { return em.emit(r.name, t) }); err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
	}
	return nil
}

// row is one experiment: its -exp name and what regenerates it.
type row struct {
	name string
	fn   func(emitFn) error
}

// names lists the rows' -exp names in order.
func names(rs []row) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.name
	}
	return out
}

// rows lists every experiment once, in the order -exp all prints them.
func rows(grades []fpga.SpeedGrade) []row {
	return []row{
		{"tableII", func(emit emitFn) error { return emit(experiments.TableII()) }},
		{"tableIII", func(emit emitFn) error { return emit(experiments.TableIII()) }},
		{"triecal", tableExp(experiments.TrieCalibration)},
		{"fig2", func(emit emitFn) error { return emit(experiments.Fig2().Table()) }},
		{"fig3", func(emit emitFn) error { return emit(experiments.Fig3().Table()) }},
		{"fig4", func(emit emitFn) error {
			ptr, nhi, err := experiments.Fig4()
			if err != nil {
				return err
			}
			if err := emit(ptr.Table()); err != nil {
				return err
			}
			return emit(nhi.Table())
		}},
		{"fig5", perGrade(grades, experiments.Fig5)},
		{"fig6", perGrade(grades, experiments.Fig6)},
		{"fig7", perGrade(grades, experiments.Fig7)},
		{"fig8", perGrade(grades, experiments.Fig8)},
		{"updates", tableExp(experiments.UpdateCost)},
		{"devicefit", tableExp(experiments.DeviceFit)},
		{"braiding", tableExp(experiments.BraidingComparison)},
		{"loadsweep", figExp(experiments.LoadSweep)},
		{"ortc", tableExp(experiments.CompactionEffect)},
		{"calspread", tableExp(experiments.CalibrationSpread)},
		{"grouped", tableExp(experiments.GroupedMerge)},
	}
}

func parseGrades(s string) ([]fpga.SpeedGrade, error) {
	switch s {
	case "both":
		return fpga.Grades(), nil
	case "-2":
		return []fpga.SpeedGrade{fpga.Grade2}, nil
	case "-1L":
		return []fpga.SpeedGrade{fpga.Grade1L}, nil
	}
	return nil, fmt.Errorf("want both, -2 or -1L")
}
