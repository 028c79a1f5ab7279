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
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
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
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.String())
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

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	exp := flag.String("exp", "all", "experiment to regenerate: all, "+strings.Join(names(rows(nil)), ", "))
	gradeFlag := flag.String("grade", "both", "speed grade for fig5-fig8: both, -2 or -1L")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	outdir := flag.String("outdir", "", "also write each experiment's CSV into this directory")
	jobs := flag.Int("j", 0, "sweep worker-pool size (0 = GOMAXPROCS); output is byte-identical at any value")
	stats := flag.Bool("stats", false, "print run instrumentation to stderr on exit")
	httpAddr := flag.String("http", "", "serve live /metrics and /debug/pprof/ on this address while experiments run (e.g. :9090)")
	flag.Parse()

	sweep.SetWorkers(*jobs)
	if *httpAddr != "" {
		// Live exposition for long regenerations: Prometheus counters and
		// pprof profiling of the sweep workers. Shut down on exit so repeated
		// smoke runs reuse the port cleanly.
		srv, err := obs.Serve(*httpAddr, obs.TelemetryMux(nil, nil, nil))
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("telemetry at http://%s/", srv.Addr())
		defer func() { _ = srv.Shutdown(5 * time.Second) }()
	}
	// Scope -stats to the experiments actually run: the process-wide metric
	// registry may already hold counts from package init or earlier runs.
	snap := obs.TakeSnapshot()
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	em := &emitter{csv: *csv, outdir: *outdir, written: map[string]int{}}

	grades, err := parseGrades(*gradeFlag)
	if err != nil {
		log.Fatal(err)
	}

	exps := rows(grades)
	ran := false
	for _, r := range exps {
		if *exp != "all" && *exp != r.name {
			continue
		}
		ran = true
		if err := r.fn(func(t *report.Table) error { return em.emit(r.name, t) }); err != nil {
			log.Fatalf("%s: %v", r.name, err)
		}
	}
	if !ran {
		log.Printf("unknown experiment %q; available: all %v", *exp, names(exps))
		os.Exit(2)
	}
	finish(*stats, snap)
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

// finish prints the instrumentation recorded since the start-of-run snapshot
// when -stats is set. Stderr keeps it out of piped CSV output.
func finish(stats bool, since obs.Snapshot) {
	if stats {
		fmt.Fprint(os.Stderr, obs.ReportSince(since))
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
	return nil, fmt.Errorf(`grade %q: want "both", "-2" or "-1L"`, s)
}
