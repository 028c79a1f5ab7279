package vrpower_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchTrajectoryFiles parses every BENCH_*.json at the root (make
// bench-record writes them, make bench-trend reads them): each names its
// commit and its host — CPUs, CPU model, Go version — holds a detail object
// for every workload BENCHMARK.json declares and at least one pair-diff
// median that bench-trend prints a row for, gives every host metric (a
// detail metric in time, rate or bytes; a pair run; a bench-gate row) the
// runs it stands on, and has no top-level key that bench-trend does not
// read. There is at least one.
func TestBenchTrajectoryFiles(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string }
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	paths, _ := filepath.Glob("BENCH_*.json")
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json at the root")
	}
	for _, p := range paths {
		var rec struct {
			PR     int
			Commit string
			Date   string
			Host   struct {
				NProc   int
				CPU, Go string
			}
			Workloads map[string]struct {
				Workload string
				EndToEnd map[string]hostMetric `json:"end_to_end"`
				PerLayer map[string]hostMetric `json:"per_layer"`
			}
			Pairs    map[string][]map[string]struct{ Medians [2]float64 } `json:"pair_diff"`
			Medians  map[string]map[string][2]float64                     `json:"pair_diff_medians"`
			MediansN map[string]int                                       `json:"pair_diff_medians_n"`
			Ratios   map[string][]map[string]struct{ N int }              `json:"pair_diff_ratios"`
			Gate     map[string]struct{ N int }                           `json:"bench_gate"`
		}
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &rec); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(b, &keys); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for k := range keys {
			switch k {
			case "pr", "commit", "date", "host", "workloads", "pair_diff", "pair_diff_medians", "pair_diff_medians_n", "pair_diff_ratios", "bench_gate":
			default:
				t.Errorf("%s: top-level key %q, which bench-trend does not read", p, k)
			}
		}
		rows := 0 // bench-trend prints a pair row where the base median is not 0
		for _, runs := range rec.Pairs {
			for _, run := range runs {
				for _, m := range run {
					if m.Medians[0] != 0 {
						rows++
					}
				}
			}
		}
		for w, run := range rec.Medians {
			for _, m := range run {
				if m[0] != 0 {
					rows++
				}
			}
			if rec.MediansN[w] <= 0 {
				t.Errorf("%s: %s's pair-diff medians without their pair count", p, w)
			}
		}
		for w, runs := range rec.Ratios {
			for _, run := range runs {
				for m, r := range run {
					if r.N <= 0 {
						t.Errorf("%s: %s's pair-diff ratio of %s without its pair count", p, w, m)
					}
				}
			}
		}
		for b, g := range rec.Gate {
			if g.N <= 0 {
				t.Errorf("%s: bench-gate row %s without its pair count", p, b)
			}
		}
		for w, d := range rec.Workloads {
			for _, set := range []map[string]hostMetric{d.EndToEnd, d.PerLayer} {
				for m, v := range set {
					if hostUnits[v.Unit] && v.N <= 0 {
						t.Errorf("%s: %s's host metric %s (%s) without its rep count", p, w, m, v.Unit)
					}
				}
			}
		}
		if rows == 0 {
			t.Errorf("%s: no pair-diff median for bench-trend to print", p)
		}
		if rec.PR <= 0 || p != fmt.Sprintf("BENCH_%d.json", rec.PR) {
			t.Errorf("%s: pr %d does not name the file", p, rec.PR)
		}
		if rec.Commit == "" || rec.Date == "" {
			t.Errorf("%s: commit %q, date %q", p, rec.Commit, rec.Date)
		}
		if rec.Host.NProc <= 0 || rec.Host.CPU == "" || rec.Host.Go == "" {
			t.Errorf("%s: host fingerprint %+v is missing a part", p, rec.Host)
		}
		for _, w := range spec.Workloads {
			d, ok := rec.Workloads[w.Name]
			if !ok || d.Workload != w.Name || len(d.EndToEnd) == 0 {
				t.Errorf("%s: no detail object for workload %s", p, w.Name)
			}
		}
	}
}

// hostMetric is a detail metric's unit and the reps it stands on.
type hostMetric struct {
	Unit string
	N    int
}

// hostUnits are the units of the metrics the host measures, as bench-trend
// reads them: time, rates and bytes.
var hostUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true, "1/s": true, "MiB": true}
