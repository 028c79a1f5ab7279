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
// commit and its host — CPUs, CPU model, Go version — and holds a detail
// object for every workload BENCHMARK.json declares. There is at least one.
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
				EndToEnd map[string]any `json:"end_to_end"`
			}
		}
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &rec); err != nil {
			t.Fatalf("%s: %v", p, err)
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
