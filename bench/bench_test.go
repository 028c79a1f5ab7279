package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"vrpower/internal/sweep"
)

// testScale shrinks every workload's run length so the whole suite takes
// seconds; K, schemes, table sizes and spec shapes stay as benchmarked.
const testScale = 32

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type manifestFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func readManifest(t *testing.T) manifestFile {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, manifest))
	if err != nil {
		t.Fatal(err)
	}
	var m manifestFile
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesHarness: the names, units, directions and bounds the
// harness emits are exactly those BENCHMARK.json declares.
func TestManifestMatchesHarness(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if n := len(m.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in %s, %d in the harness, want equal and within 2..8", n, manifest, len(workloads))
	}
	for i, w := range m.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s says %q, harness %q", i, manifest, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}

	check := func(kind string, got []manifestMetric, want []metricDef, max int, bounded bool) {
		t.Helper()
		if len(got) != len(want) || len(got) > max {
			t.Fatalf("%s: %d metrics in %s, %d in the harness, want equal and at most %d", kind, len(got), manifest, len(want), max)
		}
		for i, g := range got {
			unique(g.Name)
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: %s says %+v, harness {%s %s %s}", kind, i, manifest, g, w.name, w.unit, w.better)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, g.Name)
			case bounded && (g.Bound == nil || *g.Bound != w.bound || *g.Bound > 0.25):
				t.Errorf("%s %s: bound %v, harness %v, want equal and at most 0.25", kind, g.Name, g.Bound, w.bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, 16, true)
	check("per_layer", m.PerLayer, perLayer, 128, false)
	if !seen["setup_s"] {
		t.Errorf("no setup_s metric")
	}
}

// TestWorkloadsSmallScale runs every workload once at 1/32 of its run length
// with every check on, again at one sweep worker (the digests must match),
// and then the layer probes, whose metric names must all be declared.
func TestWorkloadsSmallScale(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.name] = true
	}
	for _, full := range workloads {
		w := full.shrunk(testScale)
		t.Run(w.name, func(t *testing.T) {
			sweep.SetWorkers(workerCount())
			tr := newTracer(w.name, 0)
			rep := runRep(w, 1, tr)
			if rep.fail != "" {
				t.Fatalf("rep failed: %s", rep.fail)
			}
			if c := tr.covered("bench.rep"); c < minCoverage {
				t.Errorf("child spans cover %.3f of bench.rep, want >= %.2f", c, minCoverage)
			}
			sweep.SetWorkers(1)
			j1 := runRep(w, 1, nil)
			sweep.SetWorkers(workerCount())
			if j1.fail != "" || j1.digest != rep.digest {
				t.Errorf("-j1 rep: fail %q, digest %s, want %s", j1.fail, j1.digest, rep.digest)
			}

			e2e := endToEndValues([]repOut{rep}, 1)
			for _, d := range endToEnd {
				if v := e2e[d.name].Value; !(v > 0) {
					t.Errorf("end-to-end %s = %v, want > 0 on every workload", d.name, v)
				}
			}
			probes, err := runProbes(w, 1, tr)
			if err != nil {
				t.Fatal(err)
			}
			for name := range perLayerValues(rep, probes) {
				if !declared[name] {
					t.Errorf("harness emits per-layer metric %q that %s does not declare", name, manifest)
				}
			}
		})
	}
}
