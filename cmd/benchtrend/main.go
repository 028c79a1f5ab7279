// benchtrend keeps the benchmark's trajectory: one BENCH_<pr>.json per change
// at the repository root, and one table over all of them.
//
//	benchtrend                          print every ./BENCH_*.json as rows
//	benchtrend record PR COMMIT [PAIRS] write ./BENCH_<PR>.json
//
// record keeps each workload's `detail` line of the bench/run.sh output on
// stdin as it is, with the commit, the date and the host's fingerprint (CPUs,
// CPU model, Go version); PAIRS, a saved `make pair-diff` output, adds every
// pair-diff run in it — each metric's per-seed base and tree values and the
// two medians, a second run of a workload beside the first. The table has
// one row per PR, workload and metric, the fingerprint on every row, so numbers from two hosts are never compared
// unawares; it reads only the files, so it prints the same bytes every time.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type record struct {
	PR     int    `json:"pr"`
	Commit string `json:"commit"`
	Date   string `json:"date"`
	Host   struct {
		NProc int    `json:"nproc"`
		CPU   string `json:"cpu"`
		Go    string `json:"go"`
	} `json:"host"`
	Workloads map[string]json.RawMessage `json:"workloads"`
	// Pairs[workload] is every make pair-diff run of the workload, in the
	// order PAIRS holds them: per metric, its pairs and medians.
	Pairs map[string][]map[string]*pairs `json:"pair_diff,omitempty"`
	// Medians[workload][metric] is one pair-diff run's base and tree medians,
	// kept so before the pairs were (BENCH_45.json); it prints as run 1.
	Medians map[string]map[string][2]float64 `json:"pair_diff_medians,omitempty"`
}

// pairs is one metric of one pair-diff run.
type pairs struct {
	Pairs   [][3]float64 `json:"pairs"`   // seed, base, tree
	Medians [2]float64   `json:"medians"` // base, tree
}

type metrics map[string]struct {
	Value float64
	Unit  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	var err error
	switch {
	case len(args) == 0:
		err = trend(stdout)
	case args[0] == "record" && (len(args) == 3 || len(args) == 4):
		err = write(args[1:], stdin)
	default:
		fmt.Fprintln(stderr, "usage: benchtrend [record PR COMMIT [PAIRS]]")
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchtrend: %v\n", err)
		return 1
	}
	return 0
}

func write(args []string, stdin io.Reader) error {
	r := record{Commit: args[1], Date: time.Now().UTC().Format(time.RFC3339), Workloads: map[string]json.RawMessage{}}
	var err error
	if r.PR, err = strconv.Atoi(args[0]); err != nil || r.PR <= 0 {
		return fmt.Errorf("PR %q is not a positive number", args[0])
	}
	r.Host.NProc, r.Host.Go = runtime.NumCPU(), runtime.Version()
	info, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, _ := strings.Cut(line, ":"); strings.TrimSpace(k) == "model name" && r.Host.CPU == "" {
			r.Host.CPU = strings.TrimSpace(v)
		}
	}
	sc := bufio.NewScanner(stdin)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if d, ok := strings.CutPrefix(sc.Text(), "detail "); ok {
			var w struct{ Workload string }
			if err := json.Unmarshal([]byte(d), &w); err != nil {
				return fmt.Errorf("detail line: %v", err)
			}
			r.Workloads[w.Workload] = json.RawMessage(d)
		}
	}
	if len(r.Workloads) == 0 {
		return fmt.Errorf("no detail line on stdin")
	}
	if len(args) == 3 {
		b, err := os.ReadFile(args[2])
		if err != nil {
			return err
		}
		// "workload W:" opens a run of a workload, "M (… is better)" a
		// metric, its "seed base now ratio" rows give the pairs and its
		// "base median V" and "now median V" lines the medians.
		r.Pairs = map[string][]map[string]*pairs{}
		var run map[string]*pairs
		var p *pairs
		for _, line := range strings.Split(string(b), "\n") {
			f := strings.Fields(line)
			var err error
			switch {
			case len(f) > 1 && f[0] == "workload":
				w := strings.TrimSuffix(f[1], ":")
				run, p = map[string]*pairs{}, nil
				r.Pairs[w] = append(r.Pairs[w], run)
			case run != nil && strings.HasSuffix(line, "is better)"):
				p = &pairs{}
				run[f[0]] = p
			case p != nil && len(f) == 4 && f[0] != "seed":
				var x [3]float64
				for i := 0; i < 3 && err == nil; i++ {
					x[i], err = strconv.ParseFloat(f[i], 64)
				}
				p.Pairs = append(p.Pairs, x)
			case p != nil && len(f) > 2 && f[1] == "median" && (f[0] == "base" || f[0] == "now"):
				i := 0
				if f[0] == "now" {
					i = 1
				}
				p.Medians[i], err = strconv.ParseFloat(f[2], 64)
			}
			if err != nil {
				return fmt.Errorf("%s: %q: %v", args[2], line, err)
			}
		}
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(fmt.Sprintf("BENCH_%d.json", r.PR), append(b, '\n'), 0o644)
}

// trend prints the rows: PRs in order, then workloads and, within each, the
// end-to-end metrics, the per-layer ones and the pair-diff ratios by name.
func trend(w io.Writer) error {
	paths, _ := filepath.Glob("BENCH_*.json")
	recs := make([]record, len(paths))
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err == nil {
			dec := json.NewDecoder(bytes.NewReader(b))
			dec.DisallowUnknownFields() // a key not read here would drop its rows unseen
			err = dec.Decode(&recs[i])
		}
		if err != nil {
			return fmt.Errorf("%s: %v", p, err)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].PR < recs[j].PR })
	fmt.Fprintf(w, "%-4s %-15s %-36s %14s %-7s %s\n", "pr", "workload", "metric", "value", "unit", "host")
	for _, r := range recs {
		row := func(wl, m string, v float64, unit string) {
			fmt.Fprintf(w, "%-4d %-15s %-36s %14.6g %-7s nproc=%d %s %s\n", r.PR, wl, m, v, unit, r.Host.NProc, r.Host.Go, r.Host.CPU)
		}
		for _, wl := range sorted(r.Workloads) {
			var d struct {
				EndToEnd metrics `json:"end_to_end"`
				PerLayer metrics `json:"per_layer"`
			}
			if err := json.Unmarshal(r.Workloads[wl], &d); err != nil {
				return fmt.Errorf("BENCH_%d.json %s: %v", r.PR, wl, err)
			}
			for _, set := range []metrics{d.EndToEnd, d.PerLayer} {
				for _, m := range sorted(set) {
					row(wl, m, set[m].Value, set[m].Unit)
				}
			}
			for _, m := range sorted(r.Medians[wl]) {
				if p := r.Medians[wl][m]; p[0] != 0 {
					row(wl, "pair-diff 1 (medians) "+m+" now/base", p[1]/p[0], "ratio")
				}
			}
			for i, run := range r.Pairs[wl] {
				for _, m := range sorted(run) {
					if p := run[m].Medians; p[0] != 0 {
						row(wl, fmt.Sprintf("pair-diff %d %s now/base", i+1, m), p[1]/p[0], "ratio")
					}
				}
			}
		}
	}
	return nil
}

func sorted[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
