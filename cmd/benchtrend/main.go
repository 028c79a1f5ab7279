// benchtrend keeps the benchmark's trajectory: one BENCH_<pr>.json per change
// at the repository root, and one table over all of them.
//
//	benchtrend                                 print every ./BENCH_*.json as rows
//	benchtrend record PR COMMIT [PAIRS [GATE]] write ./BENCH_<PR>.json
//
// record keeps each workload's `detail` line of the bench/run.sh output on
// stdin as it is, with the commit, the date and the host's fingerprint (CPUs,
// CPU model, Go version); PAIRS, a saved `make pair-diff` output, adds every
// pair-diff run in it — each metric's per-seed base and tree values and the
// two medians, a second run of a workload beside the first; GATE, a saved
// `make bench-gate` report, adds each benchmark's per-side ns/op medians and
// its pair count. The table has one row per PR, workload and metric, the
// gate's rows under the workload "bench-gate", the fingerprint on every row,
// so numbers from two hosts are never compared unawares; a host metric's
// row gives the pairs or reps it stands on and marks fewer than five. It
// reads only the files, so it prints the same bytes every time.
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
	// kept so before the pairs were (BENCH_45.json); it prints as run 1, over
	// MediansN[workload] pairs.
	Medians  map[string]map[string][2]float64 `json:"pair_diff_medians,omitempty"`
	MediansN map[string]int                   `json:"pair_diff_medians_n,omitempty"`
	// Ratios[workload] is every pair-diff run recorded only as ratios (from
	// EXPERIMENTS.md); they print after the runs above.
	Ratios map[string][]map[string]ratio `json:"pair_diff_ratios,omitempty"`
	// Gate[benchmark] is one `make bench-gate` row: the ns/op medians of
	// each side (0 at BASE for a benchmark new in the tree) and the reps a
	// side.
	Gate map[string]gateRow `json:"bench_gate,omitempty"`
}

// ratio is one metric of a pair-diff run kept as its ratio of medians.
type ratio struct {
	Ratio float64 `json:"ratio"` // tree median over base median
	Won   int     `json:"won"`   // pairs the tree won
	N     int     `json:"n"`     // pairs
}

// gateRow is one benchmark of a bench-gate report.
type gateRow struct {
	BaseNs float64 `json:"base_ns"`
	NowNs  float64 `json:"now_ns"`
	N      int     `json:"n"`
}

// pairs is one metric of one pair-diff run.
type pairs struct {
	Pairs   [][3]float64 `json:"pairs"`   // seed, base, tree
	Medians [2]float64   `json:"medians"` // base, tree
}

type metrics map[string]struct {
	Value float64
	Unit  string
	N     int
}

// hostUnits are the units of metrics the host measures: time, rates and
// bytes. A row of one gives the runs it stands on.
var hostUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true, "1/s": true, "MiB": true}

// hostPairMetrics are the pair-diff metrics the host measures (the first
// five of the Makefile's PAIR_METRICS); the rest are simulated.
var hostPairMetrics = map[string]bool{"lookups_per_s": true, "wall_s": true, "setup_s": true, "alloc_mb": true, "live_heap_mb": true}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	var err error
	switch {
	case len(args) == 0:
		err = trend(stdout)
	case args[0] == "record" && len(args) >= 3 && len(args) <= 5:
		err = write(args[1:], stdin)
	default:
		fmt.Fprintln(stderr, "usage: benchtrend [record PR COMMIT [PAIRS [GATE]]]")
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
	if len(args) >= 3 {
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
	if len(args) == 4 {
		if r.Gate, err = readGate(args[3]); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(fmt.Sprintf("BENCH_%d.json", r.PR), append(b, '\n'), 0o644)
}

// readGate reads a saved bench-gate report: a gated row is "name base now
// ratio lost/n IQR% allocs allocs verdict", a new one "name - now new in the
// tree, not gated (n reps)".
func readGate(path string) (map[string]gateRow, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rows := map[string]gateRow{}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 5 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		var g gateRow
		var err error
		if f[1] != "-" {
			g.BaseNs, err = strconv.ParseFloat(f[1], 64)
		}
		if err == nil {
			g.NowNs, err = strconv.ParseFloat(f[2], 64)
		}
		switch {
		case err != nil:
		case f[1] == "-" && f[len(f)-1] == "reps)":
			g.N, err = strconv.Atoi(strings.TrimPrefix(f[len(f)-2], "("))
		case strings.Contains(f[4], "/"):
			_, n, _ := strings.Cut(f[4], "/")
			g.N, err = strconv.Atoi(n)
		}
		if err != nil || g.N <= 0 {
			return nil, fmt.Errorf("%s: %q: no ns/op medians and pair count", path, line)
		}
		rows[f[0]] = g
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: no benchmark rows", path)
	}
	return rows, nil
}

// trend prints the rows: PRs in order, then workloads and, within each, the
// end-to-end metrics, the per-layer ones and the pair-diff ratios by name,
// then the bench-gate rows.
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
	fmt.Fprintf(w, "%-4s %-15s %-44s %14s %-7s %-9s %s\n", "pr", "workload", "metric", "value", "unit", "n", "host")
	for _, r := range recs {
		// n is the pairs or reps a host metric stands on, -1 for a
		// simulated one; fewer than five are marked.
		row := func(wl, m string, v float64, unit string, n int) {
			ns := "-"
			switch {
			case n >= 5:
				ns = fmt.Sprintf("n=%d", n)
			case n >= 0:
				ns = fmt.Sprintf("n=%d few", n)
			}
			fmt.Fprintf(w, "%-4d %-15s %-44s %14.6g %-7s %-9s nproc=%d %s %s\n", r.PR, wl, m, v, unit, ns, r.Host.NProc, r.Host.Go, r.Host.CPU)
		}
		pairN := func(m string, n int) int {
			if hostPairMetrics[m] {
				return n
			}
			return -1
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
					n := -1
					if hostUnits[set[m].Unit] {
						n = set[m].N
					}
					row(wl, m, set[m].Value, set[m].Unit, n)
				}
			}
			runs := len(r.Pairs[wl])
			for _, m := range sorted(r.Medians[wl]) {
				if p := r.Medians[wl][m]; p[0] != 0 {
					runs = max(runs, 1)
					row(wl, "pair-diff 1 (medians) "+m+" now/base", p[1]/p[0], "ratio", pairN(m, r.MediansN[wl]))
				}
			}
			for i, run := range r.Pairs[wl] {
				for _, m := range sorted(run) {
					if p := run[m].Medians; p[0] != 0 {
						row(wl, fmt.Sprintf("pair-diff %d %s now/base", i+1, m), p[1]/p[0], "ratio", pairN(m, len(run[m].Pairs)))
					}
				}
			}
			for _, run := range r.Ratios[wl] {
				runs++
				for _, m := range sorted(run) {
					row(wl, fmt.Sprintf("pair-diff %d (ratio) %s now/base", runs, m), run[m].Ratio, "ratio", pairN(m, run[m].N))
				}
			}
		}
		for _, b := range sorted(r.Gate) {
			g := r.Gate[b]
			row("bench-gate", b+" ns/op", g.NowNs, "ns", g.N)
			if g.BaseNs != 0 {
				row("bench-gate", b+" now/base", g.NowNs/g.BaseNs, "ratio", g.N)
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
