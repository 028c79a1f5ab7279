// benchgate compares two `go test -bench` outputs of the same benchmarks —
// one at a base revision, one in the working tree, both run on one host in
// alternated pairs — and fails the build on a regression. Each file holds one
// rep of every benchmark per pair, in pair order, so rep i of a benchmark in
// BASE.out and rep i of it in NOW.out are one pair.
//
//	benchgate BASE.out NOW.out
//
// allocs/op are exact integers: a benchmark fails when the tree's minimum
// over its reps is above BASE's minimum (the minimum absorbs the one-alloc
// rounding jitter a mean over b.N iterations can show; a real extra
// allocation moves every rep). ns/op is host time: a benchmark fails when the
// tree is slower in at least nine tenths of the pairs (ties count for
// neither) and its median is above BASE's by more than BASE's interquartile
// range. A benchmark measured at BASE but not in the tree fails; one new in
// the tree is printed and not gated. `make bench-gate` writes both files.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// rep is one benchmark's numbers from one run.
type rep struct {
	ns     float64
	allocs int64
}

// benchOut is one side's parsed output: names in first-seen order and every
// rep of each, in the order the file lists them.
type benchOut struct {
	names []string
	reps  map[string][]rep
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run gates NOW against BASE and returns the exit status: 0 when every row
// passes, 1 when one fails, 2 on bad usage or unreadable input.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchgate BASE.out NOW.out")
		return 2
	}
	var sides [2]benchOut
	for i, p := range args {
		f, err := os.Open(p)
		if err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 2
		}
		sides[i], err = parseBench(f)
		f.Close()
		if err == nil && len(sides[i].names) == 0 {
			err = fmt.Errorf("no benchmark results")
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchgate: %s: %v\n", p, err)
			return 2
		}
	}
	failed, err := gate(stdout, sides[0], sides[1])
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	if failed {
		return 1
	}
	return 0
}

// gate prints one row per benchmark and reports whether any row failed. A
// benchmark with a different number of reps on the two sides is an error:
// its pairs cannot be formed.
func gate(w io.Writer, base, now benchOut) (failed bool, err error) {
	fmt.Fprintf(w, "%-34s %11s %11s %6s %5s %6s %11s  %s\n", "benchmark", "base ns/op", "now ns/op",
		"ratio", "lost", "IQR%", "allocs/op", "verdict")
	for _, name := range base.names {
		b, n := base.reps[name], now.reps[name]
		if len(n) == 0 {
			fmt.Fprintf(w, "%-34s measured at BASE, not in the tree  FAIL\n", name)
			failed = true
			continue
		}
		if len(b) != len(n) {
			return failed, fmt.Errorf("%s: %d reps at BASE, %d in the tree, want one per pair", name, len(b), len(n))
		}
		lost := 0
		for i := range b {
			if n[i].ns > b[i].ns {
				lost++
			}
		}
		mb, mn, iqr := median(b), median(n), quantile(b, 0.75)-quantile(b, 0.25)
		verdict := "ok"
		switch {
		case minAllocs(n) > minAllocs(b):
			verdict = "FAIL: allocs/op rose"
		case 10*lost >= 9*len(b) && mn-mb > iqr:
			verdict = "FAIL: slower in 9/10 of the pairs by more than the base IQR"
		}
		failed = failed || verdict != "ok"
		fmt.Fprintf(w, "%-34s %11.0f %11.0f %6.3f %2d/%-2d %5.1f%% %5d %5d  %s\n",
			name, mb, mn, mn/mb, lost, len(b), 100*iqr/mb, minAllocs(b), minAllocs(n), verdict)
	}
	for _, name := range now.names {
		if _, ok := base.reps[name]; !ok {
			fmt.Fprintf(w, "%-34s %11s %11.0f  new in the tree, not gated (%d reps)\n", name, "-", median(now.reps[name]), len(now.reps[name]))
		}
	}
	return failed, nil
}

// parseBench reads `go test -bench -benchmem` output. Lines look like
//
//	BenchmarkPipelineLookup-8   1602   762139 ns/op   10748724 lookups/s   6 B/op   0 allocs/op
//
// The -N GOMAXPROCS suffix is stripped, and every rep is kept in order.
func parseBench(r io.Reader) (benchOut, error) {
	out := benchOut{reps: map[string][]rep{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		e := rep{ns: -1}
		for i := 2; i+1 < len(fields); i += 2 {
			var v float64
			if _, err := fmt.Sscanf(fields[i], "%g", &v); err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				e.ns = v
			case "allocs/op":
				e.allocs = int64(v)
			}
		}
		if e.ns < 0 {
			continue
		}
		name := stripProcs(fields[0])
		if _, ok := out.reps[name]; !ok {
			out.names = append(out.names, name)
		}
		out.reps[name] = append(out.reps[name], e)
	}
	return out, sc.Err()
}

// stripProcs removes the trailing -N GOMAXPROCS suffix go test appends.
func stripProcs(name string) string {
	for i := len(name) - 1; i > 0; i-- {
		c := name[i]
		if c >= '0' && c <= '9' {
			continue
		}
		if c == '-' && i < len(name)-1 {
			return name[:i]
		}
		break
	}
	return name
}

// quantile is the p-quantile of the reps' ns/op, interpolated between the
// two nearest order statistics (the rule `make pair-diff` prints by).
func quantile(reps []rep, p float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = r.ns
	}
	sort.Float64s(v)
	h := p * float64(len(v)-1)
	k := int(h)
	if k+1 >= len(v) {
		return v[k]
	}
	return v[k] + (h-float64(k))*(v[k+1]-v[k])
}

func median(reps []rep) float64 { return quantile(reps, 0.5) }

func minAllocs(reps []rep) int64 {
	m := reps[0].allocs
	for _, r := range reps[1:] {
		m = min(m, r.allocs)
	}
	return m
}
