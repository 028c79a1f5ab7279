package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: vrpower
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPipelineLookup-8   	    1602	    785822 ns/op	  10748724 lookups/s	       6 B/op	       0 allocs/op
BenchmarkPipelineLookupScalar 	     295	   3978037 ns/op	   2059311 lookups/s	  524305 B/op	       1 allocs/op
BenchmarkPipelineLookup-8   	    1419	    762139 ns/op	  10424782 lookups/s	       6 B/op	       2 allocs/op
PASS
ok  	vrpower	3.174s
`
	got, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.names) != "[BenchmarkPipelineLookup BenchmarkPipelineLookupScalar]" {
		t.Fatalf("names %v, want first-seen order with the -N suffix stripped", got.names)
	}
	// Every rep kept, in file order: no per-name minimum.
	if r := got.reps["BenchmarkPipelineLookup"]; len(r) != 2 || r[0] != (rep{785822, 0}) || r[1] != (rep{762139, 2}) {
		t.Errorf("BenchmarkPipelineLookup reps %v, want [{785822 0} {762139 2}]", r)
	}
	if r := got.reps["BenchmarkPipelineLookupScalar"]; len(r) != 1 || r[0] != (rep{3978037, 1}) {
		t.Errorf("BenchmarkPipelineLookupScalar reps %v, want [{3978037 1}]", r)
	}
}

func TestStripProcs(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-8":     "BenchmarkFoo",
		"BenchmarkFoo-128":   "BenchmarkFoo",
		"BenchmarkFoo":       "BenchmarkFoo",
		"BenchmarkFoo/sub-4": "BenchmarkFoo/sub",
		"BenchmarkFoo-":      "BenchmarkFoo-",
	}
	for in, want := range cases {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

// benchText writes one `go test -bench` line per rep of name.
func benchText(name string, ns []float64, allocs []int64) string {
	var b strings.Builder
	for i := range ns {
		fmt.Fprintf(&b, "%s-2 \t 100 \t %g ns/op \t 64 B/op \t %d allocs/op\n", name, ns[i], allocs[i])
	}
	return b.String()
}

// base10 is ten reps of 100..109 ns/op: median 104.5, interquartile range 4.5.
var base10 = []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}

// shifted returns base10 with d[i] added to rep i.
func shifted(d ...float64) []float64 {
	out := append([]float64(nil), base10...)
	for i := range d {
		out[i] += d[i]
	}
	return out
}

func flat(n int, v int64) []int64 {
	a := make([]int64, n)
	for i := range a {
		a[i] = v
	}
	return a
}

func TestGate(t *testing.T) {
	jitter := []int64{81, 82, 82, 81, 82, 81, 81, 82, 82, 81}
	plusOne := make([]int64, len(jitter))
	for i, a := range jitter {
		plusOne[i] = a + 1
	}
	cases := []struct {
		name        string
		base, now   string
		fail        bool
		wantVerdict string
	}{
		{"unchanged", benchText("BenchmarkX", base10, flat(10, 5)), benchText("BenchmarkX", base10, flat(10, 5)), false, "ok"},
		{"allocs +1 on every rep", benchText("BenchmarkX", base10, jitter), benchText("BenchmarkX", base10, plusOne), true, "allocs/op rose"},
		{"allocs 81/82 jitter on both sides", benchText("BenchmarkX", base10, jitter),
			benchText("BenchmarkX", base10, []int64{82, 82, 81, 82, 82, 82, 82, 82, 81, 82}), false, "ok"},
		{"9 of 10 slower, median gap above the IQR", benchText("BenchmarkX", base10, flat(10, 0)),
			benchText("BenchmarkX", shifted(10, 10, 10, 10, 10, 10, 10, 10, 10, -1), flat(10, 0)), true, "slower in 9/10"},
		{"9 of 10 slower, median gap inside the IQR", benchText("BenchmarkX", base10, flat(10, 0)),
			benchText("BenchmarkX", shifted(1, 1, 1, 1, 1, 1, 1, 1, 1, -1), flat(10, 0)), false, "ok"},
		{"8 of 10 slower", benchText("BenchmarkX", base10, flat(10, 0)),
			benchText("BenchmarkX", shifted(10, 10, 10, 10, 10, 10, 10, 10, -1, -1), flat(10, 0)), false, "ok"},
		{"a tie counts for neither side", benchText("BenchmarkX", base10, flat(10, 0)),
			benchText("BenchmarkX", shifted(10, 10, 10, 10, 10, 10, 10, 10, 0, -1), flat(10, 0)), false, " 8/10"},
		{"missing from the tree", benchText("BenchmarkX", base10, flat(10, 0)) + benchText("BenchmarkY", base10, flat(10, 0)),
			benchText("BenchmarkX", base10, flat(10, 0)), true, "not in the tree  FAIL"},
		{"new in the tree", benchText("BenchmarkX", base10, flat(10, 0)),
			benchText("BenchmarkX", base10, flat(10, 0)) + benchText("BenchmarkY", base10, flat(10, 9)), false, "not gated"},
	}
	for _, c := range cases {
		base, err := parseBench(strings.NewReader(c.base))
		if err != nil {
			t.Fatal(err)
		}
		now, err := parseBench(strings.NewReader(c.now))
		if err != nil {
			t.Fatal(err)
		}
		var w strings.Builder
		failed, err := gate(&w, base, now)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if failed != c.fail || !strings.Contains(w.String(), c.wantVerdict) {
			t.Errorf("%s: failed %v, want %v, and %q in\n%s", c.name, failed, c.fail, c.wantVerdict, w.String())
		}
	}
}

func TestGateUnequalRepsIsAnError(t *testing.T) {
	base, _ := parseBench(strings.NewReader(benchText("BenchmarkX", base10, flat(10, 0))))
	now, _ := parseBench(strings.NewReader(benchText("BenchmarkX", base10[:9], flat(9, 0))))
	if _, err := gate(new(strings.Builder), base, now); err == nil || !strings.Contains(err.Error(), "10 reps at BASE, 9 in the tree") {
		t.Fatalf("gate over 10 and 9 reps: err %v, want the rep counts named", err)
	}
}

// The exit status follows the verdicts: 0 when every row passes, 1 when one
// fails, 2 when the files cannot be gated at all.
func TestRunExitStatus(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.out", benchText("BenchmarkX", base10, flat(10, 3)))
	same := write("same.out", benchText("BenchmarkX", base10, flat(10, 3)))
	worse := write("worse.out", benchText("BenchmarkX", base10, flat(10, 4)))
	short := write("short.out", benchText("BenchmarkX", base10[:5], flat(5, 3)))
	empty := write("empty.out", "PASS\n")
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{base, same}, 0},
		{[]string{base, worse}, 1},
		{[]string{base, short}, 2},
		{[]string{base, empty}, 2},
		{[]string{base, filepath.Join(dir, "absent.out")}, 2},
		{[]string{base}, 2},
	} {
		var out, errw strings.Builder
		if got := run(c.args, &out, &errw); got != c.want {
			t.Errorf("run(%v) = %d, want %d\nstdout %s\nstderr %s", c.args, got, c.want, out.String(), errw.String())
		}
	}
}
