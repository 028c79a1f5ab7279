package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

const benchOut = `workload forward_paper  seed 1
digest abc
detail {"workload":"forward_paper","seed":1,"end_to_end":{"setup_s":{"value":0.0132,"unit":"s","min":0.013,"max":0.014,"n":2}},"per_layer":{"trie.build_ms":{"value":6.1,"unit":"ms","min":6.1,"max":6.1,"n":1}}}
{"correct":true}
detail {"workload":"load_small","seed":1,"end_to_end":{"wall_s":{"value":0.5,"unit":"s","min":0.5,"max":0.5,"n":1}}}
`

const pairDiff = `workload forward_paper: alternated pairs, 3 s a run
setup_s (lower is better)
  seed          base          now   ratio
  1        0.0172    0.0133   0.773
  base  median 0.0172  quartiles 0.0170 0.0175
  now   median 0.0133  quartiles 0.0131 0.0135
  median ratio 0.773; the tree wins 1 of 1 pairs; medians differ by more than the base IQR
workload forward_paper: alternated pairs, 3 s a run
setup_s (lower is better)
  seed          base          now   ratio
  1        0.0170    0.0120   0.706
  2        0.0180    0.0130   0.722
  base  median 0.0175  quartiles 0.0172 0.0178
  now   median 0.0125  quartiles 0.0122 0.0128
  median ratio 0.714; the tree wins 2 of 2 pairs; medians differ by more than the base IQR
`

const gateOut = `benchmark                           base ns/op   now ns/op  ratio  lost   IQR%%   allocs/op  verdict
BenchmarkX                                1000        1100  1.100  7/10   3.0%%     2     2  ok
BenchmarkY                                   -         500  new in the tree, not gated (10 reps)
`

// record keeps every detail object as it came, every pair-diff run — a
// second run of a workload beside the first — with its per-seed pairs and
// medians, and each bench-gate row's medians and pairs; the table is one row
// per PR, workload and metric, each host metric with the pairs or reps it
// stands on (marked when fewer than five), the same bytes each time.
func TestRecordThenTrend(t *testing.T) {
	chdir(t, t.TempDir())
	if err := os.WriteFile("pairs.out", []byte(pairDiff), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("gate.out", []byte(strings.ReplaceAll(gateOut, "%%", "%")), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	if c := run([]string{"record", "7", "abc123", "pairs.out", "gate.out"}, strings.NewReader(benchOut), nil, &stderr); c != 0 {
		t.Fatalf("record exit %d: %s", c, stderr.String())
	}
	b, err := os.ReadFile("BENCH_7.json")
	if err != nil {
		t.Fatal(err)
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	if r.PR != 7 || r.Commit != "abc123" || r.Date == "" || r.Host.NProc < 1 || r.Host.Go == "" || len(r.Workloads) != 2 {
		t.Fatalf("record %+v", r)
	}
	var want, got any
	_ = json.Unmarshal([]byte(strings.Split(benchOut, "\n")[2][len("detail "):]), &want)
	_ = json.Unmarshal(r.Workloads["forward_paper"], &got)
	if !jsonEqual(got, want) {
		t.Errorf("forward_paper detail %s, want the bench's line unchanged", r.Workloads["forward_paper"])
	}
	want2 := []pairs{
		{Pairs: [][3]float64{{1, 0.0172, 0.0133}}, Medians: [2]float64{0.0172, 0.0133}},
		{Pairs: [][3]float64{{1, 0.0170, 0.0120}, {2, 0.0180, 0.0130}}, Medians: [2]float64{0.0175, 0.0125}},
	}
	if runs := r.Pairs["forward_paper"]; len(runs) != len(want2) {
		t.Errorf("%d forward_paper pair-diff runs, want %d", len(runs), len(want2))
	} else {
		for i, run := range runs {
			if !reflect.DeepEqual(*run["setup_s"], want2[i]) {
				t.Errorf("run %d setup_s %+v, want %+v", i+1, *run["setup_s"], want2[i])
			}
		}
	}

	if want := map[string]gateRow{"BenchmarkX": {1000, 1100, 10}, "BenchmarkY": {0, 500, 10}}; !reflect.DeepEqual(r.Gate, want) {
		t.Errorf("gate rows %+v, want %+v", r.Gate, want)
	}

	var first, second bytes.Buffer
	if run(nil, nil, &first, &stderr) != 0 || run(nil, nil, &second, &stderr) != 0 {
		t.Fatalf("trend failed: %s", stderr.String())
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("two trend runs printed different bytes")
	}
	// Rows compared with their runs of spaces collapsed.
	out := strings.Join(strings.Fields(first.String()), " ")
	for _, row := range []string{"7 forward_paper setup_s 0.0132 s n=2 few nproc=", "7 forward_paper trie.build_ms 6.1 ms n=1 few nproc=",
		"7 load_small wall_s 0.5 s n=1 few nproc=", "7 forward_paper pair-diff 1 setup_s now/base 0.773256 ratio n=1 few nproc=",
		"7 forward_paper pair-diff 2 setup_s now/base 0.714286 ratio n=2 few nproc=",
		"7 bench-gate BenchmarkX ns/op 1100 ns n=10 nproc=", "7 bench-gate BenchmarkX now/base 1.1 ratio n=10 nproc=",
		"7 bench-gate BenchmarkY ns/op 500 ns n=10 nproc="} {
		if !strings.Contains(out, row) {
			t.Errorf("trend lacks %q:\n%s", row, first.String())
		}
	}
}

// chdir makes dir the working directory for the rest of the test.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(old) })
}

func jsonEqual(a, b any) bool {
	x, _ := json.Marshal(a)
	y, _ := json.Marshal(b)
	return bytes.Equal(x, y)
}

// Bad usage is exit 2; a bad PR number, bench output with no detail line, an
// unreadable pair-diff file or a gate report with no row is exit 1, and
// nothing is written.
func TestRefusals(t *testing.T) {
	chdir(t, t.TempDir())
	if err := os.WriteFile("empty.out", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args  []string
		stdin string
		code  int
		msg   string
	}{
		{[]string{"bogus"}, "", 2, "usage"},
		{[]string{"record", "7"}, "", 2, "usage"},
		{[]string{"record", "x", "abc"}, benchOut, 1, "not a positive number"},
		{[]string{"record", "7", "abc"}, "digest abc\n", 1, "no detail line"},
		{[]string{"record", "7", "abc", "missing.out"}, benchOut, 1, "missing.out"},
		{[]string{"record", "7", "abc", "empty.out", "empty.out"}, benchOut, 1, "no benchmark rows"},
	} {
		var stderr bytes.Buffer
		if code := run(c.args, strings.NewReader(c.stdin), nil, &stderr); code != c.code || !strings.Contains(stderr.String(), c.msg) {
			t.Errorf("%v: exit %d %q, want %d and %q", c.args, code, stderr.String(), c.code, c.msg)
		}
	}
	if _, err := os.Stat("BENCH_7.json"); err == nil {
		t.Error("a refused record wrote BENCH_7.json")
	}
}

// A file from before each pair was kept stores one run's medians under
// pair_diff_medians: trend prints them as run 1, marked as medians only,
// beside any run that kept its pairs. A top-level key the reader does not
// know is an error, not rows dropped unseen.
func TestTrendReadsMediansOnlyAndRefusesUnknownKeys(t *testing.T) {
	chdir(t, t.TempDir())
	const rec = `{"pr": 5, "commit": "abc", "date": "d", "host": {"nproc": 2, "cpu": "c", "go": "g"},
 "workloads": {"chaos_vs": {"workload": "chaos_vs", "end_to_end": {"wall_s": {"value": 1, "unit": "s"}}}},
 "pair_diff_medians": {"chaos_vs": {"alloc_mb": [10, 8]}},
 "pair_diff": {"chaos_vs": [{"alloc_mb": {"pairs": [[1, 10, 7.5]], "medians": [10, 7.5]}}]}%s}`
	if err := os.WriteFile("BENCH_5.json", []byte(fmt.Sprintf(rec, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, stderr bytes.Buffer
	if c := run(nil, nil, &out, &stderr); c != 0 {
		t.Fatalf("trend exit %d: %s", c, stderr.String())
	}
	rows := strings.Join(strings.Fields(out.String()), " ")
	for _, row := range []string{"5 chaos_vs pair-diff 1 (medians) alloc_mb now/base 0.8 ratio", "5 chaos_vs pair-diff 1 alloc_mb now/base 0.75 ratio"} {
		if !strings.Contains(rows, row) {
			t.Errorf("trend lacks %q:\n%s", row, out.String())
		}
	}
	if err := os.WriteFile("BENCH_5.json", []byte(fmt.Sprintf(rec, `, "pair_diff_v2": {}`)), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if c := run(nil, nil, &out, &stderr); c != 1 || !strings.Contains(stderr.String(), "pair_diff_v2") {
		t.Errorf("a file with an unknown key: exit %d %q, want 1 naming the key", c, stderr.String())
	}
}
