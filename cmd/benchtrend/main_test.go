package main

import (
	"bytes"
	"encoding/json"
	"os"
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
`

// record keeps every detail object as it came and the pair-diff medians;
// the table is one row per PR, workload and metric, the same bytes each time.
func TestRecordThenTrend(t *testing.T) {
	chdir(t, t.TempDir())
	if err := os.WriteFile("pairs.out", []byte(pairDiff), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	if c := run([]string{"record", "7", "abc123", "pairs.out"}, strings.NewReader(benchOut), nil, &stderr); c != 0 {
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
	if p := r.Pairs["forward_paper"]["setup_s"]; p != [2]float64{0.0172, 0.0133} {
		t.Errorf("setup_s pair %+v, want medians 0.0172 and 0.0133", p)
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
	for _, row := range []string{"7 forward_paper setup_s 0.0132 s nproc=", "7 forward_paper trie.build_ms 6.1 ms nproc=",
		"7 load_small wall_s 0.5 s nproc=", "7 forward_paper pair-diff setup_s now/base 0.773256 ratio nproc="} {
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

// Bad usage is exit 2; a bad PR number, bench output with no detail line or
// an unreadable pair-diff file is exit 1, and nothing is written.
func TestRefusals(t *testing.T) {
	chdir(t, t.TempDir())
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
