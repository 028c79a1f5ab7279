package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// vrplan runs the command in-process over args.
func vrplan(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// A plan prints the ranking cut at -top, the Pareto frontier and a summary
// line whose cheapest configuration is rank 1.
func TestRunPrintsRankingFrontierAndSummary(t *testing.T) {
	code, out, errw := vrplan("-k", "2", "-gbps", "5", "-prefixes", "200", "-top", "2")
	if code != 0 || errw != "" {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	for _, want := range []string{
		"Cheapest feasible deployments: K=2, ≥5.0 Gbps per network, α=0.50",
		"Power/throughput Pareto frontier",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("plan lacks %q:\n%s", want, out)
		}
	}
	if !regexp.MustCompile(`(?m)^2 +V[SM] on `).MatchString(out) || regexp.MustCompile(`(?m)^3 +(NV|VS|VM) on `).MatchString(out) {
		t.Errorf("-top 2 did not print exactly two ranks:\n%s", out)
	}
	first := regexp.MustCompile(`(?m)^1 +(.+?) +(\d+\.\d{3}) `).FindStringSubmatch(out)
	sum := regexp.MustCompile(`(?m)^(\d+) feasible configurations evaluated; cheapest: (.+) at (\d+\.\d{3}) W$`).FindStringSubmatch(out)
	if first == nil || sum == nil {
		t.Fatalf("no rank 1 row or no summary line:\n%s", out)
	}
	if sum[1] == "0" || first[1] != sum[2] || first[2] != sum[3] {
		t.Errorf("summary %q disagrees with rank 1 %q", sum[0], first[0])
	}
}

// Every way a run can fail says why in one line on stderr, prints no plan and
// exits nonzero: 2 for a flag the command does not have, 1 for everything
// else. -top 0 and -top -1 used to print an empty ranking and exit 0.
func TestRunFailures(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		code int
		want string
	}{
		{"no networks", []string{"-k", "0"}, 1, "vrplan: planner: K = 0, want > 0\n"},
		{"empty table", []string{"-prefixes", "0"}, 1, "vrplan: rib: 0 prefixes, want > 0\n"},
		{"alpha out of range", []string{"-alpha", "2"}, 1, "vrplan: planner: alpha 2 outside [0,1]\n"},
		{"negative requirement", []string{"-gbps", "-1"}, 1, "vrplan: planner: per-VN requirement -1, want >= 0\n"},
		// NaN passes checks written x < 0 (|| x > 1): it once ranked a
		// NaN-memory merged router cheapest and made every configuration
		// feasible.
		{"alpha not a number", []string{"-alpha", "NaN"}, 1, "vrplan: planner: alpha NaN outside [0,1]\n"},
		{"requirement not a number", []string{"-gbps", "NaN"}, 1, "vrplan: planner: per-VN requirement NaN, want >= 0\n"},
		{"nothing feasible", []string{"-gbps", "1000"}, 1, "vrplan: no feasible configuration for K=2 at 1000.0 Gbps per network (α=0.50)\n"},
		{"empty ranking", []string{"-top", "0"}, 1, "vrplan: -top 0: want a count > 0\n"},
		{"negative ranking", []string{"-top", "-1"}, 1, "vrplan: -top -1: want a count > 0\n"},
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined: -bogus\nUsage of vrplan"},
	} {
		code, out, errw := vrplan(append([]string{"-k", "2", "-prefixes", "200"}, c.args...)...)
		if code != c.code || !strings.Contains(errw, c.want) || out != "" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit %d and %q", c.name, code, out, errw, c.code, c.want)
		}
		if c.code == 1 && errw != c.want {
			t.Errorf("%s: stderr %q, want only %q", c.name, errw, c.want)
		}
	}
}
