package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// small is a router that builds in milliseconds.
var small = []string{"-scheme", "VS", "-k", "2", "-prefixes", "200"}

// lookupsim runs the command in-process over args.
func lookupsim(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// The lines bench/cli.go reads off a run's stdout.
var (
	cliDelivered  = regexp.MustCompile(`(?m)^Delivered fraction\s+(\S+)`)
	cliMismatches = regexp.MustCompile(`(?m)^(?:Oracle mismatches|Mismatches vs reference LPM)\s+(\d+)`)
)

func TestRunPrintsWhatTheBenchmarkParses(t *testing.T) {
	code, out, errw := lookupsim(append(small, "-packets", "2000")...)
	if code != 0 || errw != "" {
		t.Fatalf("closed loop: exit %d, stderr %q", code, errw)
	}
	if m := cliMismatches.FindStringSubmatch(out); m == nil || m[1] != "0" {
		t.Errorf("closed loop printed no zero mismatch count:\n%s", out)
	}

	code, out, errw = lookupsim(append(small, "-scenario", "load=const:0.5,faults=seu:2e-8,churn=2x16,cycles=4096")...)
	if code != 0 || errw != "" {
		t.Fatalf("scenario: exit %d, stderr %q", code, errw)
	}
	if m := cliMismatches.FindStringSubmatch(out); m == nil || m[1] != "0" {
		t.Errorf("scenario printed no zero mismatch count:\n%s", out)
	}
	if m := cliDelivered.FindStringSubmatch(out); m == nil {
		t.Errorf("scenario printed no delivered fraction:\n%s", out)
	}
	for _, want := range []string{"load + faults + churn", "Mean time to repair (cycles)",
		"Throughput retained measured / analytic", "Churn batch lifecycle", "Energy attribution"} {
		if !strings.Contains(out, want) {
			t.Errorf("scenario report lacks %q:\n%s", want, out)
		}
	}
}

func TestRunFramePath(t *testing.T) {
	code, out, errw := lookupsim(append(small, "-frames", "-packets", "500")...)
	if code != 0 || errw != "" {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	if !strings.Contains(out, "frame path") || !regexp.MustCompile(`(?m)^Mismatches vs reference LPM\s+0`).MatchString(out) ||
		!strings.Contains(out, "Energy attribution") {
		t.Errorf("frame report:\n%s", out)
	}
}

// The Zipf distribution end to end: a skewed closed loop checks every next
// hop and prints the same report at any worker count.
func TestRunZipfClosedLoop(t *testing.T) {
	args := append(small, "-dist", "zipf", "-packets", "3000")
	code, j1, errw := lookupsim(append(args, "-j", "1")...)
	if code != 0 || errw != "" {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	if m := cliMismatches.FindStringSubmatch(j1); m == nil || m[1] != "0" {
		t.Errorf("zipf closed loop printed no zero mismatch count:\n%s", j1)
	}
	// Zipf puts most packets on network 0 (uniform splits them evenly).
	load := regexp.MustCompile(`(?m)^Engine (\d) load / occupancy / activity\s+(\S+)`).FindAllStringSubmatch(j1, -1)
	if len(load) != 2 || load[0][2] <= load[1][2] {
		t.Errorf("zipf closed loop not skewed toward network 0:\n%s", j1)
	}
	if _, j8, _ := lookupsim(append(args, "-j", "8")...); j8 != j1 {
		t.Errorf("stdout differs between -j 1 and -j 8:\n%s\n---\n%s", j1, j8)
	}
}

// Every way a run can fail says why on stderr and exits nonzero: 2 for a flag
// the command does not have or a value a flag cannot take (usage follows), 1
// for everything else.
func TestRunFailures(t *testing.T) {
	type failure struct {
		name string
		args []string
		code int
		want string
	}
	cases := []failure{
		{"unknown spec key", []string{"-scenario", "lode=const:0.5"}, 1, `unknown key "lode"`},
		{"bad scheme", []string{"-scheme", "XX"}, 1, `scheme "XX": want NV, VS or VM`},
		{"lift without a cap", []string{"-scenario", "load=const:0.5,power-cap-lift=100"}, 1, "power-cap-lift needs power-cap="},
		// A closed-loop flag beside -scenario would go unread: refused.
		{"-frames beside -scenario", append([]string{"-frames", "-scenario", "load=const:0.5,cycles=2048"}, small...), 2,
			"invalid value true for flag -frames: want no -frames beside -scenario (closed loop only)"},
		{"-packets beside -scenario", append([]string{"-packets", "50", "-scenario", "load=const:0.5,cycles=2048"}, small...), 2,
			"invalid value 50 for flag -packets: want no -packets beside -scenario (closed loop only)"},
		{"run left incomplete", []string{"-scheme", "VS", "-k", "1", "-prefixes", "200",
			"-scenario", "load=const:0.5,kill=0@2000,chaos=stall:8,cycles=8192,seed=3"}, 1, "outstanding"},
		// A window that rounds past int64 fails before its first slice.
		{"window past int64", []string{"-scheme", "VS", "-k", "2", "-prefixes", "10",
			"-scenario", "cycles=9223372036854775807"}, 1, "overflow int64"},
		{"slice past int64", []string{"-scheme", "VS", "-k", "2", "-prefixes", "10",
			"-scenario", "cycles=2048,slice=9223372036854775807"}, 1, "overflow int64"},
		// A fleet larger than any run could use is refused, never allocated.
		{"fleet past its networks", []string{"-scheme", "VS", "-k", "2", "-prefixes", "10",
			"-scenario", "fleet=1:spare=100000000,cycles=2048"}, 1, "fleet of 1 devices + 100000000 spares"},
	}
	for _, args := range [][]string{{"-packets", "-1"}, {"-frames", "-packets", "-1"}} {
		cases = append(cases, failure{"negative count " + strings.Join(args, " "), args, 2,
			"invalid value -1 for flag -packets: want a count >= 0"})
	}
	// A value a flag cannot take is refused, never read as a default.
	for _, c := range []struct{ flag, val, want string }{
		{"-trace-sample", "2", "invalid value 2 for flag -trace-sample: want a rate in [0,1]"},
		{"-trace-buf", "-1", "invalid value -1 for flag -trace-buf: want a capacity >= 0"},
		{"-events-level", "bogus", `invalid value "bogus" for flag -events-level: want debug, info, warn or error`},
		{"-j", "-4", "invalid value -4 for flag -j: want a worker count >= 0"},
		{"-dist", "bogus", `invalid value "bogus" for flag -dist: want uniform or zipf`},
		{"-k", "0", "invalid value 0 for flag -k: want a count >= 1"},
		{"-prefixes", "0", "invalid value 0 for flag -prefixes: want a count >= 1"},
		{"-share", "2", "invalid value 2 for flag -share: want a fraction in [0,1]"},
		{"-share", "-1", "invalid value -1 for flag -share: want a fraction in [0,1]"},
		{"-share", "NaN", "invalid value NaN for flag -share: want a fraction in [0,1]"},
	} {
		cases = append(cases, failure{"bad value " + c.flag + " " + c.val,
			append(append([]string(nil), small...), c.flag, c.val, "-packets", "100"), 2, c.want})
	}
	for _, flag := range []string{"-load", "-faults", "-fault-seed", "-seu-rate", "-kill-engine", "-kill-cycle",
		"-reconfig-failures", "-churn", "-churn-seed", "-churn-batch", "-churn-batches", "-churn-vn",
		"-power-cap", "-power-cap-device", "-power-cap-lift",
		"-mttr-report", "-update-report", "-governor-report", "-energy-report", "-routed"} {
		cases = append(cases, failure{"removed " + flag, []string{flag, "1"}, 2, "flag provided but not defined: " + flag})
	}
	for _, c := range cases {
		code, _, errw := lookupsim(c.args...)
		if code != c.code || !strings.Contains(errw, c.want) {
			t.Errorf("%s: exit %d, stderr %q; want exit %d and %q", c.name, code, errw, c.code, c.want)
		}
		if c.code == 2 && !strings.Contains(errw, "Usage of lookupsim") {
			t.Errorf("%s: no usage on stderr: %q", c.name, errw)
		}
	}
}

// A cap reaches a -scenario run through the spec, lift included.
func TestRunCapFlagsGovernScenario(t *testing.T) {
	code, out, errw := lookupsim("-scheme", "VS", "-k", "3", "-prefixes", "200",
		"-scenario", "load=const:0.9,cycles=16384,power-cap=4.6,power-cap-lift=8192")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q\n%s", code, errw, out)
	}
	for _, want := range []string{"lift cycle 8192", "Governor ladder: time at each tier"} {
		if !strings.Contains(out, want) {
			t.Errorf("governed report lacks %q:\n%s", want, out)
		}
	}
	if regexp.MustCompile(`(?m)^Escalations / de-escalations / oscillations\s+0 /`).MatchString(out) {
		t.Errorf("the cap never bit:\n%s", out)
	}
}

func TestRunSameBytesAtAnyJ(t *testing.T) {
	args := append(small, "-scenario", "load=surge:0.3:0.9,faults=seu:2e-8,kill=1@1500,churn=2x16,power-cap=30,cycles=6144",
		"-timeseries-out", "-", "-events-out", "-")
	_, j1, _ := lookupsim(append(args, "-j", "1")...)
	code, j8, errw := lookupsim(append(args, "-j", "8")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	if j1 != j8 {
		t.Errorf("stdout differs between -j 1 and -j 8:\n%s\n---\n%s", j1, j8)
	}
	if !strings.Contains(j1, "scrub_done") || !strings.Contains(j1, "cycle,power_w") {
		t.Errorf("dumps missing from stdout:\n%s", j1)
	}
}
