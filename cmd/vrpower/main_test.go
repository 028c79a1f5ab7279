package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// vrpower runs the command in-process over args.
func vrpower(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// One configuration prints its title and every quantity row; the title names
// the depth the router was built with, the default when -stages is 0 (it
// used to say "0 stages").
func TestRunPrintsOneConfiguration(t *testing.T) {
	for _, c := range []struct {
		args  []string
		title string
	}{
		{[]string{"-k", "2", "-prefixes", "200"}, "VS, K=2, grade -2, 28 stages\n"},
		{[]string{"-k", "2", "-prefixes", "200", "-stages", "0"}, "VS, K=2, grade -2, 28 stages\n"},
		{[]string{"-k", "2", "-prefixes", "200", "-stages", "16", "-grade", "-1L"}, "VS, K=2, grade -1L, 16 stages\n"},
		{[]string{"-k", "2", "-prefixes", "200", "-scheme", "VM", "-empirical"}, "VM, K=2, grade -2, 28 stages\n"},
	} {
		code, out, errw := vrpower(c.args...)
		if code != 0 || errw != "" {
			t.Fatalf("%v: exit %d, stderr %q", c.args, code, errw)
		}
		if !strings.HasPrefix(out, c.title) {
			t.Errorf("%v: title %q, want %q", c.args, strings.SplitN(out, "\n", 2)[0], c.title)
		}
		for _, row := range []string{"Clock (MHz)", "Model power (W)", "Measured power (W)", "Model error (%)",
			"Efficiency (mW/Gbps)", "BRAM utilization", "Devices"} {
			if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(row) + ` +\S`).MatchString(out) {
				t.Errorf("%v: no %q row:\n%s", c.args, row, out)
			}
		}
	}
}

// -compare prints one row per scheme; a scheme that cannot be built at the
// configuration shows its error in its row and the others still print.
func TestRunCompare(t *testing.T) {
	code, out, errw := vrpower("-compare", "-k", "2", "-prefixes", "200")
	if code != 0 || errw != "" {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	if !strings.HasPrefix(out, "All schemes, K=2, grade -2, α=80% for VM\n") {
		t.Errorf("title:\n%s", out)
	}
	for _, sc := range []string{"NV", "VS", "VM"} {
		if !regexp.MustCompile(`(?m)^` + sc + ` +\d+\.\d `).MatchString(out) {
			t.Errorf("no %s row:\n%s", sc, out)
		}
	}
	// 20 separate engines need more I/O pins than the device has.
	code, out, errw = vrpower("-compare", "-k", "20", "-prefixes", "200")
	if code != 0 || errw != "" {
		t.Fatalf("-k 20: exit %d, stderr %q", code, errw)
	}
	if !regexp.MustCompile(`(?m)^VS +- .*\(fpga: I/O pins exceeds`).MatchString(out) ||
		!regexp.MustCompile(`(?m)^VM +\d+\.\d `).MatchString(out) {
		t.Errorf("-k 20 rows:\n%s", out)
	}
}

// Every way a run can fail says why on stderr, prints no table and exits
// nonzero: 2 for a flag the command does not have or a value a flag cannot
// take (usage follows), 1 for a configuration that cannot be built.
// -compare -k 0 used to print a table of errors and exit 0.
func TestRunFailures(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		code int
		want string
	}{
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{"bad scheme", []string{"-scheme", "XX"}, 2, `invalid value "XX" for flag -scheme: want NV, VS or VM`},
		{"bad grade", []string{"-grade", "-3"}, 2, `invalid value "-3" for flag -grade: want -2 or -1L`},
		{"bad device", []string{"-device", "XC7"}, 2, `invalid value "XC7" for flag -device: want one of [`},
		{"no networks", []string{"-k", "0"}, 2, "invalid value 0 for flag -k: want a count >= 1"},
		{"no networks to compare", []string{"-compare", "-k", "0"}, 2, "invalid value 0 for flag -k: want a count >= 1"},
		{"empty tables", []string{"-compare", "-prefixes", "0"}, 2, "invalid value 0 for flag -prefixes: want a count >= 1"},
		{"negative depth", []string{"-stages", "-3"}, 2, "invalid value -3 for flag -stages: want a depth >= 0 (0 = the default)"},
		{"negative distributed-RAM threshold", []string{"-distram", "-5"}, 2, "invalid value -5 for flag -distram: want a threshold >= 0 (0 = BRAM only)"},
		{"does not fit", []string{"-k", "20"}, 1, "vrpower: fpga: I/O pins exceeds XC6VLX760 capacity"},
		// NaN passes a check written x < 0 || x > 1: it once panicked in the
		// generator and priced a merged router at negative memory.
		{"share not a number", []string{"-empirical", "-share", "NaN"}, 1, "vrpower: rib: virtual set share = NaN, want [0,1]"},
		{"alpha not a number", []string{"-scheme", "VM", "-alpha", "NaN"}, 1, "vrpower: core: alpha NaN outside [0,1]"},
	} {
		code, out, errw := vrpower(c.args...)
		if code != c.code || !strings.Contains(errw, c.want) || out != "" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit %d and %q", c.name, code, out, errw, c.code, c.want)
		}
		if (c.code == 2) != strings.Contains(errw, "Usage of vrpower") {
			t.Errorf("%s: usage on stderr should go with exit 2: %q", c.name, errw)
		}
	}
}
