package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// small is a table that compiles in milliseconds.
var small = []string{"-prefixes", "60", "-vectors", "8"}

// hdlgen runs the command in-process over args.
func hdlgen(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// A run writes the shared stage module, the top level, the testbench and one
// memory image per stage — for one network's trie and for a merged engine —
// and says so in two lines on stdout.
func TestRunWritesTheDesign(t *testing.T) {
	for _, k := range []string{"1", "3"} {
		dir := t.TempDir()
		code, out, errw := hdlgen(append(small, "-o", dir, "-k", k, "-name", "lk")...)
		if code != 0 || errw != "" {
			t.Fatalf("-k %s: exit %d, stderr %q", k, code, errw)
		}
		var files, stages int
		if _, err := fmt.Sscanf(out, "wrote %d files to "+dir+" (top module lk, 37-bit words, %d stages, 8 probes)\n", &files, &stages); err != nil {
			t.Fatalf("-k %s: summary line: %v\n%s", k, err, out)
		}
		if want := "simulate: cd " + dir + " && iverilog -o tb lk_stage.v lk.v lk_tb.v && vvp tb\n"; !strings.HasSuffix(out, want) {
			t.Errorf("-k %s: stdout %q does not end with %q", k, out, want)
		}
		want := []string{"lk.v", "lk_stage.v", "lk_tb.v"}
		for s := 0; s < stages; s++ {
			want = append(want, fmt.Sprintf("lk_stage%02d.mem", s))
		}
		sort.Strings(want)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		if strings.Join(got, " ") != strings.Join(want, " ") || files != len(want) {
			t.Errorf("-k %s: reported %d files, wrote %v; want %v", k, files, got, want)
		}
		top, err := os.ReadFile(filepath.Join(dir, "lk.v"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(top), ".K("+k+")") {
			t.Errorf("-k %s: top level is not a %s-network engine", k, k)
		}
	}
}

// Every way a run can fail says why in one line on stderr, writes nothing and
// exits nonzero: 2 for a flag the command does not have, 1 for everything
// else. -vectors -1 was a makeslice panic inside traffic.Generator.Requests.
func TestRunFailures(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		code int
		want string
	}{
		{"no networks", []string{"-k", "0"}, 1, "hdlgen: traffic: K = 0, want > 0\n"},
		{"empty table", []string{"-prefixes", "0"}, 1, "hdlgen: rib: 0 prefixes, want > 0\n"},
		{"vector wider than a word", []string{"-k", "40"}, 1, "word exceeds 64 bits"},
		{"negative probe count", []string{"-vectors", "-1"}, 1, "hdlgen: -vectors -1: want a count >= 0\n"},
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined: -bogus\nUsage of hdlgen"},
	} {
		dir := filepath.Join(t.TempDir(), "rtl")
		code, out, errw := hdlgen(append([]string{"-o", dir, "-prefixes", "60"}, c.args...)...)
		if code != c.code || !strings.Contains(errw, c.want) || out != "" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit %d and %q", c.name, code, out, errw, c.code, c.want)
		}
		if c.code == 1 && strings.Count(errw, "\n") != 1 {
			t.Errorf("%s: error is not one line: %q", c.name, errw)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s: a failed run left %s behind", c.name, dir)
		}
	}
}
