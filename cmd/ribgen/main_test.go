package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vrpower/internal/rib"
)

// ribgen runs the command in-process over args.
func ribgen(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// Without -o the table goes to stdout in the text format rib.Read parses
// back into the generator's routes.
func TestRunWritesTableToStdout(t *testing.T) {
	code, out, errw := ribgen("-n", "300", "-seed", "4")
	if code != 0 || errw != "" {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	want, err := rib.Generate("ribgen", 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rib.Read("stdout", strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Routes, want.Routes) {
		t.Errorf("stdout parses to %d routes, not the generator's %d", got.Len(), want.Len())
	}
}

// -stats prints the five trie statistics lines instead of routes.
func TestRunStats(t *testing.T) {
	code, out, errw := ribgen("-stats")
	if code != 0 || errw != "" {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 5 || lines[0] != "routes:             3725" {
		t.Fatalf("stats:\n%s", out)
	}
	for i, key := range []string{"routes:", "trie nodes:", "trie leaves:", "leaf-pushed nodes:", "height:"} {
		if !strings.HasPrefix(lines[i], key) {
			t.Errorf("line %d %q, want %q first", i, lines[i], key)
		}
	}
}

// -o writes the table to a file, -k N with -o writes N files <o>0.rib ..
// <o>N-1.rib holding the generator's virtual set; each file gets a summary
// line on stdout.
func TestRunWritesFiles(t *testing.T) {
	dir := t.TempDir()
	one := filepath.Join(dir, "one.rib")
	code, out, errw := ribgen("-n", "200", "-o", one)
	if code != 0 || errw != "" || out != fmt.Sprintf("wrote %s (200 routes)\n", one) {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, out, errw)
	}
	readBack(t, one, 200)

	prefix := filepath.Join(dir, "vn")
	code, out, errw = ribgen("-k", "3", "-n", "150", "-share", "0.5", "-seed", "2", "-o", prefix)
	if code != 0 || errw != "" {
		t.Fatalf("-k 3: exit %d, stderr %q", code, errw)
	}
	set, err := rib.GenerateVirtualSet(3, 150, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for i, tbl := range set.Tables {
		name := fmt.Sprintf("%s%d.rib", prefix, i)
		want += fmt.Sprintf("wrote %s (%d routes)\n", name, tbl.Len())
		if got := readBack(t, name, tbl.Len()); !reflect.DeepEqual(got.Routes, tbl.Routes) {
			t.Errorf("%s differs from the virtual set's table %d", name, i)
		}
	}
	if out != want {
		t.Errorf("stdout %q, want %q", out, want)
	}
}

// readBack parses a written table and checks its size.
func readBack(t *testing.T, name string, n int) *rib.Table {
	t.Helper()
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tbl, err := rib.Read(name, f)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != n {
		t.Errorf("%s holds %d routes, want %d", name, tbl.Len(), n)
	}
	return tbl
}

// Every way a run can fail says why on stderr and exits nonzero: 2 for a flag
// the command does not have or a value a flag cannot take (usage follows), 1
// for a table that cannot be generated or written.
func TestRunFailures(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir")
	for _, c := range []struct {
		name string
		args []string
		code int
		want string
	}{
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{"no tables", []string{"-k", "0"}, 2, "invalid value 0 for flag -k: want a count >= 1"},
		{"set without -o", []string{"-k", "2"}, 2, "-k > 1 requires -o <prefix>"},
		{"empty table", []string{"-n", "0"}, 2, "invalid value 0 for flag -n: want a count >= 1"},
		{"unwritable file", []string{"-n", "10", "-o", filepath.Join(missing, "t.rib")}, 1, "ribgen: open " + missing},
		{"unwritable set", []string{"-k", "2", "-n", "10", "-o", filepath.Join(missing, "vn")}, 1, "ribgen: open " + missing},
	} {
		code, out, errw := ribgen(c.args...)
		if code != c.code || !strings.Contains(errw, c.want) || out != "" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit %d and %q", c.name, code, out, errw, c.code, c.want)
		}
		if (c.code == 2) != strings.Contains(errw, "Usage of ribgen") {
			t.Errorf("%s: usage on stderr should go with exit 2: %q", c.name, errw)
		}
	}
}
