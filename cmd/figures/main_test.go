package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// figures runs the command in-process over args.
func figures(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// One cheap row as CSV: the table's rows and nothing else on stdout.
func TestRunTableIICSV(t *testing.T) {
	code, out, errw := figures("-exp", "tableII", "-csv")
	if code != 0 || errw != "" {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	want := "Resource,Amount\nLogic Cells,758K\nMax. distributed RAM,8 Mb\nBlock RAM,26 Mb\nMax. I/O pins,1200\n"
	if out != want {
		t.Errorf("stdout %q, want %q", out, want)
	}
}

// The aligned rendering of a row is its experiments golden snapshot, and
// -stats reports the row's sweep on stderr, not in the table.
func TestRunCalspreadIsItsGolden(t *testing.T) {
	code, out, errw := figures("-exp", "calspread", "-stats", "-j", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw)
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "calspread.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden)+"\n" {
		t.Errorf("stdout differs from calspread.golden:\n%s", out)
	}
	if !strings.HasPrefix(errw, "run instrumentation:") || !strings.Contains(errw, "experiments.sweep_points") {
		t.Errorf("-stats printed %q", errw)
	}
}

// -outdir writes one CSV per table, the same bytes as the -csv stdout; a
// row's second table gets a _1 suffix.
func TestRunOutdirWritesEachTable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	for _, exp := range []string{"tableII", "fig4"} {
		code, out, errw := figures("-exp", exp, "-csv", "-outdir", dir)
		if code != 0 || errw != "" {
			t.Fatalf("%s: exit %d, stderr %q", exp, code, errw)
		}
		var files string
		names := map[string][]string{"tableII": {"tableII"}, "fig4": {"fig4", "fig4_1"}}[exp]
		for _, name := range names {
			b, err := os.ReadFile(filepath.Join(dir, name+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			files += string(b)
		}
		if files != out {
			t.Errorf("%s: files %v hold %q, stdout %q", exp, names, files, out)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Errorf("outdir holds %d files, want 3", len(entries))
	}
}

// Every way a run can fail says why on stderr, prints no table and exits
// nonzero: 2 for a flag the command does not have or a value a flag cannot
// take (usage follows), 1 for everything else. -grade bogus used to exit 1.
func TestRunFailures(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		args []string
		code int
		want string
	}{
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{"unknown experiment", []string{"-exp", "bogus"}, 2,
			`invalid value "bogus" for flag -exp: want all, tableII, tableIII, triecal, fig2, fig3, fig4, fig5, fig6, fig7, fig8, updates, devicefit, braiding, loadsweep, ortc, calspread, grouped`},
		{"unknown grade", []string{"-exp", "tableII", "-grade", "bogus"}, 2,
			`invalid value "bogus" for flag -grade: want both, -2 or -1L`},
		{"outdir under a file", []string{"-exp", "tableII", "-outdir", filepath.Join(file, "out")}, 1, "figures: mkdir "},
	} {
		code, out, errw := figures(c.args...)
		if code != c.code || !strings.Contains(errw, c.want) || out != "" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit %d and %q", c.name, code, out, errw, c.code, c.want)
		}
		if (c.code == 2) != strings.Contains(errw, "Usage of figures") {
			t.Errorf("%s: usage on stderr should go with exit 2: %q", c.name, errw)
		}
	}
}
