package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vrpower/internal/fpga"
	"vrpower/internal/report"
)

// -update rewrites the golden snapshots instead of comparing against them.
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenCheck compares rendered experiment output against its snapshot.
// Everything in this package is seeded and deterministic, so any diff is a
// real behaviour change that must be reviewed (and EXPERIMENTS.md updated).
func goldenCheck(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run go test ./internal/experiments -update): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("%s differs from golden snapshot.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenTables(t *testing.T) {
	goldenCheck(t, "tableII", TableII().String())
	goldenCheck(t, "tableIII", TableIII().String())
	cal, err := TrieCalibration()
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "triecal", cal.String())
}

func TestGoldenComponentFigures(t *testing.T) {
	goldenCheck(t, "fig2", Fig2().String())
	goldenCheck(t, "fig3", Fig3().String())
	ptr, nhi, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "fig4_pointer", ptr.String())
	goldenCheck(t, "fig4_nhi", nhi.String())
}

func TestGoldenSweepFigures(t *testing.T) {
	for _, g := range fpga.Grades() {
		suffix := "_2"
		if g == fpga.Grade1L {
			suffix = "_1L"
		}
		for _, c := range []struct {
			name string
			gen  func(fpga.SpeedGrade) (*report.Figure, error)
		}{
			{"fig5", Fig5}, {"fig6", Fig6}, {"fig7", Fig7}, {"fig8", Fig8},
		} {
			f, err := c.gen(g)
			if err != nil {
				t.Fatal(err)
			}
			goldenCheck(t, c.name+suffix, f.String())
		}
	}
}

func TestGoldenExtensions(t *testing.T) {
	for _, c := range []struct {
		name string
		gen  func() (*report.Table, error)
	}{
		{"updates", UpdateCost},
		{"devicefit", DeviceFit},
	} {
		tbl, err := c.gen()
		if err != nil {
			t.Fatal(err)
		}
		goldenCheck(t, c.name, tbl.String())
	}
}

func TestGoldenBraidingAndLoad(t *testing.T) {
	b, err := BraidingComparison()
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "braiding", b.String())
	ls, err := LoadSweep()
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "loadsweep", ls.String())
}

func TestGoldenORTC(t *testing.T) {
	tbl, err := CompactionEffect()
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "ortc", tbl.String())
}

func TestGoldenGroupedAndCalSpread(t *testing.T) {
	g, err := GroupedMerge()
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "grouped", g.String())
	cs, err := CalibrationSpread()
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "calspread", cs.String())
}
