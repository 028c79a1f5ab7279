package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"vrpower/internal/fpga"
)

func TestTableII(t *testing.T) {
	s := TableII().String()
	for _, want := range []string{"758K", "8 Mb", "26 Mb", "1200"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table II missing %q:\n%s", want, s)
		}
	}
}

func TestTableIII(t *testing.T) {
	s := TableIII().String()
	for _, want := range []string{"13.65", "24.60", "11.00", "19.70", "18Kb", "36Kb"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table III missing %q:\n%s", want, s)
		}
	}
}

func TestFig2Linear(t *testing.T) {
	f := Fig2()
	if len(f.Series) != 4 {
		t.Fatalf("Fig. 2 has %d series, want 4", len(f.Series))
	}
	for _, s := range f.Series {
		// Power must be linear in frequency through the origin with the
		// Table III slope (µW/MHz -> mW gives slope/1000).
		a, b, r2, err := linFit(f.X, s.Y)
		if err != nil {
			t.Fatal(err)
		}
		if r2 < 0.999999 {
			t.Errorf("%s: R² = %g, want 1 (linear model)", s.Name, r2)
		}
		if a > 1e-9 || a < -1e-9 {
			t.Errorf("%s: intercept %g, want 0", s.Name, a)
		}
		if b <= 0 {
			t.Errorf("%s: slope %g, want > 0", s.Name, b)
		}
	}
	// At any frequency: 36Kb above 18Kb, -2 above -1L.
	find := func(name string) []float64 {
		for _, s := range f.Series {
			if s.Name == name {
				return s.Y
			}
		}
		t.Fatalf("series %q missing", name)
		return nil
	}
	y18hi, y36hi := find("18Kb(-2)"), find("36Kb(-2)")
	y18lo := find("18Kb(-1L)")
	for i := range f.X {
		if !(y36hi[i] > y18hi[i] && y18hi[i] > y18lo[i]) {
			t.Errorf("ordering violated at %g MHz", f.X[i])
		}
	}
}

func TestFig3SumsToCoefficient(t *testing.T) {
	f := Fig3()
	if len(f.Series) != 4 {
		t.Fatalf("Fig. 3 has %d series, want 4", len(f.Series))
	}
	// logic + signal at 400 MHz must equal the published per-stage total.
	var logic2, signal2 float64
	for _, s := range f.Series {
		switch s.Name {
		case "logic(-2)":
			logic2 = s.Y[len(s.Y)-1]
		case "signal(-2)":
			signal2 = s.Y[len(s.Y)-1]
		}
	}
	want := 5.180 * 400 / 1000 // mW
	if got := logic2 + signal2; got < want*0.999 || got > want*1.001 {
		t.Errorf("logic+signal at 400 MHz = %g mW, want %g", got, want)
	}
}

func TestFig4Orderings(t *testing.T) {
	ptr, nhi, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(ptr.Series) != 3 || len(nhi.Series) != 3 {
		t.Fatalf("Fig. 4 series counts %d/%d, want 3/3", len(ptr.Series), len(nhi.Series))
	}
	// At the largest K: separate pointers highest, merged α=80% lowest;
	// merged α=20% NHI highest.
	last := len(ptr.X) - 1
	var ptrHi, ptrLo, ptrSep float64
	for _, s := range ptr.Series {
		switch {
		case strings.Contains(s.Name, "80"):
			ptrHi = s.Y[last]
		case strings.Contains(s.Name, "20"):
			ptrLo = s.Y[last]
		default:
			ptrSep = s.Y[last]
		}
	}
	if !(ptrHi < ptrLo && ptrLo < ptrSep) {
		t.Errorf("pointer memory at K=30: α80 %.2f < α20 %.2f < separate %.2f violated", ptrHi, ptrLo, ptrSep)
	}
	var nhiLo, nhiSep float64
	for _, s := range nhi.Series {
		switch {
		case strings.Contains(s.Name, "20"):
			nhiLo = s.Y[last]
		case s.Name == "separate":
			nhiSep = s.Y[last]
		}
	}
	if nhiLo <= nhiSep {
		t.Errorf("NHI memory at K=30: merged α20 %.2f should exceed separate %.2f", nhiLo, nhiSep)
	}
	// Memory grows with K for every series.
	for _, s := range ptr.Series {
		if s.Y[0] >= s.Y[last] {
			t.Errorf("%s pointer memory not growing with K", s.Name)
		}
	}
}

func TestFig5NVProportional(t *testing.T) {
	for _, g := range fpga.Grades() {
		f, err := Fig5(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Series) != 4 {
			t.Fatalf("Fig. 5 has %d series, want 4", len(f.Series))
		}
		nv := f.Series[0]
		if nv.Name != "NV" {
			t.Fatalf("first series %q, want NV", nv.Name)
		}
		// NV is proportional to K: fit K vs power, demand high linearity
		// and a slope close to one device's static power.
		_, slope, r2, err := linFit(f.X, nv.Y)
		if err != nil {
			t.Fatal(err)
		}
		if r2 < 0.999 {
			t.Errorf("%s: NV power R² = %g, want linear in K", g, r2)
		}
		wantSlope := 4.5
		if g == fpga.Grade1L {
			wantSlope = 3.1
		}
		if slope < wantSlope*0.9 || slope > wantSlope*1.15 {
			t.Errorf("%s: NV slope %.2f W/network, want ≈ %.1f (static per device)", g, slope, wantSlope)
		}
		// Virtualized schemes stay within ~1.5 W of a single device.
		for _, s := range f.Series[1:] {
			_, max := minMax(s.Y)
			if max > wantSlope+1.5 {
				t.Errorf("%s: %s reaches %.2f W, want near single-device", g, s.Name, max)
			}
		}
	}
}

func TestFig6VSDecreases(t *testing.T) {
	f, err := Fig6(fpga.Grade2)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("Fig. 6 has %d series, want 3 (no NV)", len(f.Series))
	}
	vs := f.Series[0]
	if vs.Name != "VS" {
		t.Fatalf("first series %q, want VS", vs.Name)
	}
	if vs.Y[len(vs.Y)-1] >= vs.Y[0] {
		t.Errorf("VS experimental power should decrease with K: %.3f -> %.3f", vs.Y[0], vs.Y[len(vs.Y)-1])
	}
}

func TestFig7Envelope(t *testing.T) {
	for _, g := range fpga.Grades() {
		f, err := Fig7(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range f.Series {
			if worst := maxAbs(s.Y); worst > 3.0 {
				t.Errorf("%s %s: worst error %.2f%% exceeds ±3%%", g, s.Name, worst)
			}
		}
	}
}

func TestFig8Ordering(t *testing.T) {
	f, err := Fig8(fpga.Grade2)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range f.Series {
		series[s.Name] = s.Y
	}
	nv, vs := series["NV"], series["VS"]
	vm20 := series["VM(α=20%)"]
	if nv == nil || vs == nil || vm20 == nil {
		t.Fatalf("missing series: %v", series)
	}
	// From K >= 2 the separate approach is the most efficient and the
	// merged approach the least (Section VI-B).
	for i := 1; i < len(f.X); i++ {
		if !(vs[i] < nv[i] && nv[i] < vm20[i]) {
			t.Errorf("K=%g: ordering VS %.1f < NV %.1f < VM20 %.1f violated", f.X[i], vs[i], nv[i], vm20[i])
		}
	}
	// The merged curve worsens with K.
	if vm20[len(vm20)-1] <= vm20[1] {
		t.Errorf("VM(α=20%%) efficiency should degrade with K: %.1f -> %.1f", vm20[1], vm20[len(vm20)-1])
	}
}

func TestTrieCalibrationTable(t *testing.T) {
	tbl, err := TrieCalibration()
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.String()
	for _, want := range []string{"3725", "9726", "16127"} {
		if !strings.Contains(s, want) {
			t.Errorf("calibration table missing %q:\n%s", want, s)
		}
	}
}

// fmtSscan wraps fmt.Sscan for table cells.
func fmtSscan(s string, dst interface{}) (int, error) {
	return fmt.Sscan(s, dst)
}

func TestUpdateCost(t *testing.T) {
	tbl, err := UpdateCost()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("update cost rows = %d, want 2 (VS, VM)", len(tbl.Rows))
	}
	var vsW, vmW float64
	if _, err := fmtSscan(tbl.Rows[0][1], &vsW); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(tbl.Rows[1][1], &vmW); err != nil {
		t.Fatal(err)
	}
	if vmW <= vsW {
		t.Errorf("merged writes/op %.1f not above separate %.1f ([6]'s claim)", vmW, vsW)
	}
	var vsRet, vmRet float64
	if _, err := fmtSscan(tbl.Rows[0][5], &vsRet); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(tbl.Rows[1][5], &vmRet); err != nil {
		t.Fatal(err)
	}
	if vmRet >= vsRet {
		t.Errorf("merged retained throughput %.4f not below separate %.4f at 1M ops/s", vmRet, vsRet)
	}
}

func TestDeviceFit(t *testing.T) {
	tbl, err := DeviceFit()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("device fit rows = %d, want 4", len(tbl.Rows))
	}
	// Right-sized NV must be far below LX760 NV at every K, and the
	// VS-vs-right-sized ratio must grow with K (crossover behaviour).
	prevRatio := 0.0
	for _, row := range tbl.Rows {
		var nv760, nvFit, vs float64
		if _, err := fmtSscan(row[1], &nv760); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(row[2], &nvFit); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(row[3], &vs); err != nil {
			t.Fatal(err)
		}
		if nvFit >= nv760/3 {
			t.Errorf("right-sized NV %.2f not far below LX760 NV %.2f", nvFit, nv760)
		}
		ratio := nvFit / vs
		if ratio <= prevRatio {
			t.Errorf("NV-fit/VS ratio %.2f not growing with K (prev %.2f)", ratio, prevRatio)
		}
		prevRatio = ratio
	}
	// At K=15 the shared device must have pulled ahead of even the
	// right-sized fleet.
	if prevRatio <= 1 {
		t.Errorf("at K=15 right-sized NV/VS ratio %.2f, want > 1 (virtualization wins eventually)", prevRatio)
	}
}

func TestBraidingComparison(t *testing.T) {
	tbl, err := BraidingComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("braiding rows = %d, want 4", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		var plain, braided int
		if _, err := fmtSscan(row[1], &plain); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(row[2], &braided); err != nil {
			t.Fatal(err)
		}
		if braided > plain {
			t.Errorf("%s: braided %d nodes above plain %d", row[0], braided, plain)
		}
	}
	// The mirrored pair must braid to near-perfect overlap.
	var alpha float64
	if _, err := fmtSscan(tbl.Rows[3][4], &alpha); err != nil {
		t.Fatal(err)
	}
	if alpha < 0.99 {
		t.Errorf("mirrored braided α = %.3f, want ≈ 1", alpha)
	}
}

func TestLoadSweep(t *testing.T) {
	f, err := LoadSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatalf("load sweep series = %d, want 2", len(f.Series))
	}
	vs, vm := f.Series[0].Y, f.Series[1].Y
	// VS absorbs every load level; VM collapses past 1/K.
	for i, load := range f.X {
		if vs[i] < 0.99 {
			t.Errorf("VS at load %.2f delivered %.3f, want ~1", load, vs[i])
		}
		if load <= 0.20 && vm[i] < 0.99 {
			t.Errorf("VM below capacity (load %.2f) delivered %.3f, want ~1", load, vm[i])
		}
		if load >= 0.5 {
			want := 1 / (4 * load)
			if vm[i] > want*1.15 || vm[i] < want*0.85 {
				t.Errorf("VM at load %.2f delivered %.3f, want ≈ %.3f (capacity share)", load, vm[i], want)
			}
		}
	}
}

func TestCompactionEffect(t *testing.T) {
	tbl, err := CompactionEffect()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("ortc rows = %d, want 2", len(tbl.Rows))
	}
	var before, after int
	if _, err := fmtSscan(tbl.Rows[0][1], &before); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(tbl.Rows[1][1], &after); err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("ORTC did not shrink the table: %d -> %d routes", before, after)
	}
}

func TestGroupedMerge(t *testing.T) {
	tbl, err := GroupedMerge()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("grouped rows = %d, want 5", len(tbl.Rows))
	}
	// Power falls and per-VN capacity falls monotonically as groups grow.
	prevW, prevG := 1e9, 1e9
	for _, row := range tbl.Rows {
		var w, g float64
		if _, err := fmtSscan(row[2], &w); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(row[3], &g); err != nil {
			t.Fatal(err)
		}
		if w >= prevW {
			t.Errorf("power %.2f not below previous %.2f", w, prevW)
		}
		if g >= prevG {
			t.Errorf("per-VN capacity %.1f not below previous %.1f", g, prevG)
		}
		prevW, prevG = w, g
	}
}

// minMax returns the extrema; zeros for an empty slice.
func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// maxAbs returns the largest absolute value; 0 for an empty slice.
func maxAbs(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, math.Abs(x))
	}
	return m
}

// linFit fits y = a + b·x by least squares and returns the coefficients and
// the coefficient of determination R² (the linear power-vs-frequency checks
// of Figures 2 and 5).
func linFit(x, y []float64) (a, b, r2 float64, err error) {
	n := len(x)
	if n != len(y) {
		return 0, 0, 0, fmt.Errorf("linFit: length mismatch %d vs %d", n, len(y))
	}
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("linFit: need >= 2 points, got %d", n)
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx, my = mx/float64(n), my/float64(n)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, fmt.Errorf("linFit: degenerate x (zero variance)")
	}
	b = sxy / sxx
	a = my - b*mx
	if syy == 0 {
		return a, b, 1, nil // constant y fits exactly
	}
	var ssRes float64
	for i := range x {
		r := y[i] - (a + b*x[i])
		ssRes += r * r
	}
	return a, b, 1 - ssRes/syy, nil
}

func TestMinMax(t *testing.T) {
	lo, hi := minMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Errorf("minMax = %g,%g", lo, hi)
	}
	if a, b := minMax(nil); a != 0 || b != 0 {
		t.Error("minMax(nil) != 0,0")
	}
}

func TestMaxAbs(t *testing.T) {
	if got := maxAbs([]float64{-3, 2}); got != 3 {
		t.Errorf("maxAbs = %g, want 3", got)
	}
	if maxAbs(nil) != 0 {
		t.Error("maxAbs(nil) != 0")
	}
}

func TestLinFitExact(t *testing.T) {
	x := []float64{100, 200, 300, 400}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 2.5 + 13.65*v
	}
	a, b, r2, err := linFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-2.5) > 1e-9 || math.Abs(b-13.65) > 1e-9 {
		t.Errorf("fit = %g + %g x", a, b)
	}
	if r2 < 0.999999 {
		t.Errorf("R² = %g, want 1", r2)
	}
}

func TestLinFitErrors(t *testing.T) {
	if _, _, _, err := linFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, _, _, err := linFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, _, err := linFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("zero-variance x accepted")
	}
}

func TestLinFitConstantY(t *testing.T) {
	a, b, r2, err := linFit([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if a != 5 || b != 0 || r2 != 1 {
		t.Errorf("constant fit = %g + %g x, R²=%g", a, b, r2)
	}
}

// Property: the least-squares residual of the fitted line never exceeds the
// residual of the mean-only model (R² >= 0).
func TestLinFitR2NonNegative(t *testing.T) {
	f := func(seed uint32) bool {
		n := 3 + int(seed%8)
		x := make([]float64, n)
		y := make([]float64, n)
		s := float64(seed)
		for i := range x {
			x[i] = float64(i) + 1
			s = math.Mod(s*9301+49297, 233280)
			y[i] = s / 1000
		}
		_, _, r2, err := linFit(x, y)
		if err != nil {
			return false
		}
		return r2 >= -1e-9 && r2 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
