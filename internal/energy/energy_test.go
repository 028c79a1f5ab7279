package energy

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"vrpower/internal/fpga"
	"vrpower/internal/obs"
	"vrpower/internal/power"
)

// design builds a one-device test design over explicit stage sizes.
func design(grade fpga.SpeedGrade, mode fpga.BRAMMode, stageBits ...int64) power.SystemDesign {
	return power.SystemDesign{
		Grade:   grade,
		Mode:    mode,
		FMHz:    250,
		Devices: 1,
		Engines: []power.EngineDesign{{StageBits: stageBits, Utilization: 1}},
	}
}

func mustModel(t *testing.T, d power.SystemDesign) *Model {
	t.Helper()
	m, err := NewModel(d)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCoefficientExactness pins the published three-decimal coefficients to
// their exact femtojoule integers: coeff µW/MHz over one cycle is coeff pJ,
// so coeff×1000 fJ with no rounding for logic and BRAM.
func TestCoefficientExactness(t *testing.T) {
	cases := []struct {
		grade       fpga.SpeedGrade
		mode        fpga.BRAMMode
		bits        int64
		wantMem     int64 // fJ for one stage read
		wantLogic   int64 // fJ per stage-cycle
		description string
	}{
		{fpga.Grade2, fpga.BRAM18Mode, 18 * 1024, 13650, 5180, "one 18Kb block, -2"},
		{fpga.Grade2, fpga.BRAM36Mode, 36 * 1024, 24600, 5180, "one 36Kb block, -2"},
		{fpga.Grade1L, fpga.BRAM18Mode, 18 * 1024, 11000, 3937, "one 18Kb block, -1L"},
		{fpga.Grade1L, fpga.BRAM36Mode, 36 * 1024, 19700, 3937, "one 36Kb block, -1L"},
		{fpga.Grade2, fpga.BRAM18Mode, 18*1024 + 1, 2 * 13650, 5180, "block quantisation, -2"},
	}
	for _, c := range cases {
		m := mustModel(t, design(c.grade, c.mode, c.bits))
		e := &m.Engines[0]
		if e.MemFJ[0] != c.wantMem {
			t.Errorf("%s: MemFJ = %d, want %d", c.description, e.MemFJ[0], c.wantMem)
		}
		if e.LogicFJ != c.wantLogic {
			t.Errorf("%s: LogicFJ = %d, want %d", c.description, e.LogicFJ, c.wantLogic)
		}
	}
}

// TestDistRAMStageCost checks the LUT-quantised distributed-RAM stage cost:
// 64-bit quanta at the per-Kb coefficient, rounded once at model build.
func TestDistRAMStageCost(t *testing.T) {
	d := design(fpga.Grade2, fpga.BRAM18Mode, 100)
	d.DistRAMThresholdBits = 512
	m := mustModel(t, d)
	// 100 bits → 2 quanta ×64 bits = 128 bits = 0.125 Kb × 2.0 µW/Kb/MHz
	// = 0.25 pJ = 250 fJ.
	if got := m.Engines[0].MemFJ[0]; got != 250 {
		t.Errorf("dist-RAM stage = %d fJ, want 250", got)
	}

	d.Grade = fpga.Grade1L
	m = mustModel(t, d)
	// 0.125 Kb × 1.55 = 0.19375 pJ → 194 fJ after the single build-time round.
	if got := m.Engines[0].MemFJ[0]; got != 194 {
		t.Errorf("dist-RAM stage (-1L) = %d fJ, want 194", got)
	}
}

// TestPrefixSumsAndDerived checks CumMemFJ/CumFJ prefix sums, the full-pipe
// cost and the rounded mean word cost on a three-stage engine.
func TestPrefixSumsAndDerived(t *testing.T) {
	m := mustModel(t, design(fpga.Grade2, fpga.BRAM18Mode,
		18*1024, 2*18*1024, 18*1024)) // 1, 2, 1 blocks
	e := &m.Engines[0]
	wantMem := []int64{13650, 13650 + 27300, 13650 + 27300 + 13650}
	if !reflect.DeepEqual(e.CumMemFJ, wantMem) {
		t.Errorf("CumMemFJ = %v, want %v", e.CumMemFJ, wantMem)
	}
	for s, mem := range wantMem {
		want := mem + int64(s+1)*5180
		if e.CumFJ[s] != want {
			t.Errorf("CumFJ[%d] = %d, want %d", s, e.CumFJ[s], want)
		}
	}
	if e.FullFJ != e.CumFJ[2] {
		t.Errorf("FullFJ = %d, want CumFJ[N-1] = %d", e.FullFJ, e.CumFJ[2])
	}
	// Mean memory cost: 54600/3 = 18200 exactly.
	if e.WordFJ != 18200 {
		t.Errorf("WordFJ = %d, want 18200", e.WordFJ)
	}
}

// TestEngineDeviceMapping mirrors power.EngineDevice: one engine per device
// in the NV organisation, everything on device 0 otherwise.
func TestEngineDeviceMapping(t *testing.T) {
	nv := power.SystemDesign{
		Grade: fpga.Grade2, Mode: fpga.BRAM18Mode, FMHz: 250, Devices: 3,
		Engines: []power.EngineDesign{
			{StageBits: []int64{1024}, Utilization: 1},
			{StageBits: []int64{1024}, Utilization: 1},
			{StageBits: []int64{1024}, Utilization: 1},
		},
	}
	m := mustModel(t, nv)
	for i := range m.Engines {
		if m.Engines[i].Device != i {
			t.Errorf("NV engine %d on device %d, want %d", i, m.Engines[i].Device, i)
		}
	}
	vs := nv
	vs.Devices = 1
	m = mustModel(t, vs)
	for i := range m.Engines {
		if m.Engines[i].Device != 0 {
			t.Errorf("VS engine %d on device %d, want 0", i, m.Engines[i].Device)
		}
	}
}

// TestReportCountsEnginesPerDevice: a ledger of device meters joined in
// device order reports how many engine slots each device holds — a device
// rebased onto the zero Model (a crash) keeps its engines' slots, one that
// never held an engine has none, and an NV meter has one engine a device.
func TestReportCountsEnginesPerDevice(t *testing.T) {
	three := power.SystemDesign{
		Grade: fpga.Grade2, Mode: fpga.BRAM18Mode, FMHz: 250, Devices: 3,
		Engines: []power.EngineDesign{
			{StageBits: []int64{1024}, Utilization: 1},
			{StageBits: []int64{1024}, Utilization: 1},
			{StageBits: []int64{1024}, Utilization: 1},
		},
	}
	nv := mustModel(t, three)
	vs := three
	vs.Devices = 1
	dark := &Model{}
	crashed, spare := NewMeter(mustModel(t, vs), 3), NewMeter(dark, 3)
	crashed.Rebase(dark)
	spare.Rebase(&Model{Devices: 1})
	ledger := NewMeter(dark, 3)
	for _, m := range []*Meter{crashed, spare, NewMeter(nv, 3)} {
		ledger.Join(m)
	}
	r, err := ledger.Report(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 0, 1, 1, 1}; !reflect.DeepEqual(r.DeviceEngines, want) || len(r.DeviceStaticFJ) != len(want) || len(r.EngineDynFJ) != 6 {
		t.Errorf("engines per device %v over %d devices and %d engines, want %v over 5 and 6", r.DeviceEngines, len(r.DeviceStaticFJ), len(r.EngineDynFJ), want)
	}
}

// TestStaticSliceFJ checks the leakage integration: W × cycles/(f·frac) and
// the DVFS stretch — half the clock, twice the wall time, twice the energy.
func TestStaticSliceFJ(t *testing.T) {
	m := mustModel(t, design(fpga.Grade2, fpga.BRAM18Mode, 1024))
	// 4.5 W × 1e6 cycles / 250e6 Hz = 18 mJ = 1.8e13 fJ.
	if got, want := m.StaticSliceFJ(1e6, 1), int64(1.8e13); got != want {
		t.Errorf("StaticSliceFJ(1e6, 1) = %d, want %d", got, want)
	}
	if got, want := m.StaticSliceFJ(1e6, 0.5), int64(3.6e13); got != want {
		t.Errorf("StaticSliceFJ(1e6, 0.5) = %d, want %d (half clock leaks twice as long)", got, want)
	}
	if got := m.StaticSliceFJ(0, 1); got != 0 {
		t.Errorf("StaticSliceFJ(0, 1) = %d, want 0", got)
	}
	if got, want := m.StaticSliceFJ(1e6, 0), m.StaticSliceFJ(1e6, 1); got != want {
		t.Errorf("StaticSliceFJ frac 0 = %d, want full-rate %d", got, want)
	}
}

// TestNewModelValidation propagates the power design validation.
func TestNewModelValidation(t *testing.T) {
	bad := design(fpga.Grade2, fpga.BRAM18Mode, 1024)
	bad.Devices = 0
	if _, err := NewModel(bad); err == nil {
		t.Error("NewModel accepted Devices = 0")
	}
	bad = design(fpga.Grade2, fpga.BRAM18Mode)
	if _, err := NewModel(bad); err == nil {
		t.Error("NewModel accepted an engine with no stages")
	}
}

// TestMeterAttributionInvariant charges a mixture of every event class and
// checks the report's exact accounting identity, then corrupts an axis and
// expects Report to refuse.
func TestMeterAttributionInvariant(t *testing.T) {
	m := mustModel(t, design(fpga.Grade2, fpga.BRAM18Mode, 18*1024, 18*1024, 18*1024))
	mt := NewMeter(m, 2)
	mt.Lookup(0, 0, 2)
	mt.Lookup(0, 1, 0)
	mt.Bubble(0, 1)
	mt.AddWords(0, 0, 7)
	mt.Transition(0, 0)
	mt.CloseSlice(1000, 1, nil)

	r, err := mt.Report(640)
	if err != nil {
		t.Fatal(err)
	}
	dyn := r.MemFJ + r.ClockFJ + r.CtrlFJ
	var vn, eng int64
	for _, fj := range r.VNDynFJ {
		vn += fj
	}
	for _, fj := range r.EngineDynFJ {
		eng += fj
	}
	if vn != dyn || eng != dyn {
		t.Errorf("ΣVN %d, ΣEngine %d, components %d — must agree exactly", vn, eng, dyn)
	}
	if r.Lookups != 2 || r.Bubbles != 1 || r.Words != 7 || r.Transitions != 1 {
		t.Errorf("event counts = %d/%d/%d/%d, want 2/1/7/1",
			r.Lookups, r.Bubbles, r.Words, r.Transitions)
	}
	wantJPB := (r.DynJ + r.StaticJ) / 640
	if math.Abs(r.JPerBit-wantJPB) > 1e-30 {
		t.Errorf("JPerBit = %g, want %g", r.JPerBit, wantJPB)
	}

	mt.VNDynFJ[0]++ // break the identity
	if _, err := mt.Report(640); err == nil {
		t.Error("Report accepted a corrupted attribution axis")
	}
}

// TestFoldCommutes folds two worker meters in both orders and expects
// identical totals — the property that makes totals -j independent.
// TestBulkLookupChargeIsExact: a lookup's energy is a function of (engine,
// last stage) alone and every account is an integer sum, so charging a batch
// by its (engine, VN, last stage) counts must leave the meter — every field —
// and the per-lookup histogram exactly as charging its lookups one by one.
func TestBulkLookupChargeIsExact(t *testing.T) {
	d := design(fpga.Grade2, fpga.BRAM18Mode, 18*1024, 40*1024, 9*1024, 100*1024)
	d.Engines = append(d.Engines, power.EngineDesign{StageBits: []int64{2 * 1024, 70 * 1024}, Utilization: 1})
	m := mustModel(t, d)
	const k = 3
	type key struct{ e, vn, last int }
	rng := rand.New(rand.NewSource(4))
	counts := map[key]int64{}
	single, bulk := NewMeter(m, k), NewMeter(m, k)
	single.ObserveHist, bulk.ObserveHist = true, true

	snap := obs.TakeSnapshot()
	for i := 0; i < 5000; i++ {
		e := rng.Intn(len(m.Engines))
		c := key{e, rng.Intn(k), rng.Intn(m.Engines[e].Stages())}
		counts[c]++
		single.Lookup(c.e, c.vn, c.last)
	}
	singleHist := histLine(t, obs.ReportSince(snap))

	snap = obs.TakeSnapshot()
	for c, n := range counts {
		bulk.LookupN(c.e, c.vn, c.last, n)
	}
	bulk.LookupN(0, 0, 0, 0) // an empty count charges nothing
	if !reflect.DeepEqual(single, bulk) {
		t.Errorf("meters diverge:\nsingle %+v\nbulk   %+v", single, bulk)
	}
	if got := histLine(t, obs.ReportSince(snap)); got != singleHist {
		t.Errorf("per-lookup histogram diverges:\nsingle %s\nbulk   %s", singleHist, got)
	}
	if single.Lookups != 5000 || single.DynTotalFJ() <= 0 {
		t.Errorf("charged %d lookups, %d fJ", single.Lookups, single.DynTotalFJ())
	}
}

// histLine picks the per-lookup energy histogram's line (count, mean, p50,
// p99) out of an instrumentation report.
func histLine(t *testing.T, report string) string {
	t.Helper()
	for _, line := range strings.Split(report, "\n") {
		if strings.Contains(line, "energy.lookup_pj") {
			return line
		}
	}
	t.Fatalf("no energy.lookup_pj line in:\n%s", report)
	return ""
}

func TestFoldCommutes(t *testing.T) {
	m := mustModel(t, design(fpga.Grade2, fpga.BRAM18Mode, 18*1024, 18*1024))
	mk := func(seed int) *Meter {
		mt := NewMeter(m, 3)
		for i := 0; i < 50; i++ {
			mt.Lookup(0, (seed+i)%3, (seed+i)%2)
		}
		if seed%2 == 0 {
			mt.Bubble(0, seed%3)
		}
		mt.AddWords(0, 0, int64(seed))
		return mt
	}
	a1, b1 := mk(1), mk(2)
	ab := NewMeter(m, 3)
	ab.Fold(a1)
	ab.Fold(b1)
	ba := NewMeter(m, 3)
	ba.Fold(mk(2))
	ba.Fold(mk(1))
	ba.Fold(nil) // nil-safe
	if !reflect.DeepEqual(ab, ba) {
		t.Errorf("fold order changed the totals:\nab %+v\nba %+v", ab, ba)
	}
}

// TestIdentityVsEstimate is the energy↔power consistency check: for a steady
// uniform run — one lookup per cycle walking the full pipe at utilization 1 —
// the meter's integrated energy must equal the analytical power model's Watts
// multiplied by the run's wall time, within integer-picojoule rounding. The
// two computations share the coefficients but not the code path: Estimate
// multiplies float Watts, the meter sums exact femtojoule events.
func TestIdentityVsEstimate(t *testing.T) {
	for _, grade := range fpga.Grades() {
		d := power.SystemDesign{
			Grade:   grade,
			Mode:    fpga.BRAM18Mode,
			FMHz:    322.5,
			Devices: 1,
			Engines: []power.EngineDesign{{
				StageBits:   []int64{18 * 1024, 40 * 1024, 5 * 1024, 18 * 1024},
				Utilization: 1,
			}},
			ClockGating: true,
		}
		m := mustModel(t, d)
		mt := NewMeter(m, 1)

		const cycles = 1_000_000
		n := m.Engines[0].Stages()
		for i := 0; i < cycles; i++ {
			mt.Lookup(0, 0, n-1)
		}
		mt.CloseSlice(cycles, 1, nil)

		b, err := power.Estimate(d)
		if err != nil {
			t.Fatal(err)
		}
		seconds := float64(cycles) / (d.FMHz * 1e6)

		wantDynJ := (b.Logic + b.Memory) * seconds
		gotDynJ := float64(mt.DynTotalFJ()) / femtoPerJoule
		if diff := math.Abs(gotDynJ - wantDynJ); diff > 1e-9 { // < 1 nJ over 1M events
			t.Errorf("%s: dynamic: meter %.12g J, estimate×time %.12g J (diff %.3g)",
				grade, gotDynJ, wantDynJ, diff)
		}
		wantStaticJ := b.Static * seconds
		gotStaticJ := float64(mt.StaticTotalFJ()) / femtoPerJoule
		if diff := math.Abs(gotStaticJ - wantStaticJ); diff > 1e-12 { // one rounding, < 1 pJ
			t.Errorf("%s: static: meter %.12g J, estimate×time %.12g J (diff %.3g)",
				grade, gotStaticJ, wantStaticJ, diff)
		}
	}
}
