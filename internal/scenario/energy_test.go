package scenario

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/energy"
	"vrpower/internal/fpga"
	"vrpower/internal/governor"
	"vrpower/internal/obs"
	"vrpower/internal/power"
)

// design is a synthetic router: engines pipelines of 16 18-Kb BRAM stages
// on one device at fMHz.
func design(engines int, fMHz float64) power.SystemDesign {
	eng := make([]power.EngineDesign, engines)
	for e := range eng {
		bits := make([]int64, 16)
		for i := range bits {
			bits[i] = 18 * 1024
		}
		eng[e] = power.EngineDesign{StageBits: bits, Utilization: 0.5}
	}
	return power.SystemDesign{FMHz: fMHz, Devices: 1, Engines: eng, ClockGating: true}
}

func meterFor(t *testing.T, d power.SystemDesign, k int) *energy.Meter {
	t.Helper()
	m, err := energy.NewModel(d)
	if err != nil {
		t.Fatal(err)
	}
	return energy.NewMeter(m, k)
}

// chargeKernel charges every engine of each meter a full-pipe lookup on a
// fixed share of the slice's cycles, scaled by the governor's clock
// fraction and skipping the engines it quiesced, and records each meter's
// running total when a slice starts (the previous slice's account closed).
type chargeKernel struct {
	meters []*energy.Meter
	gov    *GovRun
	share  float64
	totals [][]int64 // totals[i][m]: meter m's femtojoules before slice i
	govW   []float64 // the governor's observed watts, as each slice starts
}

func (k *chargeKernel) RunSlice(b, n int64, live bool) (SliceStats, error) {
	k.record()
	frac := 1.0
	var r governor.Rung
	if k.gov != nil {
		r, _ = k.gov.Rung()
		frac = r.FreqFrac
	}
	for _, mt := range k.meters {
		engines := mt.Model().Engines
		for e := range engines {
			if !r.QuiescedEngine(e) {
				mt.LookupN(e, e, engines[e].Stages()-1, int64(float64(n)*k.share*frac))
			}
		}
	}
	return SliceStats{Util: []float64{k.share, k.share, k.share}}, nil
}

func (k *chargeKernel) record() {
	row := make([]int64, len(k.meters))
	for m, mt := range k.meters {
		row[m] = mt.DynTotalFJ() + mt.StaticTotalFJ()
	}
	k.totals = append(k.totals, row)
	k.govW = append(k.govW, obs.TakeSnapshot().Gauge("governor.power_w"))
}

func (k *chargeKernel) Outstanding() bool { return false }

// seriesRows parses the series CSV into its rows of (column → value).
func seriesRows(t *testing.T, ts *obs.TimeSeries) []map[string]float64 {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(ts.CSV()), "\n")[1:] // past the schema line
	cols := strings.Split(lines[0], ",")
	var rows []map[string]float64
	for _, l := range lines[1:] {
		row := map[string]float64{}
		for i, f := range strings.Split(l, ",") {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				t.Fatal(err)
			}
			row[cols[i]] = v
		}
		rows = append(rows, row)
	}
	return rows
}

// rungFrac is the clock fraction of ladder rung i: the DVFS tiers, then the
// slowest tier for every rung past them.
func rungFrac(i int) float64 {
	tiers := fpga.DefaultClockTiers()
	return tiers[min(i, len(tiers)-1)]
}

// On a governed single-device run the meter is the one account: every row's
// power_w is the watts the governor observed, and the rows' watts over their
// times add up to the meter's joules.
func TestSliceWattsAreMeteredJoules(t *testing.T) {
	const slice, k = 1024, 3
	d := design(k, 300)
	mt := meterFor(t, d, k)
	// The cap lies under the full-rate draw and over the slowest tier's.
	gv, err := NewGovRun(&governor.Config{CapWatts: 4.56}, governor.Plant{Design: d, Scheme: core.VS, K: k}, k, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	kern := &chargeKernel{meters: []*energy.Meter{mt}, gov: gv, share: 0.9}
	tel := &Telemetry{Series: obs.NewTimeSeries()}
	e := Engine{Cycles: 24 * slice, SliceCycles: slice, K: k, FmaxMHz: 300, Tel: tel,
		Gov: gv, Meters: kern.meters, Kernel: kern}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	kern.record()
	rows := seriesRows(t, tel.Series)
	if gv.Report().Escalations == 0 {
		t.Fatal("the cap never bit: the rows cover only one clock")
	}
	var sumJ, peak float64
	for i, row := range rows {
		peak = max(peak, row["power_w"])
		if got, want := row["power_w"], kern.govW[i+1]; got != want {
			t.Errorf("row %d: power_w %v, governor observed %v", i, got, want)
		}
		sumJ += row["power_w"] * slice / (d.FMHz * 1e6 * rungFrac(int(row["gov_rung"])))
	}
	totalJ := float64(mt.DynTotalFJ()+mt.StaticTotalFJ()) / 1e15
	if tol := float64(len(rows)) * 4 * 0x1p-52 * totalJ; math.Abs(sumJ-totalJ) > tol {
		t.Errorf("Σ power_w × t = %.17g J, meter %.17g J (tolerance %.3g)", sumJ, totalJ, tol)
	}
	if g := gv.Report(); g.PeakPowerW != peak || g.FinalPowerW != rows[len(rows)-1]["power_w"] {
		t.Errorf("governor peak / final %v / %v W, rows %v / %v W",
			g.PeakPowerW, g.FinalPowerW, peak, rows[len(rows)-1]["power_w"])
	}
}

// Two meters at different clocks: each row's power_w is the sum of each
// device's femtojoules over the slice's seconds at that device's own clock.
func TestSliceWattsPerDeviceClock(t *testing.T) {
	const slice, k = 1024, 3
	meters := []*energy.Meter{meterFor(t, design(k, 300), k), meterFor(t, design(k, 200), k)}
	kern := &chargeKernel{meters: meters, share: 0.5}
	tel := &Telemetry{Series: obs.NewTimeSeries()}
	e := Engine{Cycles: 8 * slice, SliceCycles: slice, K: k, FmaxMHz: 300, Tel: tel,
		Meters: meters, Kernel: kern}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	kern.record()
	rows := seriesRows(t, tel.Series)
	for i, row := range rows {
		var want float64
		for m, mt := range meters {
			fj := kern.totals[i+1][m] - kern.totals[i][m]
			want += float64(fj) / 1e15 / (slice / (mt.Model().FMHz * 1e6))
		}
		if got := row["power_w"]; math.Abs(got-want) > 4*0x1p-52*want {
			t.Errorf("row %d: power_w %.17g, per-device sum %.17g", i, got, want)
		}
	}
	if last := kern.totals[len(rows)]; last[0] == last[1] {
		t.Error("both meters charged the same: the clocks are not told apart")
	}
}
