// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables II–III, Figures 2–8) plus the Section V-E trie
// calibration, emitting them as report tables/figures. It is the single
// source of truth shared by cmd/figures and the root benchmark harness, and
// EXPERIMENTS.md records its output against the paper.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"vrpower/internal/core"
	"vrpower/internal/fpga"
	"vrpower/internal/obs"
	"vrpower/internal/power"
	"vrpower/internal/report"
	"vrpower/internal/rib"
	"vrpower/internal/sweep"
	"vrpower/internal/trie"
)

// Run instrumentation (surfaced by cmd/figures -stats): how much work
// figure regeneration did and how long each sweep point took. Counters are
// atomic and allocation-free, so they are always on.
var (
	obsSweepPoints  = obs.NewCounter("experiments.sweep_points")
	obsRoutersBuilt = obs.NewCounter("experiments.routers_built")
	obsProfileReuse = obs.NewCounter("experiments.profile_reuse_hits")
	obsPointLatency = obs.NewHistogram("experiments.sweep_point_latency")
)

// Frequencies is the operating-frequency sweep of Figures 2 and 3 (MHz).
var Frequencies = []float64{100, 150, 200, 250, 300, 350, 400}

// KSweep is the virtual-network sweep of Figures 5–8. The paper stops at 15
// because the separate approach exhausts I/O pins beyond that (Section VI-A).
var KSweep = ks(1, 15)

// KSweepMemory is the wider sweep of Fig. 4, which sizes memory without
// placing it on the device.
var KSweepMemory = ks(2, 30)

func ks(lo, hi int) []float64 {
	out := make([]float64, 0, hi-lo+1)
	for k := lo; k <= hi; k++ {
		out = append(out, float64(k))
	}
	return out
}

// Alphas are the merging efficiencies the paper evaluates.
var Alphas = struct{ High, Low float64 }{High: 0.8, Low: 0.2}

var (
	profOnce sync.Once
	profVal  core.TableProfile
	profErr  error
)

// Profile returns the cached reference table profile (Section V-E). The
// profile is built once per process; every later call is a cache hit,
// counted so -stats shows how much table-generation work the cache saved.
func Profile() (core.TableProfile, error) {
	built := false
	profOnce.Do(func() { built = true; profVal, profErr = core.PaperProfile() })
	if !built {
		obsProfileReuse.Inc()
	}
	return profVal, profErr
}

// TableII renders the device inventory (Table II).
func TableII() *report.Table {
	d := fpga.XC6VLX760()
	t := report.NewTable("Table II: Virtex-6 "+d.Name+" device specs", "Resource", "Amount")
	t.AddF("Logic Cells", fmt.Sprintf("%dK", d.LogicCells/1000))
	t.AddF("Max. distributed RAM", fmt.Sprintf("%d Mb", d.DistRAMBits/(1024*fpga.Kb)))
	t.AddF("Block RAM", fmt.Sprintf("%d Mb", d.BRAMBits/(1024*fpga.Kb)))
	t.AddF("Max. I/O pins", d.IOPins)
	return t
}

// TableIII renders the BRAM power model (Table III).
func TableIII() *report.Table {
	t := report.NewTable("Table III: BRAM power model", "Setup", "Power (µW)")
	for _, g := range fpga.Grades() {
		for _, m := range []fpga.BRAMMode{fpga.BRAM18Mode, fpga.BRAM36Mode} {
			t.AddF(fmt.Sprintf("%s (%s)", m, g),
				fmt.Sprintf("⌈M/%s⌉ × %.2f × f", m, power.BRAMCoeffMicroW(g, m)))
		}
	}
	return t
}

// Fig2 renders BRAM power vs operating frequency for one block of each type
// and grade (mW).
func Fig2() *report.Figure {
	f := report.NewFigure("Fig. 2: BRAM power vs operating frequency (mW per block)",
		"MHz", Frequencies)
	for _, m := range []fpga.BRAMMode{fpga.BRAM18Mode, fpga.BRAM36Mode} {
		for _, g := range fpga.Grades() {
			y := make([]float64, len(Frequencies))
			for i, fr := range Frequencies {
				y[i] = power.BRAMBlockWatts(g, m, fr) * 1e3
			}
			mustAdd(f, fmt.Sprintf("%s(%s)", m, g), y)
		}
	}
	return f
}

// Fig3 renders per-stage logic and signal power vs frequency (mW).
func Fig3() *report.Figure {
	f := report.NewFigure("Fig. 3: per-stage logic and signal power (mW)",
		"MHz", Frequencies)
	for _, g := range fpga.Grades() {
		logic := make([]float64, len(Frequencies))
		sig := make([]float64, len(Frequencies))
		for i, fr := range Frequencies {
			logic[i] = power.LogicOnlyStageWatts(g, fr) * 1e3
			sig[i] = power.SignalStageWatts(g, fr) * 1e3
		}
		mustAdd(f, fmt.Sprintf("logic(%s)", g), logic)
		mustAdd(f, fmt.Sprintf("signal(%s)", g), sig)
	}
	return f
}

// Fig4 renders pointer and NHI memory requirements vs number of virtual
// networks for the merged (α = 80 %, 20 %) and separate approaches, in Mb.
func Fig4() (pointer, nhi *report.Figure, err error) {
	prof, err := Profile()
	if err != nil {
		return nil, nil, err
	}
	pointer = report.NewFigure("Fig. 4 (left): pointer memory (Mb)", "K", KSweepMemory)
	nhi = report.NewFigure("Fig. 4 (right): NHI memory (Mb)", "K", KSweepMemory)
	type variant struct {
		name   string
		scheme core.Scheme
		alpha  float64
	}
	for _, v := range []variant{
		{fmt.Sprintf("merged(α=%.0f%%)", Alphas.High*100), core.VM, Alphas.High},
		{fmt.Sprintf("merged(α=%.0f%%)", Alphas.Low*100), core.VM, Alphas.Low},
		{"separate", core.VS, 0},
	} {
		ptrY := make([]float64, len(KSweepMemory))
		nhiY := make([]float64, len(KSweepMemory))
		for i, kf := range KSweepMemory {
			cfg := core.Config{Scheme: v.scheme, K: int(kf), ClockGating: true}
			p, n, err := core.MemoryDemand(cfg, prof, v.alpha)
			if err != nil {
				return nil, nil, err
			}
			ptrY[i] = mb(p)
			nhiY[i] = mb(n)
		}
		mustAdd(pointer, v.name, ptrY)
		mustAdd(nhi, v.name, nhiY)
	}
	return pointer, nhi, nil
}

func mb(bits int64) float64 { return float64(bits) / (1024 * 1024) }

// sweepVariant describes one curve of the Fig. 5–8 sweeps.
type sweepVariant struct {
	Name   string
	Scheme core.Scheme
	Alpha  float64
}

func sweepVariants(includeNV bool) []sweepVariant {
	vs := []sweepVariant{}
	if includeNV {
		vs = append(vs, sweepVariant{"NV", core.NV, 0})
	}
	vs = append(vs,
		sweepVariant{"VS", core.VS, 0},
		sweepVariant{fmt.Sprintf("VM(α=%.0f%%)", Alphas.High*100), core.VM, Alphas.High},
		sweepVariant{fmt.Sprintf("VM(α=%.0f%%)", Alphas.Low*100), core.VM, Alphas.Low},
	)
	return vs
}

// sweepGrid evaluates fn over the K sweep for every variant — the
// (variant, K, grade) grid behind Figures 5–8. The points are independent,
// so they fan out over the bounded worker pool of internal/sweep (GOMAXPROCS
// workers by default; cmd/figures -j overrides) and are reassembled in grid
// order, which together with the deterministic builders makes the result
// byte-identical to a sequential run at any pool size.
func sweepGrid(grade fpga.SpeedGrade, includeNV bool, fn func(r *core.Router) (float64, error)) (x []float64, series []report.Series, err error) {
	prof, err := Profile()
	if err != nil {
		return nil, nil, err
	}
	variants := sweepVariants(includeNV)
	nk := len(KSweep)
	ys, err := sweep.Run(len(variants)*nk, func(p int) (float64, error) {
		defer obsPointLatency.Since(time.Now())
		obsSweepPoints.Inc()
		v, k := variants[p/nk], int(KSweep[p%nk])
		cfg := core.Config{Scheme: v.Scheme, K: k, Grade: grade, ClockGating: true}
		r, err := core.BuildAnalytic(cfg, prof, v.Alpha)
		if err != nil {
			return 0, fmt.Errorf("%s K=%d: %w", v.Name, k, err)
		}
		obsRoutersBuilt.Inc()
		return fn(r)
	})
	if err != nil {
		return nil, nil, err
	}
	for vi, v := range variants {
		series = append(series, report.Series{Name: v.Name, Y: ys[vi*nk : (vi+1)*nk : (vi+1)*nk]})
	}
	return KSweep, series, nil
}

// Fig5 renders total (post place-and-route) power of all schemes (W).
func Fig5(grade fpga.SpeedGrade) (*report.Figure, error) {
	a := power.NewAnalyzer()
	x, series, err := sweepGrid(grade, true, func(r *core.Router) (float64, error) {
		b, err := r.MeasuredPower(a)
		if err != nil {
			return 0, err
		}
		return b.Total(), nil
	})
	if err != nil {
		return nil, err
	}
	f := report.NewFigure(fmt.Sprintf("Fig. 5: total power, all schemes, grade %s (W)", grade), "K", x)
	f.Series = series
	return f, nil
}

// Fig6 renders total power of the virtualized schemes only (W).
func Fig6(grade fpga.SpeedGrade) (*report.Figure, error) {
	a := power.NewAnalyzer()
	x, series, err := sweepGrid(grade, false, func(r *core.Router) (float64, error) {
		b, err := r.MeasuredPower(a)
		if err != nil {
			return 0, err
		}
		return b.Total(), nil
	})
	if err != nil {
		return nil, err
	}
	f := report.NewFigure(fmt.Sprintf("Fig. 6: total power, virtualized schemes, grade %s (W)", grade), "K", x)
	f.Series = series
	return f, nil
}

// Fig7 renders the model-vs-experimental percentage error (%).
func Fig7(grade fpga.SpeedGrade) (*report.Figure, error) {
	a := power.NewAnalyzer()
	x, series, err := sweepGrid(grade, true, func(r *core.Router) (float64, error) {
		m, err := r.ModelPower()
		if err != nil {
			return 0, err
		}
		e, err := r.MeasuredPower(a)
		if err != nil {
			return 0, err
		}
		return power.PercentError(m.Total(), e.Total()), nil
	})
	if err != nil {
		return nil, err
	}
	f := report.NewFigure(fmt.Sprintf("Fig. 7: model vs experimental error, grade %s (%%)", grade), "K", x)
	f.Series = series
	return f, nil
}

// Fig8 renders power per unit throughput (mW/Gbps).
func Fig8(grade fpga.SpeedGrade) (*report.Figure, error) {
	a := power.NewAnalyzer()
	x, series, err := sweepGrid(grade, true, func(r *core.Router) (float64, error) {
		b, err := r.MeasuredPower(a)
		if err != nil {
			return 0, err
		}
		return power.MilliwattsPerGbps(b.Total(), r.ThroughputGbps()), nil
	})
	if err != nil {
		return nil, err
	}
	f := report.NewFigure(fmt.Sprintf("Fig. 8: power per unit throughput, grade %s (mW/Gbps)", grade), "K", x)
	f.Series = series
	return f, nil
}

// TrieCalibration renders the Section V-E trie statistics of the synthetic
// reference table against the paper's published values.
func TrieCalibration() (*report.Table, error) {
	tbl, err := rib.Generate("potaroo-substitute", 3725, 1)
	if err != nil {
		return nil, err
	}
	tr := trie.Build(tbl.Routes)
	plain, pushed := tr.Stats(), trie.StatsOf(tr.Levels())
	t := report.NewTable("Section V-E: routing table trie statistics",
		"Quantity", "Paper", "This repo")
	t.AddF("Prefixes", 3725, tbl.Len())
	t.AddF("Trie nodes (no leaf pushing)", 9726, plain.Nodes)
	t.AddF("Trie nodes (leaf pushed)", 16127, pushed.Nodes)
	return t, nil
}

func mustAdd(f *report.Figure, name string, y []float64) {
	if err := f.AddSeries(name, y); err != nil {
		panic(err) // series lengths are fixed by construction
	}
}
