// Package scenario is the slice-quantized run engine behind netsim's
// runners. It owns what every run shares — the coordinator loop (traffic
// slices, then a bounded drain, then a final boundary), telemetry threading
// (one unified series row per slice, flight traces, events), and governor
// actuation (slice-grain observe, deterministic pacer actuation) — while
// pluggable stressors and a per-run kernel supply the rest through a small
// hook surface.
//
// Determinism: every control decision (stressor hooks, governor observe,
// telemetry rows) runs on the coordinating goroutine; kernels may fan
// disjoint per-engine work out over the sweep worker pool, but must fold
// results back in engine order. A run is then a pure function of its seeds
// and configuration — byte-identical at any -j.
package scenario

import (
	"fmt"
	"math"

	"vrpower/internal/energy"
	"vrpower/internal/fpga"
	"vrpower/internal/governor"
	"vrpower/internal/power"
)

// SliceStats is what a kernel measured over one executed slice; the Engine
// turns it into the unified telemetry row and the governor's sample.
type SliceStats struct {
	// Util is the per-engine slice-local stage utilization feeding the
	// power model.
	Util []float64
	// Delivered is the number of packets delivered during this slice (the
	// throughput column's numerator).
	Delivered int64
	// Backlog is the queued-arrival depth at slice end.
	Backlog int
	// Scrubs and Updates are the active control-plane operation counts
	// (down/reloading engines, armed update batches).
	Scrubs, Updates int
	// Recoveries is the cumulative journaled-recovery count (replays +
	// rollbacks) through this slice; DegradedVNs the networks currently
	// watchdog-degraded. Both stay zero without the chaos stressor.
	Recoveries  int
	DegradedVNs int
	// Avail flags each network as in service; nil means all up.
	Avail []bool
	// Reloading flags engines mid-reload for the governor's sample (their
	// utilization spike is transient); nil when none are.
	Reloading []bool
}

// A Kernel executes the data-plane cycles of one slice. Exactly one kernel
// drives a run; stressors modulate it through shared state.
type Kernel interface {
	// RunSlice executes cycles [b, b+n). live is false during the drain
	// (no new arrivals). The returned stats feed the slice's telemetry row
	// and governor sample.
	RunSlice(b, n int64, live bool) (SliceStats, error)
	// Outstanding reports in-flight work (queued arrivals, pending
	// lookups) that must complete before the run can end.
	Outstanding() bool
}

// Engine is one slice-quantized run: configuration plus the plumbing every
// run shares. Zero value is not usable; fill the struct and call Run.
type Engine struct {
	// Cycles is the offered-traffic window, rounded up to whole slices;
	// SliceCycles the control-plane quantum.
	Cycles      int64
	SliceCycles int64
	// MaxDrainSlices bounds the post-traffic drain in which stressors and
	// the kernel finish outstanding work. Zero means no drain at all.
	MaxDrainSlices int

	// K, Design, FmaxMHz describe the plant for power/throughput telemetry
	// and the governor.
	K       int
	Design  power.SystemDesign
	FmaxMHz float64

	// Tel is the run's telemetry bundle; nil defaults to NoTelemetry.
	Tel *Telemetry
	// Gov is the run's governor actuation, built by NewGovRun; nil runs
	// ungoverned.
	Gov *GovRun
	// Energy is the run's event-energy meter; nil runs unmetered. The
	// engine owns the time-dependent half of the accounting: static-power
	// integration per slice at the active DVFS tier, and the transition
	// charge whenever the governor moves the ladder. Kernels and stressors
	// charge their own events (lookups, bubbles, sweeps, reload writes).
	Energy *energy.Meter

	Stressors []Stressor
	Kernel    Kernel

	// TrafficCycles and DrainCycles are filled in by Run.
	TrafficCycles int64
	DrainCycles   int64

	// Clock-tier cursor for energy integration: the DVFS fraction the slice
	// just executed ran at, and the ladder rung that chose it. Updated by
	// observe from each governed decision; ungoverned runs stay at full rate.
	curFreqFrac float64
	curRung     int
	// Cumulative-energy cursors turning the meter's totals into per-slice
	// series deltas.
	prevDynFJ    int64
	prevStaticFJ int64
}

// observe closes one slice: telemetry row from the kernel's stats, governor
// observe + actuation for the next slice, and the slice's energy accounting
// (static integration at the tier the slice ran at, transition charges when
// the ladder moved, per-slice deltas for the series columns).
func (e *Engine) observe(b, n int64, st SliceStats) {
	powerW, capW, rung := SlicePower(e.Design, st.Util), 0.0, 0.0
	var dec *governor.Decision
	if e.Gov != nil {
		d := e.Gov.Observe(b, n, st.Util, st.Reloading)
		powerW, capW, rung = d.PowerW, d.CapW, float64(d.ObservedRung)
		dec = &d
	}
	dynJ, staticJ, jPerBit := 0.0, 0.0, 0.0
	if e.Energy != nil {
		// The slice just executed ran at the tier the PREVIOUS decision
		// chose (full rate before any decision): integrate leakage over its
		// stretched wall time, then advance the cursor to the fresh
		// actuation and charge a full-pipe flush per engine if it moved.
		frac := e.curFreqFrac
		if frac == 0 {
			frac = 1
		}
		e.Energy.StaticSlice(n, frac)
		if dec != nil {
			if dec.RungIndex != e.curRung {
				for eng := range e.Energy.Model().Engines {
					e.Energy.Transition(eng, e.engineLowVN(eng))
				}
				e.curRung = dec.RungIndex
			}
			e.curFreqFrac = dec.Rung.FreqFrac
		}
		dynFJ, staticFJ := e.Energy.DynTotalFJ(), e.Energy.StaticTotalFJ()
		dDyn, dStatic := dynFJ-e.prevDynFJ, staticFJ-e.prevStaticFJ
		e.prevDynFJ, e.prevStaticFJ = dynFJ, staticFJ
		dynJ = float64(dDyn) / 1e15
		staticJ = float64(dStatic) / 1e15
		if st.Delivered > 0 {
			jPerBit = float64(dDyn+dStatic) / 1e15 /
				(float64(st.Delivered) * fpga.MinPacketBytes * 8)
		}
	}
	e.Tel.AppendSlice(e.K, b, powerW, SliceGbps(e.FmaxMHz, st.Delivered, n), st.Backlog,
		st.Scrubs, st.Updates, st.Recoveries, st.DegradedVNs, capW, rung,
		dynJ, staticJ, jPerBit, st.Avail)
}

// engineLowVN maps an engine to the lowest VNID it serves — the VNID
// control-plane energy on that engine is attributed to. Per-engine schemes
// serve network e from engine e; the merged scheme's single engine charges
// network 0.
func (e *Engine) engineLowVN(eng int) int {
	if eng < e.K {
		return eng
	}
	return 0
}

// boundary runs every stressor's Boundary hook in registration order.
func (e *Engine) boundary(b int64, draining bool) error {
	for _, s := range e.Stressors {
		if err := s.Boundary(b, draining); err != nil {
			return fmt.Errorf("scenario: %s boundary at %d: %w", s.Name(), b, err)
		}
	}
	return nil
}

// preSlice runs every stressor's PreSlice hook in registration order.
func (e *Engine) preSlice(b, n int64, draining bool) error {
	for _, s := range e.Stressors {
		if err := s.PreSlice(b, n, draining); err != nil {
			return fmt.Errorf("scenario: %s pre-slice at %d: %w", s.Name(), b, err)
		}
	}
	return nil
}

// outstanding reports whether any stressor or the kernel still has work.
func (e *Engine) outstanding() bool {
	if e.Kernel.Outstanding() {
		return true
	}
	for _, s := range e.Stressors {
		if s.Outstanding() {
			return true
		}
	}
	return false
}

// Run drives the full lifecycle: traffic slices, bounded drain, final
// boundary. See the package comment for the per-slice hook order.
func (e *Engine) Run() error {
	if e.Cycles <= 0 {
		return fmt.Errorf("scenario: run of %d cycles, want > 0", e.Cycles)
	}
	if e.SliceCycles < 1 {
		return fmt.Errorf("scenario: slice of %d cycles, want >= 1", e.SliceCycles)
	}
	if e.Kernel == nil {
		return fmt.Errorf("scenario: no kernel")
	}
	if e.Tel == nil {
		e.Tel = NoTelemetry
	}
	S := e.SliceCycles
	slices := e.Cycles / S
	if e.Cycles%S != 0 {
		slices++
	}
	// Every cycle the run can reach, the rounded window and the drain bound
	// after it, must fit in an int64.
	if drain := int64(max(e.MaxDrainSlices, 0)); slices > math.MaxInt64/S-drain {
		return fmt.Errorf("scenario: %d cycles in %d-cycle slices plus %d drain slices overflow int64",
			e.Cycles, S, e.MaxDrainSlices)
	}
	e.TrafficCycles = slices * S
	e.Tel.InitSeries(e.K)

	for t := int64(0); t < slices; t++ {
		b := t * S
		if err := e.boundary(b, false); err != nil {
			return err
		}
		if err := e.preSlice(b, S, false); err != nil {
			return err
		}
		st, err := e.Kernel.RunSlice(b, S, true)
		if err != nil {
			return err
		}
		e.observe(b, S, st)
	}

	// Drain: no new traffic, but stressors and the kernel keep working
	// until everything outstanding lands (or the bound trips — e.g. a dead
	// engine that will never come back).
	drained := int64(0)
	for d := 0; d < e.MaxDrainSlices && e.outstanding(); d++ {
		b := e.TrafficCycles + drained
		if err := e.boundary(b, true); err != nil {
			return err
		}
		if err := e.preSlice(b, S, true); err != nil {
			return err
		}
		st, err := e.Kernel.RunSlice(b, S, false)
		if err != nil {
			return err
		}
		e.observe(b, S, st)
		drained += S
	}
	e.DrainCycles = drained
	// A final boundary lands work that completed exactly at the bound.
	return e.boundary(e.TrafficCycles+drained, true)
}
