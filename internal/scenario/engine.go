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
)

// SliceStats is what a kernel measured over one executed slice; the Engine
// turns it into the unified telemetry row and the governor's sample.
type SliceStats struct {
	// Util is the per-engine slice-local stage utilization: the governor's
	// memory of what each engine serves, for its recovery prediction.
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
	// Reloading flags engines mid-reload for the governor's sample (they
	// serve nothing, so their utilization is not their load); nil when none
	// are.
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

	// K and FmaxMHz describe the plant for throughput telemetry.
	K       int
	FmaxMHz float64

	// Tel is the run's telemetry bundle; nil defaults to NoTelemetry.
	Tel *Telemetry
	// Gov is the run's governor actuation, built by NewGovRun; nil runs
	// ungoverned.
	Gov *GovRun
	// Meters are the run's device meters in device order, each the whole
	// run's account of one device (none: the run is unmetered), and the one
	// account of a slice's power: its series watts and the governor's
	// observation are the joules the meters charged over its time. The
	// engine owns the time-dependent half of the accounting: static-power
	// integration per slice on every meter at the rung in force (its DVFS
	// tier, and no leakage on the devices it powers off), and the transition
	// charge on the first, the governed device's, when a ladder move takes
	// effect. A governed run has one device. Kernels and stressors charge
	// their own events (lookups, bubbles, sweeps, reload and install writes).
	Meters []*energy.Meter

	Stressors []Stressor
	Kernel    Kernel

	// TrafficCycles and DrainCycles are filled in by Run.
	TrafficCycles int64
	DrainCycles   int64

	// curRung is the ladder rung the previous slice ran at (0, full rate,
	// before any decision); devW is the slice's per-device watts, in device
	// order.
	curRung int
	devW    []float64
}

// observe closes one slice: its energy account on the device meters, the
// telemetry row, and the governor's observation of the metered watts with
// its actuation for the next slice.
func (e *Engine) observe(b, n int64, st SliceStats) {
	// The slice ran at the rung the previous decision chose. A move onto it
	// took effect at the slice's start and is charged to it: one full-pipe
	// flush per engine of the governed device.
	frac := 1.0
	var quiesced []bool
	if e.Gov != nil {
		r, idx := e.Gov.Rung()
		frac, quiesced = r.FreqFrac, r.Quiesced
		if idx != e.curRung && len(e.Meters) > 0 {
			gm := e.Meters[0]
			for eng := range gm.Model().Engines {
				gm.Transition(eng, e.engineLowVN(eng))
			}
		}
		e.curRung = idx
	}
	// Each device's watts are its femtojoules over the slice's wall time at
	// its clock and that rung.
	var dDyn, dStatic int64
	e.devW = e.devW[:0]
	for _, mt := range e.Meters {
		perDev, dyn, static := mt.CloseSlice(n, frac, quiesced)
		dDyn += dyn
		dStatic += static
		// fJ × 1e-15 J over n / (f·1e6·frac) s.
		perFJ := mt.Model().FMHz * frac / (float64(n) * 1e9)
		for _, fj := range perDev {
			e.devW = append(e.devW, float64(fj)*perFJ)
		}
	}
	powerW := 0.0
	for _, w := range e.devW {
		powerW += w
	}
	capW, rung := 0.0, 0.0
	if e.Gov != nil {
		d := e.Gov.Observe(b, n, st.Util, st.Reloading, powerW, e.devW)
		capW, rung = d.CapW, float64(d.ObservedRung)
	}
	jPerBit := 0.0
	if st.Delivered > 0 {
		jPerBit = float64(dDyn+dStatic) / 1e15 /
			(float64(st.Delivered) * fpga.MinPacketBytes * 8)
	}
	e.Tel.AppendSlice(e.K, b, powerW, SliceGbps(e.FmaxMHz, st.Delivered, n), st.Backlog,
		st.Scrubs, st.Updates, st.Recoveries, st.DegradedVNs, capW, rung,
		float64(dDyn)/1e15, float64(dStatic)/1e15, jPerBit, st.Avail)
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
	e.Tel.InitSeries(e.K, slices)

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
