// Package core implements the paper's contribution: the three router
// organisations of Section IV — non-virtualized (NV), virtualized-separate
// (VS) and virtualized-merged (VM) — built on the trie, merge, pipeline,
// fpga and power substrates. A Router ties together the compiled lookup
// engines, their placement on the device, the achievable clock, and the
// analytical/measured power, exposing every quantity the paper's evaluation
// (Figures 4–8) reports.
package core

import (
	"fmt"

	"vrpower/internal/fpga"
	"vrpower/internal/pipeline"
	"vrpower/internal/power"
)

// Scheme selects the router organisation.
type Scheme int

const (
	// NV is the conventional approach: one device per network (Eq. 1/2).
	NV Scheme = iota
	// VS is virtualized-separate: K engines share one device (Eq. 3/4).
	VS
	// VM is virtualized-merged: one shared engine with merged tables
	// (Eq. 5/6).
	VM
)

// String names the scheme with the paper's abbreviations.
func (s Scheme) String() string {
	if s < NV || s > VM {
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
	return [...]string{"NV", "VS", "VM"}[s]
}

// Schemes lists all three organisations in paper order.
func Schemes() []Scheme { return []Scheme{NV, VS, VM} }

// DefaultStages is the pipeline depth used throughout the paper's
// evaluation ("without loss of generality, for all pipelines we assume a
// length of 28 stages", Section VI).
const DefaultStages = 28

// Config parameterises a router build.
type Config struct {
	Scheme Scheme
	// K is the number of (virtual) networks served.
	K     int
	Grade fpga.SpeedGrade
	// Mode selects 18 Kb or 36 Kb BRAM packing.
	Mode fpga.BRAMMode
	// Stages is the pipeline depth N (DefaultStages when zero).
	Stages int
	// Layout sizes pointers and NHI entries (pipeline.DefaultLayout when
	// zero; a partly set Layout is refused, not completed).
	Layout pipeline.MemLayout
	// ClockGating reflects Section IV's idle-resource gating; the paper's
	// models assume it (dynamic power scales with utilization µ).
	ClockGating bool
	// Balanced selects the memory-balanced level→stage mapping of the
	// paper's references [7,8] instead of the plain fold-into-stage-0
	// mapping: per-stage memories are equalised, which shrinks the widest
	// stage and so raises the achievable clock.
	Balanced bool
	// DistRAMThreshold, when positive, maps stage memories of at most this
	// many bits to distributed RAM instead of BRAM (hybrid memory; the
	// paper assumes BRAM only "for simplicity", Section V-B). Small stages
	// then avoid paying for a mostly-empty 18 Kb block. Zero is BRAM only; a
	// negative threshold is refused.
	DistRAMThreshold int64
	// Device is the target FPGA (XC6VLX760 when zero-valued).
	Device fpga.Device
	// Timing is the fmax model (fpga.DefaultTiming when zero-valued).
	Timing fpga.Timing
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Stages == 0 {
		c.Stages = DefaultStages
	}
	if c.Layout == (pipeline.MemLayout{}) {
		c.Layout = pipeline.DefaultLayout()
	}
	if c.Device.Name == "" {
		c.Device = fpga.XC6VLX760()
	}
	if c.Timing == (fpga.Timing{}) {
		c.Timing = fpga.DefaultTiming()
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch l := c.Layout; {
	case c.K <= 0:
		return fmt.Errorf("core: K = %d, want > 0", c.K)
	case c.Stages < 0:
		return fmt.Errorf("core: Stages = %d, want >= 0", c.Stages)
	case l != (pipeline.MemLayout{}) && (l.PtrBits <= 0 || l.NHIBits <= 0):
		return fmt.Errorf("core: Layout %+v, want both widths > 0 (or the zero Layout for the default)", l)
	case c.DistRAMThreshold < 0:
		return fmt.Errorf("core: DistRAMThreshold = %d, want >= 0", c.DistRAMThreshold)
	case c.Scheme < NV || c.Scheme > VM:
		return fmt.Errorf("core: unknown scheme %d", c.Scheme)
	}
	return nil
}

// engines is the number of lookup engines a router of c has: one a network
// for NV and VS, the one merged engine for VM.
func (c Config) engines() int {
	if c.Scheme == VM {
		return 1
	}
	return c.K
}

// Router is a built and placed router configuration.
type Router struct {
	cfg Config
	// images holds the compiled engines: K images for NV/VS, one merged
	// image for VM. Nil for analytic builds.
	images []*pipeline.Image
	// design is the power-model input.
	design power.SystemDesign
	// placement is the per-device placement (devices are identical for NV).
	placement *fpga.Placement
	// ptrBits and nhiBits split total memory for Fig. 4.
	ptrBits, nhiBits int64
}

// Config returns the build configuration (with defaults applied).
func (r *Router) Config() Config { return r.cfg }

// Images exposes the compiled engines for simulation; nil for analytic
// builds.
func (r *Router) Images() []*pipeline.Image { return r.images }

// Fmax returns the achievable clock in MHz.
func (r *Router) Fmax() float64 { return r.design.FMHz }

// Placement returns the per-device placement.
func (r *Router) Placement() *fpga.Placement { return r.placement }

// Design returns the power-model input describing this router.
func (r *Router) Design() power.SystemDesign { return r.design }

// PointerBits and NHIBits return the memory split of Fig. 4, summed over
// all engines (one network's worth per engine for NV/VS; the merged
// structure for VM).
func (r *Router) PointerBits() int64 { return r.ptrBits }
func (r *Router) NHIBits() int64     { return r.nhiBits }

// ModelPower evaluates the analytical model (Eq. 2/4/6) at the router's
// achievable clock.
func (r *Router) ModelPower() (power.Breakdown, error) {
	return power.Estimate(r.design)
}

// MeasuredPower evaluates the post place-and-route Analyzer at the router's
// achievable clock.
func (r *Router) MeasuredPower(a *power.Analyzer) (power.Breakdown, error) {
	return a.Measure(r.design)
}

// ThroughputGbps returns worst-case aggregate lookup bandwidth: every engine
// completes one 40-byte-packet lookup per cycle (Section VI-B). NV counts
// its K devices; VS its K parallel engines; VM its single shared engine.
func (r *Router) ThroughputGbps() float64 {
	return fpga.ThroughputGbps(r.Fmax(), r.cfg.engines())
}

// EfficiencyMWPerGbps returns the paper's Fig. 8 metric for the analytical
// model power.
func (r *Router) EfficiencyMWPerGbps() (float64, error) {
	b, err := r.ModelPower()
	if err != nil {
		return 0, err
	}
	return power.MilliwattsPerGbps(b.Total(), r.ThroughputGbps()), nil
}

// LatencyNS returns the pipeline traversal latency in nanoseconds: N stages
// at the achievable clock (the paper's transparency requirement covers
// latency as well as throughput).
func (r *Router) LatencyNS() float64 { return float64(r.cfg.Stages) * 1e3 / r.Fmax() }
