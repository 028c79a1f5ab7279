package fpga

import "math"

// Timing is the post place-and-route frequency model. The paper reports that
// the merged approach's operating frequency "decreases significantly" as
// BRAM per pipeline stage grows (Section VI-B), and that -1L trades clock
// rate for supply current. This model captures both effects:
//
//	fmax = base(grade) × memFactor × utilFactor
//
// where memFactor penalises wide per-stage memories (muxing across many
// BRAM blocks lengthens the critical path roughly with the mux tree depth,
// i.e. logarithmically in the block count) and utilFactor penalises overall
// device fill (routing congestion).
type Timing struct {
	// Base2 and Base1L are the unloaded pipeline fmax in MHz per grade.
	Base2, Base1L float64
	// MemPenalty scales the log2(blocks-per-stage) term.
	MemPenalty float64
	// CongestionPenalty scales the quadratic utilisation term.
	CongestionPenalty float64
}

// DefaultTiming returns the calibrated timing model. Base frequencies place
// grade -2 around 350 MHz for a small design — consistent with Virtex-6
// BRAM-pipeline lookup engines of the period — with -1L roughly 28 % slower,
// which makes the two grades land on near-equal mW/Gbps as the paper
// observes (Section VI-B).
func DefaultTiming() Timing {
	return Timing{
		Base2:             350,
		Base1L:            252,
		MemPenalty:        0.11,
		CongestionPenalty: 0.55,
	}
}

// Base returns the unloaded fmax for the grade in MHz.
func (t Timing) Base(g SpeedGrade) float64 {
	if g == Grade1L {
		return t.Base1L
	}
	return t.Base2
}

// Fmax returns the achievable clock in MHz for a placement.
func (t Timing) Fmax(p *Placement) float64 {
	base := t.Base(p.Grade)
	mem := 1.0
	if p.MaxBlocksPerStage > 1 {
		mem = 1 / (1 + t.MemPenalty*math.Log2(float64(p.MaxBlocksPerStage)))
	}
	util := p.LogicUtilization()
	if b := p.BRAMUtilization(); b > util {
		util = b
	}
	cong := 1 - t.CongestionPenalty*util*util
	if cong < 0.3 {
		cong = 0.3 // routed designs do not degrade without bound
	}
	return base * mem * cong
}

// DefaultClockTiers is the DVFS-style ladder of clock fractions a governed
// router can step through, tier 0 being the full placed fmax. FPGA clock
// managers (MMCM/PLL) synthesise stepped-down clocks from integer
// multiply/divide ratios, so the ladder is discrete rather than continuous;
// dynamic power is linear in frequency (every coefficient in the power
// model scales with f), so each step trades throughput for Watts
// proportionally.
func DefaultClockTiers() []float64 {
	return []float64{1, 0.8, 0.6, 0.45}
}

// MinPacketBytes is the minimum packet size the paper uses to convert packet
// rate to bandwidth (Section VI-B: 40-byte packets).
const MinPacketBytes = 40

// ThroughputGbps converts a pipeline clock (MHz) into worst-case lookup
// bandwidth in Gbps: one packet per cycle per engine at minimum packet size.
func ThroughputGbps(fMHz float64, engines int) float64 {
	return fMHz * 1e6 * float64(MinPacketBytes) * 8 * float64(engines) / 1e9
}
