package power

import (
	"fmt"

	"vrpower/internal/fpga"
)

// EngineDesign describes one lookup pipeline for power estimation.
type EngineDesign struct {
	// StageBits is the memory size of each pipeline stage in bits
	// (M_{i,j} in the paper's notation); its length is the stage count N.
	StageBits []int64
	// Utilization is µ_i, the fraction of cycles the engine serves packets
	// (Assumption 1 sets it to 1/K for uniform traffic).
	Utilization float64
}

// Stages returns the pipeline depth N.
func (e EngineDesign) Stages() int { return len(e.StageBits) }

// SystemDesign is a complete router configuration to estimate: one or more
// devices, each holding the listed engines. NV uses Devices = K with one
// engine each; VS uses Devices = 1 with K engines; VM uses Devices = 1 with
// one (merged) engine.
type SystemDesign struct {
	Grade fpga.SpeedGrade
	Mode  fpga.BRAMMode
	// FMHz is the operating clock frequency.
	FMHz float64
	// Devices is the number of physical FPGAs powered on.
	Devices int
	// Engines are the lookup pipelines across all devices.
	Engines []EngineDesign
	// ClockGating enables idle-cycle gating: dynamic power scales with
	// engine utilization (Section IV: "during the off period of the duty
	// cycle, the dynamic power can be assumed to be zero"). Without it,
	// dynamic resources burn full-rate power regardless of duty cycle.
	ClockGating bool
	// DistRAMThresholdBits, when positive, maps stage memories of at most
	// this size to distributed RAM instead of BRAM — the hybrid memory
	// option the paper sets aside "for simplicity" (Section V-B). Small
	// stages then avoid paying for a mostly-empty 18 Kb block.
	DistRAMThresholdBits int64
	// StaticScale scales the per-device static power by the device's die
	// area relative to the XC6VLX760 (fpga.Device.AreaScale); static power
	// is proportional to area (Section V-A). Zero means 1 (the paper's
	// device).
	StaticScale float64
}

// Validate reports whether the design is estimable.
func (d SystemDesign) Validate() error {
	switch {
	case d.Devices <= 0:
		return fmt.Errorf("power: Devices = %d, want > 0", d.Devices)
	case d.FMHz <= 0:
		return fmt.Errorf("power: FMHz = %g, want > 0", d.FMHz)
	case len(d.Engines) == 0:
		return fmt.Errorf("power: no engines")
	}
	for i, e := range d.Engines {
		if len(e.StageBits) == 0 {
			return fmt.Errorf("power: engine %d has no stages", i)
		}
		if e.Utilization < 0 || e.Utilization > 1 {
			return fmt.Errorf("power: engine %d utilization %g outside [0,1]", i, e.Utilization)
		}
	}
	return nil
}

// Breakdown is an estimated power decomposition in Watts.
type Breakdown struct {
	Static float64
	Logic  float64 // logic + signal dynamic power
	Memory float64 // BRAM dynamic power
}

// Total returns the summed power in Watts.
func (b Breakdown) Total() float64 { return b.Static + b.Logic + b.Memory }

// Estimate evaluates the analytical models of Section IV on the design:
// static power per powered device plus utilization-weighted logic and BRAM
// dynamic power per engine (Eq. 2 for NV with Devices=K, Eq. 4 for VS, and
// Eq. 6 for VM where the single engine's StageBits already reflect the
// merged memory α·ΣM).
func Estimate(d SystemDesign) (Breakdown, error) {
	if err := d.Validate(); err != nil {
		return Breakdown{}, err
	}
	scale := d.StaticScale
	if scale == 0 {
		scale = 1
	}
	b := Breakdown{Static: float64(d.Devices) * StaticWatts(d.Grade) * scale}
	for i, e := range d.Engines {
		lw, mw := d.engineDyn(i, e.Utilization, d.FMHz)
		b.Logic += lw
		b.Memory += mw
	}
	return b, nil
}

// engineDyn returns engine e's (logic, memory) dynamic power at utilization
// u and clock fMHz — the shared inner term of Estimate and
// EngineDynamicWatts.
func (d SystemDesign) engineDyn(e int, u, fMHz float64) (logic, memory float64) {
	if !d.ClockGating {
		u = 1
	}
	eng := d.Engines[e]
	logic = u * float64(eng.Stages()) * LogicStageWatts(d.Grade, fMHz)
	for _, bits := range eng.StageBits {
		if d.usesDistRAM(bits) {
			memory += u * DistRAMWatts(d.Grade, bits, fMHz)
		} else {
			memory += u * BRAMWatts(d.Grade, d.Mode, bits, fMHz)
		}
	}
	return logic, memory
}

// EngineDynamicWatts returns engine e's total dynamic power at utilization
// u and clock fMHz. All dynamic coefficients are linear in frequency, so a
// DVFS-stepped clock scales this term proportionally — the lever the power
// governor's frequency rungs pull.
func (d SystemDesign) EngineDynamicWatts(e int, u, fMHz float64) float64 {
	lw, mw := d.engineDyn(e, u, fMHz)
	return lw + mw
}

// EngineDevice maps engine e to the physical device hosting it: one engine
// per device when the design powers Devices == len(Engines) FPGAs (the NV
// organisation, Eq. 2); otherwise every engine shares device 0 (VS and VM,
// Eq. 4/6) and any further devices are static-only.
func (d SystemDesign) EngineDevice(e int) int {
	if d.Devices == len(d.Engines) {
		return e
	}
	return 0
}

// usesDistRAM reports whether a stage of the given size maps to
// distributed RAM under the hybrid threshold.
func (d SystemDesign) usesDistRAM(bits int64) bool {
	return d.DistRAMThresholdBits > 0 && bits > 0 && bits <= d.DistRAMThresholdBits
}

// UsesDistRAM reports whether a stage of the given size maps to distributed
// RAM under the hybrid threshold — exported for the energy accounting layer,
// which must replicate the estimator's memory-technology choice exactly.
func (d SystemDesign) UsesDistRAM(bits int64) bool { return d.usesDistRAM(bits) }

// TotalBlocks returns the design's total BRAM block demand and the maximum
// per-stage block count (the congestion driver used by the timing model).
// Stages mapped to distributed RAM consume no blocks.
func (d SystemDesign) TotalBlocks() (total, maxPerStage int) {
	for _, e := range d.Engines {
		for _, bits := range e.StageBits {
			if d.usesDistRAM(bits) {
				continue
			}
			n := d.Mode.BlocksFor(bits)
			total += n
			if n > maxPerStage {
				maxPerStage = n
			}
		}
	}
	return total, maxPerStage
}

// TotalDistRAMBits returns the distributed-RAM demand in bits, rounded up
// to 64-bit LUT quanta per stage.
func (d SystemDesign) TotalDistRAMBits() int64 {
	var total int64
	for _, e := range d.Engines {
		for _, bits := range e.StageBits {
			if d.usesDistRAM(bits) {
				total += (bits + DistRAMQuantumBits - 1) / DistRAMQuantumBits * DistRAMQuantumBits
			}
		}
	}
	return total
}

// MilliwattsPerGbps is the paper's efficiency metric (Section VI-B): power
// per unit of worst-case lookup bandwidth at 40-byte packets.
func MilliwattsPerGbps(totalWatts, gbps float64) float64 {
	if gbps <= 0 {
		return 0
	}
	return totalWatts * 1e3 / gbps
}
