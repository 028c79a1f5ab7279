// Package energy implements per-event dynamic-energy accounting over the
// paper's calibrated power coefficients (internal/power/coeff.go) — the
// measurement half of energy-proportional serving. Where the power package
// answers "Watts for this design at this utilization", this package answers
// "Joules for this run, attributed to which VNID, engine, device and
// component".
//
// The model rests on one identity: every dynamic coefficient is linear in
// frequency (µW per MHz), so the energy of one event is frequency-
// independent — coeff µW/MHz at f MHz over one 1/(f·1e6) s cycle is
// coeff × 1e-12 J = coeff pJ, at any f and at any DVFS tier. Events are
// therefore metered in integer femtojoules (coeff × 1000, exact for the
// published three-decimal coefficients), which makes the accumulation
// order-independent: integer addition commutes, so per-VNID, per-engine and
// per-component totals are byte-identical at any worker count. Static
// (leakage) power is the one time-dependent term: it is integrated per
// slice at the wall-clock length of the slice, which stretches by 1/FreqFrac
// when the governor's DVFS ladder slows the clock.
//
// Event taxonomy and attribution (the Graphite-style breakdown):
//
//   - Lookup: a packet active in stages 0..LastStage pays each stage's BRAM
//     (or distributed-RAM) read plus the per-stage logic+signal cost. The
//     memory part lands in the memory component, the logic part in the clock
//     component; both are attributed to the packet's VNID.
//   - Write bubble (hitless update): traverses the full pipe touching every
//     stage, charged to the control-plane component and the batch's VNID.
//   - Scrub readback sweep / reload write: one word access per word, at the
//     engine's mean per-stage memory cost, charged to the control plane and
//     the engine's lowest served VNID.
//   - Governor transition (DVFS step, quiesce, brownout): one full-pipe
//     flush per engine, charged to the control plane and the engine's
//     lowest served VNID.
//
// Under these conventions the invariant Σ per-VNID = Σ per-engine =
// memory + clock + control-plane = total dynamic holds exactly in integer
// femtojoules — every report asserts it, no rounding slack needed.
package energy

import (
	"fmt"
	"math"

	"vrpower/internal/power"
)

// femtoPerJoule converts integer femtojoule totals to float Joules once, at
// report time — the only int→float crossing in the accounting.
const femtoPerJoule = 1e15

// EngineModel is one engine's precomputed event costs in femtojoules.
// Everything is derived once at model build; the per-event hot paths only
// index and add.
type EngineModel struct {
	// Device is the physical FPGA hosting the engine (power.EngineDevice).
	Device int
	// MemFJ[s] is the memory-read energy of one active cycle in stage s
	// (BRAM block-quantised or distributed-RAM LUT-quantised, Table III).
	MemFJ []int64
	// LogicFJ is the logic+signal energy of one active stage-cycle
	// (Section V-C); identical for every stage of the engine.
	LogicFJ int64
	// CumMemFJ[s] / CumFJ[s] are prefix sums over stages 0..s: the memory /
	// total dynamic energy of a lookup that was active through stage s.
	CumMemFJ []int64
	CumFJ    []int64
	// FullFJ is a full-pipe traversal (CumFJ[N-1]): the cost of one write
	// bubble, and the per-engine cost of one governor transition (a
	// pipeline flush).
	FullFJ int64
	// WordFJ is one scrub readback or reload write: the engine's mean
	// per-stage memory cost, rounded once at model build.
	WordFJ int64
}

// Stages returns the engine's pipeline depth.
func (e *EngineModel) Stages() int { return len(e.MemFJ) }

// Model holds the per-engine event costs and the static-power terms for one
// router design. It is immutable after NewModel and safe to share across
// workers.
type Model struct {
	Engines []EngineModel
	// Devices is the number of powered FPGAs (each integrates static).
	Devices int
	// StaticWattsPerDevice is the leakage draw of one device (area-scaled).
	StaticWattsPerDevice float64
	// FMHz is the full-rate clock the cycle count is converted to wall
	// time with.
	FMHz float64
}

// NewModel derives the event-cost tables from a power design. The published
// coefficients have at most three decimals, so coeff×1000 femtojoules is
// exact for logic and BRAM; distributed-RAM stages round once per stage
// here (never per event).
func NewModel(d power.SystemDesign) (*Model, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("energy: %w", err)
	}
	m := &Model{
		Engines:              make([]EngineModel, len(d.Engines)),
		Devices:              d.Devices,
		StaticWattsPerDevice: d.DeviceStaticWatts(),
		FMHz:                 d.FMHz,
	}
	logicFJ := int64(math.Round(power.LogicCoeffMicroW(d.Grade) * 1000))
	bramFJ := int64(math.Round(power.BRAMCoeffMicroW(d.Grade, d.Mode) * 1000))
	distFJPerQuantum := power.DistRAMCoeffMicroWPerKb(d.Grade) * 1000 *
		float64(power.DistRAMQuantumBits) / 1024
	for i, eng := range d.Engines {
		n := eng.Stages()
		em := EngineModel{
			Device:   d.EngineDevice(i),
			MemFJ:    make([]int64, n),
			LogicFJ:  logicFJ,
			CumMemFJ: make([]int64, n),
			CumFJ:    make([]int64, n),
		}
		var memSum int64
		for s, bits := range eng.StageBits {
			var fj int64
			if d.UsesDistRAM(bits) {
				quanta := (bits + power.DistRAMQuantumBits - 1) / power.DistRAMQuantumBits
				fj = int64(math.Round(float64(quanta) * distFJPerQuantum))
			} else {
				fj = int64(d.Mode.BlocksFor(bits)) * bramFJ
			}
			em.MemFJ[s] = fj
			memSum += fj
			em.CumMemFJ[s] = memSum
			em.CumFJ[s] = memSum + int64(s+1)*logicFJ
		}
		em.FullFJ = em.CumFJ[n-1]
		em.WordFJ = (memSum + int64(n)/2) / int64(n)
		m.Engines[i] = em
	}
	return m, nil
}

// StaticSliceFJ integrates one device's leakage over cycles of simulated
// time at the active clock tier: the wall-clock length of a cycle is
// 1/(FMHz·freqFrac) µs, so a DVFS-slowed slice leaks proportionally longer.
// One float rounding per slice per device, identical at any worker count.
func (m *Model) StaticSliceFJ(cycles int64, freqFrac float64) int64 {
	if cycles <= 0 {
		return 0
	}
	if freqFrac <= 0 {
		freqFrac = 1
	}
	// W × cycles / (f·1e6·frac) s = J; ×1e15 fJ/J ⇒ ×1e9 / (f·frac).
	return int64(math.Round(m.StaticWattsPerDevice * float64(cycles) * 1e9 /
		(m.FMHz * freqFrac)))
}
