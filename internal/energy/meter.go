package energy

import (
	"fmt"

	"vrpower/internal/obs"
)

// Process-wide energy instrumentation: cumulative femtojoule counters per
// component plus the per-lookup energy distribution. Harnesses publish one
// bulk delta per run (Publish), never per event, so the lookup hot paths
// stay atomic-free.
var (
	obsDynFJ       = obs.NewCounter("energy.dynamic_fj")
	obsStaticFJ    = obs.NewCounter("energy.static_fj")
	obsMemFJ       = obs.NewCounter("energy.memory_fj")
	obsClockFJ     = obs.NewCounter("energy.clock_fj")
	obsCtrlFJ      = obs.NewCounter("energy.ctrl_fj")
	obsTransitions = obs.NewCounter("energy.transitions")
	obsLookupPJ    = obs.NewValueHistogram("energy.lookup_pj", "pJ")
	gaugeTotalJ    = obs.NewGauge("energy.total_j")
	gaugeJPerBit   = obs.NewGauge("energy.j_per_bit")
)

// Meter accumulates attributed event energy for one run (or one worker's
// shard of one run — see Fold). All fields are plain int64: a meter is
// single-goroutine, and parallel harnesses give each worker its own meter
// and fold them in deterministic engine order, so totals are byte-identical
// at any worker count.
type Meter struct {
	m *Model
	// VNDynFJ / EngineDynFJ / DeviceStaticFJ are the attribution axes.
	VNDynFJ        []int64
	EngineDynFJ    []int64
	DeviceStaticFJ []int64
	// MemFJ/ClockFJ/CtrlFJ decompose the dynamic total by component
	// (Graphite-style: memory reads, clocked pipeline logic, control plane).
	MemFJ   int64
	ClockFJ int64
	CtrlFJ  int64
	// Event counts per class.
	Lookups     int64
	Bubbles     int64
	Words       int64
	Transitions int64
	// ObserveHist feeds each lookup's energy into the process-wide
	// per-lookup histogram. Only cycle-grain coordinator meters set this;
	// worker-local meters leave it off so folds never double-observe and
	// the batched hot path never touches an atomic per lookup.
	ObserveHist bool
	// mark is EngineDynFJ as of the last CloseSlice; sliceFJ is its
	// per-device scratch.
	mark, sliceFJ []int64
	joined        []int // joined[d]: device d's engine slots, once a meter is joined in
}

// NewMeter builds a zeroed meter for k virtual networks over the model.
func NewMeter(m *Model, k int) *Meter {
	return &Meter{
		m:              m,
		VNDynFJ:        make([]int64, k),
		EngineDynFJ:    make([]int64, len(m.Engines)),
		DeviceStaticFJ: make([]int64, m.Devices),
	}
}

// Model returns the shared cost tables the meter charges against.
func (mt *Meter) Model() *Model { return mt.m }

// Lookup charges one lookup that was active through stages 0..lastStage of
// engine e: the prefix-summed memory cost to the memory component and the
// per-stage logic cost to the clock component, both attributed to vn.
func (mt *Meter) Lookup(e, vn, lastStage int) { mt.LookupN(e, vn, lastStage, 1) }

// LookupN charges n lookups of vn that were each active through stages
// 0..lastStage of engine e. A lookup's cost is a function of (e, lastStage)
// alone and every account is an integer sum, so one bulk charge leaves the
// meter, and the per-lookup histogram, exactly as n single ones would.
func (mt *Meter) LookupN(e, vn, lastStage int, n int64) {
	if n <= 0 {
		return
	}
	em := &mt.m.Engines[e]
	mem := em.CumMemFJ[lastStage]
	total := em.CumFJ[lastStage]
	mt.MemFJ += n * mem
	mt.ClockFJ += n * (total - mem)
	mt.VNDynFJ[vn] += n * total
	mt.EngineDynFJ[e] += n * total
	mt.Lookups += n
	if mt.ObserveHist {
		obsLookupPJ.ObserveValueN(total/1000, n)
	}
}

// Bubble charges one hitless-update write bubble through engine e's full
// pipe to the control plane, attributed to the update batch's vn.
func (mt *Meter) Bubble(e, vn int) {
	fj := mt.m.Engines[e].FullFJ
	mt.CtrlFJ += fj
	mt.VNDynFJ[vn] += fj
	mt.EngineDynFJ[e] += fj
	mt.Bubbles++
}

// AddWords charges n scrub readback or reload write word accesses on engine
// e to the control plane, attributed to vn (the engine's lowest served
// VNID by convention).
func (mt *Meter) AddWords(e, vn int, n int64) {
	if n <= 0 {
		return
	}
	fj := n * mt.m.Engines[e].WordFJ
	mt.CtrlFJ += fj
	mt.VNDynFJ[vn] += fj
	mt.EngineDynFJ[e] += fj
	mt.Words += n
}

// Transition charges one governor actuation change (DVFS step, quiesce,
// brownout) as a full-pipe flush of engine e to the control plane,
// attributed to vn.
func (mt *Meter) Transition(e, vn int) {
	fj := mt.m.Engines[e].FullFJ
	mt.CtrlFJ += fj
	mt.VNDynFJ[vn] += fj
	mt.EngineDynFJ[e] += fj
	mt.Transitions++
}

// CloseSlice closes one slice of cycles at the active clock fraction. It
// integrates the leakage of every device the model powers over the slice —
// but where the design gives each engine its own device (NV), a device whose
// engine quiesced marks (nil: none) is powered down and leaks nothing, as the
// governor's model assumes; the zero Model powers none. It returns what each
// device charged in the slice, that leakage plus its engines' dynamic energy
// since the previous CloseSlice, and the slice's dynamic and static totals.
// The per-device slice is scratch the next call rewrites.
func (mt *Meter) CloseSlice(cycles int64, freqFrac float64, quiesced []bool) (perDev []int64, dyn, static int64) {
	mt.sliceFJ = append(mt.sliceFJ[:0], make([]int64, mt.m.Devices)...)
	fj := mt.m.StaticSliceFJ(cycles, freqFrac)
	oneEach := mt.m.Devices == len(mt.m.Engines)
	for d := range mt.sliceFJ {
		if !oneEach || d >= len(quiesced) || !quiesced[d] {
			mt.DeviceStaticFJ[d] += fj
			mt.sliceFJ[d] = fj
			static += fj
		}
	}
	mt.mark = grow(mt.mark, len(mt.m.Engines))
	for e := range mt.m.Engines {
		d := mt.EngineDynFJ[e] - mt.mark[e]
		mt.mark[e] = mt.EngineDynFJ[e]
		mt.sliceFJ[mt.m.Engines[e].Device] += d
		dyn += d
	}
	return mt.sliceFJ, dyn, static
}

// Rebase moves the meter onto model m and keeps everything it has charged:
// a device's meter follows the device through every change of its power
// model — an install that lands, a spare that powers up, a crash onto the
// zero Model. The engine and device axes grow to m's and never shrink, so
// engine e's energy stays in slot e whatever model charged it.
func (mt *Meter) Rebase(m *Model) {
	mt.m = m
	mt.EngineDynFJ = grow(mt.EngineDynFJ, len(m.Engines))
	mt.DeviceStaticFJ = grow(mt.DeviceStaticFJ, m.Devices)
}

// grow extends s with zeros to length n.
func grow(s []int64, n int) []int64 {
	if n > len(s) {
		s = append(s, make([]int64, n-len(s))...)
	}
	return s
}

// Fold adds a worker-local meter into the receiver. Callers fold in
// deterministic (engine) order; integer addition makes the result
// order-independent anyway, but the discipline keeps every derived float
// identical too.
func (mt *Meter) Fold(o *Meter) {
	if o != nil {
		mt.foldAt(o, 0, 0)
	}
}

// Join adds o into the receiver as the next device of a composite: o's
// engine and device axes are appended to the receiver's, its per-VNID,
// component and event totals added. A run's ledger is its device meters
// joined in device order, so both axes read engine within device.
func (mt *Meter) Join(o *Meter) {
	mt.joined = append(mt.deviceEngines(), o.deviceEngines()...)
	mt.foldAt(o, len(mt.EngineDynFJ), len(mt.DeviceStaticFJ))
}

// deviceEngines is how many engine slots each device holds: as joined, or
// spread evenly, as routers lay engines out (NV one a device, VS/VM all on one).
func (mt *Meter) deviceEngines() []int {
	if mt.joined != nil {
		return mt.joined
	}
	n := make([]int, len(mt.DeviceStaticFJ))
	for d := range n {
		n[d] = len(mt.EngineDynFJ) / len(n)
	}
	return n
}

// foldAt adds o into the receiver with o's engine e in slot eng+e and its
// device d in slot dev+d, growing the receiver's axes to fit.
func (mt *Meter) foldAt(o *Meter, eng, dev int) {
	mt.EngineDynFJ = grow(mt.EngineDynFJ, eng+len(o.EngineDynFJ))
	mt.DeviceStaticFJ = grow(mt.DeviceStaticFJ, dev+len(o.DeviceStaticFJ))
	for i, fj := range o.VNDynFJ {
		mt.VNDynFJ[i] += fj
	}
	for i, fj := range o.EngineDynFJ {
		mt.EngineDynFJ[eng+i] += fj
	}
	for i, fj := range o.DeviceStaticFJ {
		mt.DeviceStaticFJ[dev+i] += fj
	}
	mt.MemFJ += o.MemFJ
	mt.ClockFJ += o.ClockFJ
	mt.CtrlFJ += o.CtrlFJ
	mt.Lookups += o.Lookups
	mt.Bubbles += o.Bubbles
	mt.Words += o.Words
	mt.Transitions += o.Transitions
}

// DynTotalFJ returns the attributed dynamic energy so far.
func (mt *Meter) DynTotalFJ() int64 { return mt.MemFJ + mt.ClockFJ + mt.CtrlFJ }

// StaticTotalFJ returns the integrated leakage so far.
func (mt *Meter) StaticTotalFJ() int64 {
	var t int64
	for _, fj := range mt.DeviceStaticFJ {
		t += fj
	}
	return t
}

// Report is the deterministic end-of-run energy breakdown. The femtojoule
// fields are exact integers; the Joule fields are derived once from them.
type Report struct {
	// Attribution axes (exact integers).
	VNDynFJ        []int64 `json:"vn_dyn_fj"`
	EngineDynFJ    []int64 `json:"engine_dyn_fj"`
	DeviceStaticFJ []int64 `json:"device_static_fj"`
	// DeviceEngines[d] is how many of EngineDynFJ's slots device d holds:
	// the engine axis reads engine within device, in device order.
	DeviceEngines []int `json:"-"`
	// Component decomposition of the dynamic total.
	MemFJ   int64 `json:"mem_fj"`
	ClockFJ int64 `json:"clock_fj"`
	CtrlFJ  int64 `json:"ctrl_fj"`
	// Event counts.
	Lookups     int64 `json:"lookups"`
	Bubbles     int64 `json:"bubbles"`
	Words       int64 `json:"words"`
	Transitions int64 `json:"transitions"`
	// DeliveredBits is the forwarded payload the efficiency quotient is
	// taken over (delivered packets × the 40-byte minimum packet).
	DeliveredBits int64 `json:"delivered_bits"`
	// Derived totals in Joules.
	DynJ    float64 `json:"dyn_j"`
	StaticJ float64 `json:"static_j"`
	TotalJ  float64 `json:"total_j"`
	// JPerBit is joules per forwarded bit (0 when nothing was delivered).
	JPerBit float64 `json:"j_per_bit"`
}

// Report freezes the meter into the end-of-run breakdown and checks the
// accounting invariant: per-VNID, per-engine and per-component dynamic
// totals must agree exactly (integer femtojoules, no rounding slack).
func (mt *Meter) Report(deliveredBits int64) (*Report, error) {
	dyn := mt.DynTotalFJ()
	var vnSum, engSum int64
	for _, fj := range mt.VNDynFJ {
		vnSum += fj
	}
	for _, fj := range mt.EngineDynFJ {
		engSum += fj
	}
	if vnSum != dyn || engSum != dyn {
		return nil, fmt.Errorf("energy: attribution mismatch: ΣVN=%d ΣEngine=%d components=%d fJ",
			vnSum, engSum, dyn)
	}
	static := mt.StaticTotalFJ()
	r := &Report{
		VNDynFJ:        append([]int64(nil), mt.VNDynFJ...),
		EngineDynFJ:    append([]int64(nil), mt.EngineDynFJ...),
		DeviceStaticFJ: append([]int64(nil), mt.DeviceStaticFJ...),
		DeviceEngines:  append([]int(nil), mt.deviceEngines()...),
		MemFJ:          mt.MemFJ,
		ClockFJ:        mt.ClockFJ,
		CtrlFJ:         mt.CtrlFJ,
		Lookups:        mt.Lookups,
		Bubbles:        mt.Bubbles,
		Words:          mt.Words,
		Transitions:    mt.Transitions,
		DeliveredBits:  deliveredBits,
		DynJ:           float64(dyn) / femtoPerJoule,
		StaticJ:        float64(static) / femtoPerJoule,
	}
	r.TotalJ = r.DynJ + r.StaticJ
	if deliveredBits > 0 {
		r.JPerBit = float64(dyn+static) / femtoPerJoule / float64(deliveredBits)
	}
	return r, nil
}

// Publish adds the meter's totals to the process-wide energy counters and
// gauges — one bulk update per run, called by the harness after the report
// is built.
func (r *Report) Publish() {
	dyn := r.MemFJ + r.ClockFJ + r.CtrlFJ
	var static int64
	for _, fj := range r.DeviceStaticFJ {
		static += fj
	}
	obsDynFJ.Add(dyn)
	obsStaticFJ.Add(static)
	obsMemFJ.Add(r.MemFJ)
	obsClockFJ.Add(r.ClockFJ)
	obsCtrlFJ.Add(r.CtrlFJ)
	obsTransitions.Add(r.Transitions)
	gaugeTotalJ.Set(r.TotalJ)
	gaugeJPerBit.Set(r.JPerBit)
}
