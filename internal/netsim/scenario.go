package netsim

// This file is the one slice-quantised runner, behind cmd/lookupsim
// -scenario: one engine-driven run over a list of devices — the system's own
// router as the one device, or what fleet.Place makes of fleet= — in which a
// shaped offered load, SEU/kill fault injection, hitless update churn, a
// power cap and device failures all act at the same time. Each adversity
// source is a scenario.Stressor over shared run state (faults.go, churn.go,
// chaosrun.go, fleetrun.go) — faults registered before churn, so a scrub
// decision at a boundary is visible to the same boundary's arm decision —
// and the kernel is a sequential per-cycle loop: per-network Bernoulli
// arrivals (Assumption 1's equal shares) wait in bounded ingress queues,
// each engine in service injects one packet per cycle into a persistent
// parity-checking engine, and every exit is checked against the reference
// table of its injection epoch. Arrivals share one generator stream and all
// control decisions run on the coordinator, so the whole composed run is a
// pure function of its seeds — byte-identical at any -j.
//
// Cross-stressor semantics (the interesting part):
//
//   - A down engine (killed, reloading, dead) blackholes its arrivals and
//     flushes its in-flight lookups; its queued packets hold for recovery,
//     as a homeless network's do until it lands on another device.
//   - A scrub reload rebuilds from the control plane's current tables, so
//     a repair that lands after a churn commit reloads the *churned*
//     routes — repair and update compose instead of fighting.
//   - A scrub on an engine with an update in flight aborts the update
//     (the reload would clobber its shadow writes); a batch aimed at a
//     dead engine is aborted too, so the run always terminates.
//   - The governor acts at the arrival/service grain (admission drops,
//     frequency-paced service, quiescing), the same way under every
//     stressor; a reloading engine's utilization is pinned by the reload
//     flags it reports, so caps and scrubs interact the way the governor
//     expects.

import (
	"fmt"

	"vrpower/internal/core"
	"vrpower/internal/ctrl"
	"vrpower/internal/energy"
	"vrpower/internal/faults"
	"vrpower/internal/fleet"
	"vrpower/internal/governor"
	"vrpower/internal/ip"
	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
	"vrpower/internal/power"
	"vrpower/internal/scenario"
	"vrpower/internal/traffic"
	"vrpower/internal/update"
)

// ScenarioReport summarises a composed run: one section per stressor over
// one shared packet accounting.
type ScenarioReport struct {
	// Spec is the scenario string the run was built from; Stressors the
	// active stressor names.
	Spec      string
	Stressors []string
	Scheme    core.Scheme
	K         int
	// TrafficCycles is the offered-traffic window (rounded up to whole
	// slices); DrainCycles the tail spent finishing repairs, commits,
	// queues and in-flight lookups.
	TrafficCycles int64
	DrainCycles   int64
	SliceCycles   int64
	// Per-VN packet accounting. Dropped counts governor drops, down-engine
	// blackholing, queue overflow and faulted lookups alike.
	OfferedPerVN   []int64
	DeliveredPerVN []int64
	DroppedPerVN   []int64
	// UnavailableCyclesPerVN counts traffic cycles each network's engine
	// was down, quantised to slices — the NV/VS vs VM asymmetry readout.
	UnavailableCyclesPerVN []int64
	// NoRoute counts delivered packets that correctly resolved to no route;
	// Mismatches oracle disagreements (zero for a correct build);
	// FaultedLookups parity refusals (dropped, never misforwarded).
	NoRoute        int64
	Mismatches     int64
	FaultedLookups int64
	// MeanDelayCycles is the average arrival-to-exit latency over delivered
	// packets; BacklogPeak the deepest any ingress queue set grew.
	MeanDelayCycles float64
	BacklogPeak     int
	// Fault section (empty without faults=/kill=).
	SEUs            []SEURecord
	Kill            *KillRecord
	Scrubs          int
	ScrubAttempts   int
	ScrubsExhausted int
	// Recovered reports every engine back in service and every upset
	// repaired by run end.
	Recovered bool
	// Churn section (empty without churn=).
	Batches        []UpdateBatch
	BatchesApplied int
	// BatchesAborted counts updates cancelled by a scrub on their engine or
	// aimed at a dead engine.
	BatchesAborted int
	UpdateWrites   int64
	PlannedBubbles int64
	// BubbleCycles is the input slots the engines actually spent on write
	// bubbles (equal to PlannedBubbles when every armed batch committed);
	// EngineCycles sums simulated cycles over all engines — the denominator of
	// the measured throughput loss. Both are read off the engines' own
	// counters, and stay out of the serialised report.
	BubbleCycles int64 `json:"-"`
	EngineCycles int64 `json:"-"`
	// Chaos is the control-plane fault/recovery section (nil without
	// chaos=): injected faults, journal recoveries, watchdog ladder
	// accounting and post-recovery invariant audits.
	Chaos *ChaosReport
	// Fleet is the multi-device section (nil without fleet=): placement,
	// device lifecycle, failover migrations and their audits. The omitempty
	// tag keeps single-device reports (and their goldens) byte-unchanged.
	Fleet *FleetReport `json:",omitempty"`
	// Completed reports that every queue, in-flight lookup, repair and
	// batch finished inside the drain bound.
	Completed bool
	// Governor is the power-envelope controller's summary for capped runs
	// (power-cap= / power-cap-device=).
	Governor *governor.Report
	// Energy is the run's attributed energy breakdown.
	Energy *energy.Report
}

// Availability returns the fraction of traffic cycles network vn's engine
// was in service.
func (r *ScenarioReport) Availability(vn int) float64 {
	if r.TrafficCycles == 0 {
		return 1
	}
	return 1 - float64(r.UnavailableCyclesPerVN[vn])/float64(r.TrafficCycles)
}

// DeliveredFraction returns delivered/offered over all networks.
func (r *ScenarioReport) DeliveredFraction() float64 {
	var off, del int64
	for i := range r.OfferedPerVN {
		off += r.OfferedPerVN[i]
		del += r.DeliveredPerVN[i]
	}
	if off == 0 {
		return 1
	}
	return float64(del) / float64(off)
}

// DetectedSEUs counts upsets with a detection stamp.
func (r *ScenarioReport) DetectedSEUs() int {
	n := 0
	for i := range r.SEUs {
		if r.SEUs[i].DetectedAt >= 0 {
			n++
		}
	}
	return n
}

// RepairedSEUs counts upsets whose engine was scrubbed clean.
func (r *ScenarioReport) RepairedSEUs() int {
	n := 0
	for i := range r.SEUs {
		if r.SEUs[i].RepairedAt >= 0 {
			n++
		}
	}
	return n
}

// MTTRCycles returns the mean repair latency (injection to reload complete)
// over repaired upsets, in cycles; 0 when nothing was repaired.
func (r *ScenarioReport) MTTRCycles() float64 {
	var sum float64
	n := 0
	for i := range r.SEUs {
		if r.SEUs[i].RepairedAt >= 0 {
			sum += float64(r.SEUs[i].RepairedAt - r.SEUs[i].Cycle)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanUpdateLatencyCycles is the average arm-to-commit latency over applied
// batches; 0 when none committed.
func (r *ScenarioReport) MeanUpdateLatencyCycles() float64 {
	if len(r.Batches) == 0 {
		return 0
	}
	var sum float64
	for _, b := range r.Batches {
		sum += float64(b.LatencyCycles())
	}
	return sum / float64(len(r.Batches))
}

// MeasuredThroughputRetained is the lookup-slot fraction the run actually
// kept: 1 - bubble slots / engine cycles, from the engines' own counters.
func (r *ScenarioReport) MeasuredThroughputRetained() float64 {
	if r.EngineCycles == 0 {
		return 1
	}
	return 1 - float64(r.BubbleCycles)/float64(r.EngineCycles)
}

// AnalyticThroughputRetained is update.ThroughputRetained's prediction for
// the committed batches' bubble budget over the same cycle count
// (EngineCycles cycles ≡ EngineCycles/1e6 MHz for one second).
func (r *ScenarioReport) AnalyticThroughputRetained() float64 {
	return update.ThroughputRetained(int(r.PlannedBubbles), float64(r.EngineCycles)/1e6)
}

// scenEng is one engine's run state: a persistent parity-checking engine, the
// networks it serves, the fault lifecycle over the serving image, the
// armed-update lifecycle, and the in-flight FIFO.
type scenEng struct {
	// dev is the device the engine sits on, idx its index there (and in the
	// device's power model, and the governor's name for it).
	dev *device
	idx int
	// served lists the networks the engine serves: all the device's tenants
	// on a merged engine, one otherwise. A lookup's request VNID is its
	// network's index here.
	served []int
	sim    *pipeline.BatchSim
	// fs is the fault lifecycle over the serving image (down/dead flags,
	// sweep cursor, outstanding upsets, pending reload).
	fs engState
	// flights is the lookups pushed into sim and not settled yet, oldest
	// first; pending counts them by served network, for a flush.
	flights []inflight
	pending []int64
	// rrNext is the engine's round-robin pointer over its ingress queues;
	// utilCur the (active, cycles) cursor of its slice utilisation.
	rrNext  int
	utilCur [2]int64
	// Armed hitless update: the handle to commit, the post-update oracle to
	// swap in for batch.VN at the commit bubble, and the report record.
	handle *ctrl.HitlessUpdate
	newRef *ip.Table
	batch  UpdateBatch
	doneAt int64
	// ch is the chaos stressor's per-engine state (journal token, dealt
	// fault, crash schedule); inert without chaos=.
	ch engChaos
}

// device is one simulated FPGA of a run: its router, the engines over the
// router's images, the energy meter over its power model and its control
// plane. Only the fleet stressor (fleetrun.go) sets the fields below the gap.
type device struct {
	id      int
	router  *core.Router
	engines []*scenEng
	meter   *energy.Meter
	// slot0 and slots are the device's span in the engine Design the series'
	// power column is priced over (scenRun.design).
	slot0, slots int
	// The control plane, each part nil unless the spec asks for it: mgr runs
	// churn and (with churn) scrub rebuilds, in deals faults and the kill; ci
	// deals control-plane chaos, jrs journals each engine's operations and wd
	// supervises them.
	mgr *ctrl.Manager
	in  *faults.Injector
	ci  *faults.CtrlInjector
	jrs []*ctrl.Journal
	wd  *ctrl.Watchdog

	jr      *ctrl.Journal
	browned int64
	install
}

// install is a device's install in flight (m nil: none): the migration, its
// journal token, the router being written, when it lands, its size in words.
type install struct {
	m       *fleet.Migration
	tok     *ctrl.OpToken
	pending *core.Router
	landAt  int64
	writes  int
}

// scenRun is the one slice runner: the kernel over a list of devices plus
// the state the stressors act on. A single device is the list of one.
//
// What a fleet run does differently from a run of the system's own router,
// all of it decided by the spec and none of it by an option:
//
//   - How the device list is built. oneDevice serves clones of the system
//     router's images as device 0, prices the series' power column over its
//     design and sizes the drain bound by its largest engine image;
//     placeFleet asks fleet.Place, serves the memoised per-network images as
//     they are, prices a composite of the initial devices' designs and sizes
//     the drain bound by all their images.
//   - Which stressors register. Faults and control-plane chaos register one
//     stressor per device over that device's control plane, churn one for the
//     run over every device's; scenario.Parse refuses all three beside
//     fleet=, which registers the fleet stressor. The governor attaches to
//     the one device; a fleet's caps constrain its placement.
//   - A refusal with no engine to name — the network homeless — writes no
//     drop trace; a down engine's does (arrive).
//   - A fleet's traces carry the device id in their engine field
//     (traceEngine): the only difference between the trace dumps of a spec
//     and of the same spec with fleet=1.
//   - The three accounting bends of DESIGN §16, one site each: the energy
//     report's engine axis is the device axis (retireMeter), the series'
//     per-slice energy columns read zero (fleetStressor.PreSlice), the power
//     column prices the initial devices at mean utilisation (measure).
type scenRun struct {
	s    *System
	spec scenario.Spec
	gen  *traffic.Generator

	devs []*device
	// home[vn] is the engine serving network vn; nil while it is homeless
	// (its device crashed: mid-migration, or degraded).
	home []*scenEng
	// queues[vn] is network vn's bounded ingress queue; refs[vn] the oracle
	// its lookups are checked against (flipped by commit bubbles). kept[vn]
	// is the oracle of the table the control plane keeps for vn — one per
	// table epoch, built when a batch is armed and installed at its commit:
	// audits read it, and refs[vn] is it except between a commit bubble's
	// injection and the commit.
	queues []fifo[queued]
	refs   []*ip.Table
	kept   []*ip.Table

	// started counts the churn batches armed: one schedule per run.
	started int

	// fl is the fleet stressor's state (fleetrun.go); nil without fleet=.
	fl *fleetState

	rep *ScenarioReport
	gv  *scenario.GovRun
	st  settler
	// design is the plant the series' power column is priced over; perSlice
	// the meter the scenario engine integrates slice by slice (nil: none);
	// ledger the run's energy account, which device meters retire into.
	design   power.SystemDesign
	perSlice *energy.Meter
	ledger   *energy.Meter
	// reloadWords is the most words one reload writes: it sizes the drain.
	reloadWords int

	// Per-slice measurement scratch.
	utils       []float64
	upVN        []bool
	reloadFlags []bool
	dropVN      []*obs.Counter
}

// newSim returns a parity-checking engine over img — what every engine of a
// run is: at set-up, after a scrub reload and after a migration lands.
func newSim(img *pipeline.Image) *pipeline.BatchSim {
	sim := pipeline.NewBatchSim(img)
	sim.EnableParityCheck()
	return sim
}

// newEngine gives dev one more engine, over img, serving the networks vns,
// and points their arrivals at it.
func (r *scenRun) newEngine(dev *device, img *pipeline.Image, vns []int) *scenEng {
	e := &scenEng{dev: dev, idx: len(dev.engines), served: vns, sim: newSim(img),
		flights: newFlights(img), pending: make([]int64, len(vns)), fs: engState{img: img, repairAt: -1}, doneAt: -1}
	dev.engines = append(dev.engines, e)
	for _, vn := range vns {
		r.home[vn] = e
	}
	return e
}

// setRouter makes rt the router of a device with no engines yet, with
// engines over images: one engine for all of vns under the merged scheme,
// engine i for vns[i] otherwise.
func (r *scenRun) setRouter(dev *device, rt *core.Router, images []*pipeline.Image, vns []int) {
	dev.router = rt
	if rt.Config().Scheme == core.VM {
		r.newEngine(dev, images[0], vns)
		return
	}
	for i, img := range images {
		r.newEngine(dev, img, vns[i:i+1])
	}
}

// newDeviceMeter builds a fresh meter over the router's power model. The
// cycle loop runs on the coordinator, so it can feed the per-lookup energy
// histogram without touching any worker hot path.
func (r *scenRun) newDeviceMeter(rt *core.Router) (*energy.Meter, error) {
	em, err := energy.NewModel(rt.Design())
	if err != nil {
		return nil, err
	}
	mt := energy.NewMeter(em, r.s.k)
	mt.ObserveHist = true
	return mt, nil
}

// retireMeter folds a device's meter into the run's ledger and drops it:
// when an install changes the device's power model, when the device crashes,
// and at run end.
func (r *scenRun) retireMeter(dev *device) {
	mt := dev.meter
	if mt == nil {
		return
	}
	dev.meter = nil
	if r.fl != nil {
		// DESIGN §16 bend 1: a fleet's engines come and go with migrations
		// while its devices are the stable identity, so the ledger's engine
		// axis is the device axis: a device's dynamic energy lands in one
		// slot, as its leakage does. The per-VNID and per-component splits
		// fold as they are.
		r.ledger.EngineDynFJ[dev.id] += mt.DynTotalFJ()
		r.ledger.DeviceStaticFJ[dev.id] += mt.StaticTotalFJ()
		mt.EngineDynFJ, mt.DeviceStaticFJ = nil, nil
	}
	r.ledger.Fold(mt)
}

// retire folds an engine's cumulative slot counters into the report; called
// when the engine is replaced by a fresh one and for every engine at run end.
func (r *scenRun) retire(sim *pipeline.BatchSim) {
	st := sim.Stats()
	r.rep.BubbleCycles += st.Bubbles
	r.rep.EngineCycles += st.Cycles
}

// refuse drops n packets of network vn that nothing can serve: an arrival
// with no engine up to take it, the contents of a lost pipeline or of a
// parked network's queue.
func (r *scenRun) refuse(vn int, n int64) {
	r.rep.DroppedPerVN[vn] += n
	r.dropVN[vn].Add(n)
	obsFaultDrops.Add(n)
}

// flushExits drops an engine's in-flight lookups when it goes down: the
// pipeline's contents are lost with the reload, the rebuild or the corpse.
func (r *scenRun) flushExits(e *scenEng) {
	for j, n := range e.pending {
		r.refuse(e.served[j], n)
	}
	clear(e.pending)
	e.flights = e.flights[:0]
}

// traceEngine names engine eIdx of dev in flight traces: its index on the
// one device; the device's id in a fleet, whose engines come and go.
func (r *scenRun) traceEngine(dev *device, eIdx int) int {
	if r.fl != nil {
		return dev.id
	}
	return eIdx
}

// ---- kernel ---------------------------------------------------------------

// Outstanding keeps the drain going while any network not parked behind a
// dead engine still has queued packets, or any engine in-flight lookups.
func (r *scenRun) Outstanding() bool {
	for vn := range r.queues {
		if e := r.home[vn]; r.queues[vn].len() > 0 && (e == nil || !e.fs.dead) {
			return true
		}
	}
	for _, dev := range r.devs {
		for _, e := range dev.engines {
			if len(e.flights) > 0 {
				return true
			}
		}
	}
	return false
}

// nextQueued pops the next packet engine e serves — round-robin over the
// ingress queues of its networks, the first that is not empty — with its
// network's index in e.served: the request VNID, taken here and not at
// enqueue because a network that migrated has changed serving index.
func (r *scenRun) nextQueued(e *scenEng) (queued, int, bool) {
	vns, j := e.served, e.rrNext
	for range vns {
		if q := &r.queues[vns[j]]; q.len() > 0 {
			if e.rrNext = j + 1; e.rrNext == len(vns) {
				e.rrNext = 0
			}
			return q.pop(), j, true
		}
		if j++; j == len(vns) {
			j = 0
		}
	}
	return queued{}, 0, false
}

// arrive offers cycle cyc's packets: one Bernoulli draw per network at the
// load shape's probability, then admission, a serving engine that is up and
// room in the ingress queue — only an arrival that passes all three draws
// its address.
func (r *scenRun) arrive(cyc int64) {
	gen, gv, rep := r.gen, r.gv, r.rep
	p := r.spec.Load.At(cyc, r.spec.Cycles)
	for vn := range r.queues {
		if !gen.Bernoulli(p) {
			continue
		}
		rep.OfferedPerVN[vn]++
		e := r.home[vn]
		switch {
		case e == nil:
			// Homeless: drop, never misforward. There is no engine to name
			// in a drop trace.
			r.refuse(vn, 1)
		case gv != nil && gv.AdmitArrival(vn, e.idx):
			rep.DroppedPerVN[vn]++
		case e.fs.down():
			r.refuse(vn, 1)
			// Seq is worker-independent: cycle-major, network-minor. The
			// arrival is refused before it has an address: drawing one would
			// make a traced run consume the generator unlike a bare one.
			if tel := r.s.tel; tel.Tracing() {
				if seq := r.st.seq(cyc, int32(vn)); tel.Sampler.Sample(vn, seq) {
					r.st.held = append(r.st.held, heldTrace{cyc, -1,
						scenario.DropTrace(seq, vn, r.traceEngine(e.dev, e.idx), cyc)})
				}
			}
		case r.queues[vn].len() >= r.spec.Queue:
			rep.DroppedPerVN[vn]++
		default:
			r.queues[vn].push(queued{arrival: cyc, addr: gen.NextFor(vn).Addr, vn: int32(vn)})
		}
	}
	rep.BacklogPeak = max(rep.BacklogPeak, r.backlog())
}

// backlog is the packets waiting in the ingress queues.
func (r *scenRun) backlog() (n int) {
	for vn := range r.queues {
		n += r.queues[vn].len()
	}
	return n
}

// serve gives every engine in service its input slot of cycle cyc: a write
// bubble takes it first, then the engine's queues round-robin. A dark
// device has no slots; a browned-out one sits the cycle out.
func (r *scenRun) serve(cyc int64) error {
	gv := r.gv
	for _, dev := range r.devs {
		if len(dev.engines) == 0 {
			continue
		}
		if r.fl != nil && r.fl.inj.BrownedOut(dev.id, cyc) {
			dev.browned++
			continue
		}
		for eIdx, e := range dev.engines {
			if e.fs.down() {
				continue
			}
			if gv != nil && !gv.EngineServes(eIdx) {
				continue
			}
			bubble := e.sim.PendingBubbles() > 0 && !e.ch.crashed
			if bubble && e.ch.crashAtBubble >= 0 && e.sim.PendingBubbles() <= e.ch.crashAtBubble {
				// The updater dies before its commit bubble: shadow writes stop,
				// the old bank keeps serving, and the watchdog rolls the torn
				// commit back at a boundary.
				r.chaosCrash(e, cyc)
				bubble = false
			}
			if bubble {
				if e.sim.PendingBubbles() == 1 {
					// Commit bubble: the oracle flips with the shadow bank.
					r.refs[e.batch.VN] = e.newRef
				}
				if err := e.sim.InjectBubble(cyc); err != nil {
					return err
				}
				dev.meter.Bubble(eIdx, e.batch.VN)
			} else if q, j, ok := r.nextQueued(e); ok {
				e.flights = append(e.flights, inflight{arrival: q.arrival, ref: r.refs[q.vn]})
				e.pending[j]++
				e.sim.Inject(pipeline.Request{Addr: q.addr, VN: j, Trace: r.st.traced(q)}, cyc)
			} else {
				e.sim.Idle(cyc)
			}
			if e.handle != nil && e.doneAt < 0 && !e.sim.Updating() {
				e.doneAt = cyc
			}
		}
	}
	return nil
}

// RunSlice executes cycles [b, b+n): shaped arrivals into the ingress queues
// (live slices only), then one service step per engine per cycle, all on the
// coordinator. The slice is the batch: each engine is settled at its end
// (every pipeline.SettleCycles cycles of a longer one), in serve order.
func (r *scenRun) RunSlice(b, n int64, live bool) (scenario.SliceStats, error) {
	before := r.st.total
	for c := b; c < b+n; c += pipeline.SettleCycles {
		for cyc, end := c, min(c+pipeline.SettleCycles, b+n); cyc < end; cyc++ {
			if live {
				r.arrive(cyc)
			}
			if err := r.serve(cyc); err != nil {
				return scenario.SliceStats{}, err
			}
		}
		for d, dev := range r.devs {
			for eIdx, e := range dev.engines {
				if n := r.st.settle(e, dev.meter, r.traceEngine(dev, eIdx), d<<16|eIdx); n > 0 {
					obsFaultDrops.Add(n)
					if e.fs.detectVia == "" {
						e.fs.detectVia = ViaAccess
					}
				}
			}
		}
		r.st.putTraces()
	}
	st := r.measure(n, live)
	st.Delivered = r.st.total - before
	return st, nil
}

// measure takes the slice's measurements for the telemetry row and the
// governor's sample.
func (r *scenRun) measure(n int64, live bool) scenario.SliceStats {
	updating, downEngines := 0, 0
	clear(r.utils)
	for _, dev := range r.devs {
		if dev.slots == 0 || len(dev.engines) == 0 {
			continue
		}
		var sum float64
		for eIdx, e := range dev.engines {
			var u float64
			u, e.utilCur[0], e.utilCur[1] = scenario.UtilDelta(e.sim.Stats(), e.utilCur[0], e.utilCur[1])
			sum += u
			if e.handle != nil {
				updating++
			}
			if e.fs.down() {
				downEngines++
			}
			if r.fl == nil {
				r.utils[dev.slot0+eIdx], r.reloadFlags[dev.slot0+eIdx] = u, e.fs.reloading
			}
		}
		if r.fl != nil {
			// DESIGN §16 bend 3: a fleet's power column is priced over the
			// engine slots of the initial placement, each at its device's mean
			// utilisation (migrations change a device's engines, not its
			// slots): a crashed device's slots read zero but stay in the
			// static floor, a woken spare has none.
			for i := 0; i < dev.slots; i++ {
				r.utils[dev.slot0+i] = sum / float64(len(dev.engines))
			}
		}
	}
	for vn, e := range r.home {
		up := e != nil && !e.fs.down()
		r.upVN[vn] = up
		if !up && live {
			r.rep.UnavailableCyclesPerVN[vn] += n
		}
	}
	recoveries, degradedVNs := r.chaosSliceStats()
	installs, migrating, landed, parked := r.fleetSliceStats()
	return scenario.SliceStats{
		Util: r.utils, Backlog: r.backlog(),
		Scrubs: downEngines + installs, Updates: updating + migrating,
		Recoveries: recoveries + landed, DegradedVNs: degradedVNs + parked,
		Avail: r.upVN, Reloading: r.reloadFlags,
	}
}

// RunScenario runs one composed scenario: the spec's load shape, fault
// schedule, update churn, fleet and power caps acting together on this
// system. The report is a pure function of the spec and the generator's
// seed — byte-identical at any -j.
func (s *System) RunScenario(gen *traffic.Generator, spec scenario.Spec) (ScenarioReport, error) {
	r, err := s.runScenario(gen, spec)
	if err != nil {
		return ScenarioReport{}, err
	}
	return *r.rep, nil
}

// plant exposes the router to the governor: the placed design (FMHz at
// fmax), the virtualization scheme and the network count.
func (s *System) plant() governor.Plant {
	return governor.Plant{
		Design: s.router.Design(),
		Scheme: s.router.Config().Scheme,
		K:      s.k,
	}
}

// oneDevice is the identity placement: the system's own router is device 0
// and serves every network, over clones of the control plane's pinned
// compilation when churn is active (successive recompilations diff word for
// word), of the router's build images otherwise; the governor, if the spec
// names a cap, attaches to the device.
func (r *scenRun) oneDevice() error {
	s, spec, dev := r.s, r.spec, &device{}
	var images []*pipeline.Image
	if spec.Churn != nil {
		mgr, err := ctrl.New(s.router.Config(), s.tables)
		if err != nil {
			return err
		}
		mgr.SetEventLog(s.tel.Events)
		if images, err = mgr.PinnedImages(); err != nil {
			return err
		}
		dev.mgr = mgr
	} else {
		for _, img := range s.router.Images() {
			images = append(images, img.Clone())
		}
	}
	dev.slots = len(images)
	vns := make([]int, s.k)
	for vn := range vns {
		vns[vn] = vn
	}
	r.setRouter(dev, s.router, images, vns)
	dev.meter = s.meter()
	dev.meter.ObserveHist = true // see newDeviceMeter
	r.devs = []*device{dev}
	r.design, r.perSlice, r.ledger = s.router.Design(), dev.meter, s.meter()
	for _, img := range images {
		r.reloadWords = max(r.reloadWords, img.Words())
	}

	var gcfg *governor.Config
	if spec.CapW > 0 || spec.DeviceCapW > 0 {
		gcfg = &governor.Config{CapWatts: spec.CapW, DeviceCapWatts: spec.DeviceCapW, LiftCycle: spec.LiftCycle}
	}
	var err error
	r.gv, err = scenario.NewGovRun(gcfg, s.plant(), len(images), s.k, s.tel.Events)
	return err
}

// runScenario is RunScenario returning the finished run, its report filled
// in, so tests can look at the state it ended in.
func (s *System) runScenario(gen *traffic.Generator, spec scenario.Spec) (*scenRun, error) {
	r, eng, err := s.newScenRun(gen, spec)
	if err != nil {
		return nil, err
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}
	rep := r.rep
	rep.TrafficCycles = eng.TrafficCycles
	rep.DrainCycles = eng.DrainCycles

	rep.MeanDelayCycles = r.st.meanDelay()
	rep.NoRoute, rep.Mismatches, rep.FaultedLookups = r.st.noRoute, r.st.mismatches, r.st.faulted
	rep.Recovered = true
	for _, dev := range r.devs {
		for _, e := range dev.engines {
			if e.fs.down() || len(e.fs.outstanding) > 0 {
				rep.Recovered = false
			}
			r.retire(e.sim)
		}
		r.retireMeter(dev)
	}
	rep.Completed = !r.Outstanding()
	for _, st := range eng.Stressors {
		if st.Outstanding() {
			rep.Completed = false
		}
	}
	if r.gv != nil {
		rep.Governor = r.gv.Report()
	}
	er, err := r.ledger.Report(deliveredBits(r.st.total))
	if err != nil {
		return nil, err
	}
	rep.Energy = er
	er.Publish()
	r.chaosFinalize()
	if err := r.fleetFinalize(); err != nil {
		return nil, err
	}
	obsPacketsResolved.Add(r.st.total)
	obsLoadCycles.Add(rep.TrafficCycles)
	return r, nil
}

// newScenRun sets a run up — devices, stressors and the scenario engine
// that will drive them — without running a cycle of it.
func (s *System) newScenRun(gen *traffic.Generator, spec scenario.Spec) (*scenRun, *scenario.Engine, error) {
	if spec.Cycles < 1 || spec.Slice < 1 || spec.Queue < 1 {
		return nil, nil, fmt.Errorf("netsim: spec of %d cycles, %d-cycle slices and %d-packet queues, want each >= 1", spec.Cycles, spec.Slice, spec.Queue)
	}
	if spec.Churn != nil && spec.Churn.TargetVN >= s.k {
		return nil, nil, fmt.Errorf("netsim: churn target network %d outside [0,%d)", spec.Churn.TargetVN, s.k)
	}
	if spec.Kill != nil && spec.Kill.Engine >= len(s.router.Images()) {
		return nil, nil, fmt.Errorf("netsim: kill engine %d with %d engines", spec.Kill.Engine, len(s.router.Images()))
	}
	if f := spec.Fleet; f != nil {
		// At most K devices host a network at once, and a network leaves a
		// device only when it crashes, so no more than K + devcrashes devices
		// can ever host one.
		crashes := 0
		if spec.Chaos != nil {
			crashes = spec.Chaos.DeviceCrashes
		}
		if f.Devices > s.k+crashes || f.Spares > s.k+crashes-f.Devices {
			return nil, nil, fmt.Errorf("netsim: fleet of %d devices + %d spares over %d networks and %d device crashes, want at most networks + crashes devices",
				f.Devices, f.Spares, s.k, crashes)
		}
	}

	rep := &ScenarioReport{
		Spec:                   spec.Raw,
		Stressors:              spec.Stressors(),
		Scheme:                 s.router.Config().Scheme,
		K:                      s.k,
		SliceCycles:            spec.Slice,
		OfferedPerVN:           make([]int64, s.k),
		DeliveredPerVN:         make([]int64, s.k),
		DroppedPerVN:           make([]int64, s.k),
		UnavailableCyclesPerVN: make([]int64, s.k),
	}
	r := &scenRun{s: s, spec: spec, gen: gen, rep: rep,
		home: make([]*scenEng, s.k), queues: make([]fifo[queued], s.k),
		refs: append([]*ip.Table(nil), s.refs...), kept: append([]*ip.Table(nil), s.refs...),
		dropVN: make([]*obs.Counter, s.k)}
	for vn := range r.dropVN {
		r.dropVN[vn] = obs.NewCounter(fmt.Sprintf("netsim.fault_drops.vn%02d", vn))
	}
	r.st = settler{tel: s.tel, seqStride: int64(s.k), delivered: rep.DeliveredPerVN, dropped: rep.DroppedPerVN, dropVN: r.dropVN}

	var err error
	if spec.Fleet == nil {
		err = r.oneDevice()
	} else {
		err = r.placeFleet()
	}
	if err != nil {
		return nil, nil, err
	}
	r.utils = make([]float64, len(r.design.Engines))
	r.reloadFlags = make([]bool, len(r.design.Engines))
	r.upVN = make([]bool, s.k)

	// Each stressor adds the drain slices its own work can need.
	reload := 4 * (r.reloadWords/int(spec.Slice) + 1)
	maxDrain := 16 + reload
	var stressors []scenario.Stressor
	if spec.Chaos != nil && spec.Chaos.CtrlTotal() > 0 {
		// Chaos registers FIRST: its boundary repairs torn reloads and rolls
		// crashed commits back before faults would install or churn commit.
		for _, dev := range r.devs {
			if dev.ci, err = faults.NewCtrlInjector(faults.CtrlConfig{
				Seed:           spec.Seed,
				Stalls:         spec.Chaos.Stalls,
				Torn:           spec.Chaos.Torn,
				FalsePositives: spec.Chaos.FalsePositives,
				Crashes:        spec.Chaos.Crashes,
			}); err != nil {
				return nil, nil, err
			}
			if dev.wd, err = ctrl.NewWatchdog(spec.Slice, s.tel.Events); err != nil {
				return nil, nil, err
			}
			dev.jrs = make([]*ctrl.Journal, len(dev.engines))
			for i := range dev.jrs {
				dev.jrs[i] = ctrl.NewJournal()
				dev.jrs[i].SetEventLog(s.tel.Events)
			}
			stressors = append(stressors, scenChaos{r: r, dev: dev})
		}
		rep.Chaos = &ChaosReport{DegradedSlicesPerVN: make([]int64, s.k)}
		// Each stall/torn replays up to a full reload latency under watchdog
		// grace; each crash waits out a deadline before its batch re-arms.
		maxDrain += spec.Chaos.CtrlTotal() * (reload + 12)
	}
	if spec.SEURate > 0 || spec.Kill != nil {
		fc := faults.Config{Seed: spec.Seed, SEURate: spec.SEURate}
		if spec.Kill != nil {
			fc.Kill = true
			fc.KillEngine = spec.Kill.Engine
			fc.KillCycle = spec.Kill.Cycle
		}
		for _, dev := range r.devs {
			images := make([]*pipeline.Image, len(dev.engines))
			for i, e := range dev.engines {
				images[i] = e.fs.img
			}
			if dev.in, err = faults.NewInjector(fc, images); err != nil {
				return nil, nil, err
			}
			stressors = append(stressors, scenFaults{r: r, dev: dev})
		}
	}
	if spec.Churn != nil {
		stressors = append(stressors, scenChurn{r: r})
		maxDrain += 8 * spec.Churn.Batches
	}
	if r.fl != nil {
		stressors = append(stressors, fleetStressor{r: r})
		maxDrain += r.fleetDrainSlices()
	}

	eng := &scenario.Engine{K: s.k, Design: r.design, FmaxMHz: s.router.Fmax(), Tel: s.tel,
		Cycles: spec.Cycles, SliceCycles: spec.Slice, MaxDrainSlices: maxDrain,
		Gov: r.gv, Energy: r.perSlice, Stressors: stressors, Kernel: r}
	return r, eng, nil
}
