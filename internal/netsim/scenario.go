package netsim

// This file is the one slice-quantised runner, behind cmd/lookupsim
// -scenario: one engine-driven run over a placed list of devices — the
// system's own router as the one device, or what fleet.Place makes of
// fleet= (fleetrun.go) — in which a shaped offered load, SEU/kill fault
// injection, hitless update churn, a power cap and device failures all act
// at the same time. Each adversity
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
//   - A scrub on an engine with an update in flight interrupts the update
//     (the reload would clobber its shadow writes), as the watchdog does a
//     crashed one, and the update re-arms once the engine is back; only a
//     batch aimed at a dead engine is given up, so the run terminates.
//   - The governor acts at the arrival/service grain (admission drops,
//     frequency-paced service, quiescing), the same way under every
//     stressor. It observes the slice's metered watts, a reload's words
//     included where they are written; a reloading engine's flag only
//     keeps its remembered serving utilization out of the recovery
//     prediction's update.

import (
	"fmt"
	"math/bits"

	"vrpower/internal/core"
	"vrpower/internal/ctrl"
	"vrpower/internal/energy"
	"vrpower/internal/faults"
	"vrpower/internal/fleet"
	"vrpower/internal/governor"
	"vrpower/internal/ip"
	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
	"vrpower/internal/scenario"
	"vrpower/internal/traffic"
	"vrpower/internal/update"
)

// ScenarioReport summarises a composed run: one section per stressor over
// one shared packet accounting.
type ScenarioReport struct {
	// Schema is the report layout's version, obs.SchemaVersion.
	Schema int
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
	SEUs   []SEURecord
	Kill   *KillRecord
	Scrubs int
	// Recovered reports every engine back in service and every upset
	// repaired by run end.
	Recovered bool
	// Churn section (empty without churn=).
	Batches        []UpdateBatch
	BatchesApplied int
	// BatchesAborted counts armed updates interrupted before their flip — by
	// a scrub of their engine or a crashed updater — each of which re-arms,
	// plus the batches given up on a dead engine.
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
// router's images, its energy meter and its control plane. Only the fleet
// stressor (fleetrun.go) sets the fields below the gap.
type device struct {
	id      int
	router  *core.Router
	engines []*scenEng
	// meter is the device's energy account for the whole run, over the
	// power model rebase picks from its lifecycle state.
	meter *energy.Meter
	// The control plane, each part nil unless the spec asks for it: mgr runs
	// churn and (with churn) scrub rebuilds, in deals faults and the kill; ci
	// deals control-plane chaos, jrs journals each engine's operations and wd
	// supervises them.
	mgr *ctrl.Manager
	in  *faults.Injector
	ci  *faults.CtrlInjector
	jrs []*ctrl.Journal
	wd  *ctrl.Watchdog

	jr *ctrl.Journal
	// brownouts are the device's brownout windows; browned counts the
	// service cycles it sat out in them.
	brownouts []faults.BrownoutWindow
	browned   int64
	install
}

// dark is the power model of a device that is not powered: no engines, no
// leakage.
var dark = &energy.Model{}

// rebase puts dev's meter on the power model of its lifecycle state, keeping
// what it has charged: at set-up and at each transition the fleet controller
// reports or an install lands. A device is powered exactly while the
// controller has it powering up or active (always, without fleet=). Powered,
// it meters its router's model, or before it has one a static-only model:
// one device's leakage at the run's clock. Unpowered, it meters dark.
func (r *scenRun) rebase(dev *device) error {
	switch {
	case r.fl != nil && !r.fl.ctr.Powered(dev.id):
		dev.meter.Rebase(dark)
	case dev.router == nil:
		d := r.s.router.Design()
		dev.meter.Rebase(&energy.Model{Devices: 1, StaticWattsPerDevice: d.DeviceStaticWatts(), FMHz: d.FMHz})
	default:
		em, err := energy.NewModel(dev.router.Design())
		if err != nil {
			return err
		}
		dev.meter.Rebase(em)
	}
	return nil
}

// sitsOut reports whether dev is browned out at cycle cyc and sits it out.
func (dev *device) sitsOut(cyc int64) bool {
	for _, w := range dev.brownouts {
		if w.SitsOut(cyc) {
			return true
		}
	}
	return false
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

// scenRun is the one slice runner: the kernel over a placed list of devices
// plus the state the stressors act on. Every run is a placement (place): a
// spec without fleet= is the identity placement, the system's own router as
// the one device, and every device is built by addDevice. A device's traces
// name its engine within it and, past device 0, the device; its meter is
// its account for the run, and the report's energy ledger is the meters
// joined in device order.
//
// What a fleet run does differently, all of it decided by the spec and none
// of it by an option:
//
//   - How the list is placed: fleet.Place over the spec's devices, serving
//     the memoised per-network images as they are, spares dark; the
//     identity placement serves clones of the system router's images (the
//     churn manager's pinned compilation under churn=).
//   - Which stressors register. Faults and control-plane chaos register one
//     stressor per device over that device's control plane, churn one for the
//     run over every device's; scenario.Parse refuses all three beside
//     fleet=, which registers the fleet stressor. The governor attaches to
//     device 0 of the identity placement; a fleet's caps constrain its
//     placement.
//   - A refusal with no engine to name — the network homeless — writes no
//     drop trace; a down engine's does (arrive).
type scenRun struct {
	s    *System
	spec scenario.Spec
	gen  *traffic.Generator
	// win holds the current settle window's arrivals, drawn from gen at the
	// load shape's probability loadAt(cycle).
	win    *traffic.Window
	loadAt func(cyc int64) float64

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

	// started counts the churn batches armed: one schedule per run. retry
	// is an interrupted batch waiting to re-arm, before the schedule goes on.
	started int
	retry   retryBatch
	// due is the current slice's kill and upsets in cycle order, as the fault
	// stressors drew them; RunSlice lands due[nextDue:] each at its cycle.
	due     []dueFault
	nextDue int

	// fl is the fleet stressor's state (fleetrun.go); nil without fleet=.
	fl *fleetState

	rep *ScenarioReport
	gv  *scenario.GovRun
	st  settler
	// reloadWords is the largest image any engine of the placement serves:
	// the most words one write window can need, a scrub reload rewriting an
	// engine's image or a fleet install writing a network's. It sizes the
	// drain bound the same way for every placement.
	reloadWords int

	// Per-slice measurement scratch.
	utils       []float64
	upVN        []bool
	reloadFlags []bool
	dropVN      []*obs.Counter
}

// retryBatch is a hitless update stopped before its flip (h nil: none): the
// aborted update, which re-arms as it was prepared, and the oracle of its
// post-update table.
type retryBatch struct {
	h   *ctrl.HitlessUpdate
	ref *ip.Table
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

// addDevice is the device builder every placement uses. It appends a device
// to the run, metered as rebase says; with rt, the device serves vns over
// images — one engine for all of them under the merged scheme, engine i for
// vns[i] otherwise — and the drain bound grows to its largest image. The
// cycle loop runs on the coordinator, so the meter feeds the per-lookup
// energy histogram without touching any worker hot path.
func (r *scenRun) addDevice(rt *core.Router, images []*pipeline.Image, vns []int) (*device, error) {
	dev := &device{id: len(r.devs), router: rt, meter: energy.NewMeter(dark, r.s.k)}
	dev.meter.ObserveHist = true
	r.devs = append(r.devs, dev)
	merged := rt != nil && rt.Config().Scheme == core.VM
	for i, img := range images {
		r.reloadWords = max(r.reloadWords, img.Words())
		if !merged {
			r.newEngine(dev, img, vns[i:i+1])
		}
	}
	if merged {
		r.newEngine(dev, images[0], vns)
	}
	return dev, r.rebase(dev)
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

// arrive offers cycle cyc's packets, read from the window RunSlice drew:
// each network that offers one, in network order, then admission, a serving
// engine that is up and room in the ingress queue.
func (r *scenRun) arrive(cyc int64) {
	for w, word := range r.win.Arrivals(cyc) {
		for ; word != 0; word &= word - 1 {
			r.offer(w<<6|bits.TrailingZeros64(word), cyc)
		}
	}
	r.rep.BacklogPeak = max(r.rep.BacklogPeak, r.backlog())
}

// offer takes network vn's packet arriving at cycle cyc.
func (r *scenRun) offer(vn int, cyc int64) {
	gv, rep := r.gv, r.rep
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
		// Seq is worker-independent: cycle-major, network-minor.
		if tel := r.s.tel; tel.Tracing() {
			if seq := r.st.seq(cyc, int32(vn)); tel.Sampler.Sample(vn, seq) {
				ft := scenario.DropTrace(seq, vn, e.idx, cyc, r.win.Addr(vn, cyc))
				ft.Device = e.dev.id
				r.st.held = append(r.st.held, heldTrace{cyc, -1, ft})
			}
		}
	case r.queues[vn].len() >= r.spec.Queue:
		rep.DroppedPerVN[vn]++
	default:
		r.queues[vn].push(queued{arrival: cyc, addr: r.win.Addr(vn, cyc), vn: int32(vn)})
	}
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
		if dev.sitsOut(cyc) {
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

// RunSlice executes cycles [b, b+n): at each cycle the faults due at it, then
// shaped arrivals into the ingress queues (live slices only), then one
// service step per engine, all on the coordinator. The slice is the batch:
// each engine is settled at its end (every pipeline.SettleCycles cycles of a
// longer one), in serve order. The arrivals of a live window are drawn at
// its start, all networks at once.
func (r *scenRun) RunSlice(b, n int64, live bool) (scenario.SliceStats, error) {
	before := r.st.total
	for c := b; c < b+n; c += pipeline.SettleCycles {
		end := min(c+pipeline.SettleCycles, b+n)
		if live {
			r.gen.Fill(r.win, c, int(end-c), r.loadAt)
		}
		for cyc := c; cyc < end; cyc++ {
			for ; r.nextDue < len(r.due) && r.due[r.nextDue].at == cyc; r.nextDue++ {
				if d := r.due[r.nextDue]; d.kill {
					r.kill(d.e, b, cyc)
				} else {
					r.upset(d.e, d.u)
				}
			}
			if live {
				r.arrive(cyc)
			}
			if err := r.serve(cyc); err != nil {
				return scenario.SliceStats{}, err
			}
		}
		for _, dev := range r.devs {
			for _, e := range dev.engines {
				r.settle(e)
			}
		}
		r.st.putTraces()
	}
	r.due, r.nextDue = r.due[:0], 0
	st := r.measure(n, live)
	st.Delivered = r.st.total - before
	return st, nil
}

// settle settles engine e's exits; a parity-refused one flags the engine for
// a scrub by access-time detection.
func (r *scenRun) settle(e *scenEng) {
	if n := r.st.settle(e, e.dev.id<<16|e.idx); n > 0 {
		obsFaultDrops.Add(n)
		if e.fs.detectVia == "" {
			e.fs.detectVia = ViaAccess
		}
	}
}

// measure takes the slice's measurements for the telemetry row and the
// governor's sample. Util lists the engines of every powered device in
// device order, each at its own utilisation (an engine still being installed
// at zero). The slice's watts are not measured here: they are the meters'.
func (r *scenRun) measure(n int64, live bool) scenario.SliceStats {
	updating, downEngines := 0, 0
	r.utils, r.reloadFlags = r.utils[:0], r.reloadFlags[:0]
	for _, dev := range r.devs {
		first := len(r.utils)
		for range dev.meter.Model().Engines {
			r.utils, r.reloadFlags = append(r.utils, 0), append(r.reloadFlags, false)
		}
		for eIdx, e := range dev.engines {
			var u float64
			u, e.utilCur[0], e.utilCur[1] = scenario.UtilDelta(e.sim.Stats(), e.utilCur[0], e.utilCur[1])
			r.utils[first+eIdx], r.reloadFlags[first+eIdx] = u, e.fs.reloading()
			if e.handle != nil {
				updating++
			}
			if e.fs.down() {
				downEngines++
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
	// An upset is detected after its cycle and repaired no earlier.
	for i, u := range rep.SEUs {
		if u.DetectedAt >= 0 && u.DetectedAt <= u.Cycle || u.RepairedAt >= 0 && u.RepairedAt < u.DetectedAt {
			return nil, fmt.Errorf("netsim: SEU %d of cycle %d detected at %d, repaired at %d", i, u.Cycle, u.DetectedAt, u.RepairedAt)
		}
	}
	rep.TrafficCycles = eng.TrafficCycles
	rep.DrainCycles = eng.DrainCycles

	rep.MeanDelayCycles = r.st.meanDelay()
	rep.NoRoute, rep.Mismatches, rep.FaultedLookups = r.st.noRoute, r.st.mismatches, r.st.faulted
	rep.Recovered = true
	ledger := energy.NewMeter(dark, s.k)
	for _, dev := range r.devs {
		for _, e := range dev.engines {
			if e.fs.down() || len(e.fs.outstanding) > 0 {
				rep.Recovered = false
			}
			r.retire(e.sim)
		}
		ledger.Join(dev.meter)
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
	er, err := ledger.Report(deliveredBits(r.st.total))
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

	rep := &ScenarioReport{
		Schema:                 obs.SchemaVersion,
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
		win: gen.NewWindow(pipeline.SettleCycles), loadAt: func(cyc int64) float64 { return spec.Load.At(cyc, spec.Cycles) },
		home: make([]*scenEng, s.k), queues: make([]fifo[queued], s.k),
		refs: append([]*ip.Table(nil), s.refs...), kept: append([]*ip.Table(nil), s.refs...),
		dropVN: make([]*obs.Counter, s.k)}
	for vn := range r.dropVN {
		r.dropVN[vn] = obs.NewCounter(fmt.Sprintf("netsim.fault_drops.vn%02d", vn))
	}
	r.st = settler{tel: s.tel, seqStride: int64(s.k), delivered: rep.DeliveredPerVN, dropped: rep.DroppedPerVN, dropVN: r.dropVN}

	if err := r.place(); err != nil {
		return nil, nil, err
	}
	r.upVN = make([]bool, s.k)
	meters := make([]*energy.Meter, len(r.devs))
	for d, dev := range r.devs {
		meters[d] = dev.meter
	}
	// The governor, when the spec names a cap, attaches to device 0 of the
	// identity placement, the system's router (its placed design, FMHz at
	// fmax); a fleet's caps constrain its placement instead.
	var gcfg *governor.Config
	if spec.Fleet == nil && (spec.CapW > 0 || spec.DeviceCapW > 0) {
		gcfg = &governor.Config{CapWatts: spec.CapW, DeviceCapWatts: spec.DeviceCapW, LiftCycle: spec.LiftCycle}
	}
	plant := governor.Plant{Design: s.router.Design(), Scheme: s.router.Config().Scheme, K: s.k}
	var err error
	if r.gv, err = scenario.NewGovRun(gcfg, plant, len(r.devs[0].engines), s.k, s.tel.Events); err != nil {
		return nil, nil, err
	}

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

	eng := &scenario.Engine{K: s.k, FmaxMHz: s.router.Fmax(), Tel: s.tel,
		Cycles: spec.Cycles, SliceCycles: spec.Slice, MaxDrainSlices: maxDrain,
		Gov: r.gv, Meters: meters, Stressors: stressors, Kernel: r}
	return r, eng, nil
}
