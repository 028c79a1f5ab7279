package netsim

// This file is the slice-quantised runner of a single device, behind
// cmd/lookupsim -scenario: one engine-driven run in which a shaped offered
// load, SEU/kill fault injection, hitless update churn and a power cap all
// act on the same router at the same time. Each adversity source is a
// scenario.Stressor over shared run state (faults.go, churn.go, chaosrun.go)
// — faults registered before churn, so a scrub decision at a boundary is
// visible to the same boundary's arm decision — and the kernel is a
// sequential per-cycle loop: per-network Bernoulli arrivals (probability
// from the load shape; Assumption 1's equal shares) wait in bounded ingress
// queues, each engine injects one packet per cycle into a persistent
// parity-checking engine, and every exit is checked against the reference
// table of its injection epoch. Because arrivals share one generator stream
// and all control decisions run on the coordinator, the whole composed run is
// a pure function of its seeds — byte-identical at any -j.
//
// Cross-stressor semantics (the interesting part):
//
//   - A down engine (killed, reloading, dead) blackholes its arrivals and
//     flushes its in-flight lookups; its queued packets hold for recovery.
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
	// (power-cap= / power-cap-device= or an attached SetGovernor config).
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

// scenEng is one engine's composed-run state: a persistent parity-checking
// engine, the fault lifecycle over the serving image, the armed-update
// lifecycle, and the in-flight FIFO.
type scenEng struct {
	sim *pipeline.BatchSim
	// fs is the fault lifecycle over the serving image (down/dead flags,
	// sweep cursor, outstanding upsets, pending reload).
	fs engState
	// flights is the lookups pushed into sim and not settled yet, oldest first.
	flights []inflight
	// rrNext is the engine's round-robin pointer over its ingress queues.
	rrNext int
	// Armed hitless update: the handle to commit, the post-update oracle to
	// swap in at the commit bubble, and the report record under construction.
	handle *ctrl.HitlessUpdate
	newRef *ip.Table
	refVN  int
	batch  UpdateBatch
	doneAt int64
	// ch is the chaos stressor's per-engine state (journal token, dealt
	// fault, crash schedule); inert without chaos=.
	ch engChaos
}

// scenRun is the composed run's shared state: the kernel plus the state the
// fault and churn stressors act on.
type scenRun struct {
	s      *System
	spec   scenario.Spec
	gen    *traffic.Generator
	scheme core.Scheme

	engines []*scenEng
	// queues[vn] is network vn's bounded ingress queue; refs[vn] its
	// current-epoch oracle (flipped by commit bubbles).
	queues []fifo[queued]
	refs   []*ip.Table

	// mgr is the control plane for churn and (when churn is active) scrub
	// rebuilds; nil without churn. in/scrubber drive faults; nil without.
	mgr      *ctrl.Manager
	in       *faults.Injector
	scrubber *ctrl.Scrubber
	started  int

	// Chaos machinery (nil without chaos=): the seeded control-plane fault
	// deck, one write-ahead journal per engine, and the shared watchdog.
	ci  *faults.CtrlInjector
	jrs []*ctrl.Journal
	wd  *ctrl.Watchdog

	rep   *ScenarioReport
	gv    *scenario.GovRun
	meter *energy.Meter
	st    settler

	maxWords int

	// Per-slice measurement scratch.
	utilCur     [][2]int64
	utils       []float64
	upVN        []bool
	reloadFlags []bool
	dropVN      []*obs.Counter
}

func (r *scenRun) engineOf(vn int) int { return r.s.engineOf(vn) }

// retire folds an engine's cumulative slot counters into the report; called
// when the engine is replaced by a fresh one over a reloaded image and for
// every engine at run end.
func (r *scenRun) retire(sim *pipeline.BatchSim) {
	st := sim.Stats()
	r.rep.BubbleCycles += st.Bubbles
	r.rep.EngineCycles += st.Cycles
}

// flushExits drops an engine's in-flight lookups when it goes down: the
// pipeline's contents are lost with the reload (or the corpse).
func (r *scenRun) flushExits(e *scenEng) {
	for _, m := range e.flights {
		r.rep.DroppedPerVN[m.vn]++
		r.dropVN[m.vn].Inc()
		obsFaultDrops.Inc()
	}
	e.flights = e.flights[:0]
}

// ---- kernel ---------------------------------------------------------------

// Outstanding keeps the drain going while any live engine still has queued
// or in-flight packets.
func (r *scenRun) Outstanding() bool {
	for vn := range r.queues {
		if r.queues[vn].len() > 0 && !r.engines[r.engineOf(vn)].fs.dead {
			return true
		}
	}
	for _, e := range r.engines {
		if len(e.flights) > 0 {
			return true
		}
	}
	return false
}

// RunSlice executes cycles [b, b+n): shaped Bernoulli arrivals into the
// ingress queues (live slices only), then one service step per engine per
// cycle — bubbles first, queued lookups second — all sequentially on the
// coordinator; the exits are settled every pipeline.DrainWindow cycles and
// at the slice's end.
func (r *scenRun) RunSlice(b, n int64, live bool) (scenario.SliceStats, error) {
	s, gen, gv, rep := r.s, r.gen, r.gv, r.rep
	tel := s.tel
	tracing := tel.Tracing()
	before := r.st.total
	for c := b; c < b+n; c += pipeline.DrainWindow {
		for cyc, end := c, min(c+pipeline.DrainWindow, b+n); cyc < end; cyc++ {
			if live {
				p := r.spec.Load.At(cyc, r.spec.Cycles)
				for vn := 0; vn < s.k; vn++ {
					if !gen.Bernoulli(p) {
						continue
					}
					rep.OfferedPerVN[vn]++
					eIdx := r.engineOf(vn)
					if gv != nil && gv.AdmitArrival(vn, eIdx) {
						rep.DroppedPerVN[vn]++
						continue
					}
					if r.engines[eIdx].fs.down() {
						rep.DroppedPerVN[vn]++
						r.dropVN[vn].Inc()
						obsFaultDrops.Inc()
						// Seq is worker-independent: cycle-major, network-minor. The
						// arrival is refused before it has an address: drawing one
						// here would make a traced run consume the generator
						// differently from a bare one.
						if seq := r.st.seq(cyc, int32(vn)); tracing && tel.Sampler.Sample(vn, seq) {
							r.st.held = append(r.st.held, heldTrace{cyc, -1,
								scenario.DropTrace(seq, vn, eIdx, cyc)})
						}
						continue
					}
					if r.queues[vn].len() >= r.spec.Queue {
						rep.DroppedPerVN[vn]++
						continue
					}
					r.queues[vn].push(queued{arrival: cyc, addr: gen.NextFor(vn).Addr, vn: int32(vn)})
				}
				backlog := 0
				for vn := range r.queues {
					backlog += r.queues[vn].len()
				}
				if backlog > rep.BacklogPeak {
					rep.BacklogPeak = backlog
				}
			}
			// Service: one input slot per engine per cycle; write bubbles take
			// the slot first, then the engine's queues round-robin.
			for eIdx, e := range r.engines {
				if e.fs.down() {
					continue
				}
				if gv != nil && !gv.EngineServes(eIdx) {
					continue
				}
				bubble := e.sim.PendingBubbles() > 0 && !e.ch.crashed
				if bubble && e.ch.crashAtBubble >= 0 && e.sim.PendingBubbles() <= e.ch.crashAtBubble {
					// The updater dies before its commit bubble: shadow
					// writes stop, the old bank keeps serving, and the
					// watchdog rolls the torn commit back at a boundary.
					r.chaosCrash(eIdx, e, cyc)
					bubble = false
				}
				if bubble {
					if e.sim.PendingBubbles() == 1 {
						// Commit bubble: the oracle flips with the shadow bank.
						r.refs[e.refVN] = e.newRef
					}
					if err := e.sim.InjectBubble(cyc); err != nil {
						return scenario.SliceStats{}, err
					}
					r.meter.Bubble(eIdx, e.batch.VN)
				} else if q, ok := s.nextQueued(eIdx, &e.rrNext, r.queues); ok {
					e.flights = append(e.flights, inflight{arrival: q.arrival, ref: r.refs[q.vn], vn: q.vn})
					e.sim.Inject(pipeline.Request{Addr: q.addr, VN: s.reqVN(int(q.vn)), Trace: r.st.traced(q)}, cyc)
				} else {
					e.sim.Idle(cyc)
				}
				if e.handle != nil && e.doneAt < 0 && !e.sim.Updating() {
					e.doneAt = cyc
				}
			}
		}
		for eIdx, e := range r.engines {
			if n := r.st.settle(e.sim, &e.flights, r.meter, eIdx, eIdx, eIdx); n > 0 {
				obsFaultDrops.Add(n)
				if e.fs.detectVia == "" {
					e.fs.detectVia = ViaAccess
				}
			}
		}
		r.st.putTraces()
	}
	// Slice measurement for the telemetry row and the governor's sample.
	backlog, updating, downEngines := 0, 0, 0
	for vn := range r.queues {
		backlog += r.queues[vn].len()
	}
	for eIdx, e := range r.engines {
		r.utils[eIdx], r.utilCur[eIdx][0], r.utilCur[eIdx][1] =
			scenario.UtilDelta(e.sim.Stats(), r.utilCur[eIdx][0], r.utilCur[eIdx][1])
		if e.handle != nil {
			updating++
		}
		if e.fs.down() {
			downEngines++
		}
		r.reloadFlags[eIdx] = e.fs.reloading
	}
	for vn := 0; vn < s.k; vn++ {
		down := r.engines[r.engineOf(vn)].fs.down()
		r.upVN[vn] = !down
		if down && live {
			rep.UnavailableCyclesPerVN[vn] += n
		}
	}
	recoveries, degradedVNs := r.chaosSliceStats()
	return scenario.SliceStats{
		Util: r.utils, Delivered: r.st.total - before, Backlog: backlog,
		Scrubs: downEngines, Updates: updating,
		Recoveries: recoveries, DegradedVNs: degradedVNs,
		Avail: r.upVN, Reloading: r.reloadFlags,
	}, nil
}

// RunScenario runs one composed scenario: the spec's load shape, fault
// schedule, update churn and power caps acting together on this system.
// The report is a pure function of the spec and the generator's seed —
// byte-identical at any -j.
func (s *System) RunScenario(gen *traffic.Generator, spec scenario.Spec) (ScenarioReport, error) {
	if spec.Fleet != nil {
		// Fleet runs re-place the networks over their own per-device
		// routers; the single-router path does not apply.
		return s.runFleetScenario(gen, spec)
	}
	r, err := s.runScenario(gen, spec)
	if err != nil {
		return ScenarioReport{}, err
	}
	return *r.rep, nil
}

// runScenario is RunScenario on one router; it returns the finished run, its
// report filled in, so tests can look at the state it ended in.
func (s *System) runScenario(gen *traffic.Generator, spec scenario.Spec) (*scenRun, error) {
	scheme := s.router.Config().Scheme
	if spec.Churn != nil && spec.Churn.TargetVN >= s.k {
		return nil, fmt.Errorf("netsim: churn target network %d outside [0,%d)", spec.Churn.TargetVN, s.k)
	}
	if spec.Kill != nil && spec.Kill.Engine >= len(s.router.Images()) {
		return nil, fmt.Errorf("netsim: kill engine %d with %d engines", spec.Kill.Engine, len(s.router.Images()))
	}

	r := &scenRun{s: s, spec: spec, gen: gen, scheme: scheme, meter: s.meter()}
	// The cycle loop runs on the coordinator, so the run meter can feed the
	// per-lookup energy histogram without touching any worker hot path.
	r.meter.ObserveHist = true
	rep := &ScenarioReport{
		Spec:                   spec.Raw,
		Stressors:              spec.Stressors(),
		Scheme:                 scheme,
		K:                      s.k,
		SliceCycles:            spec.Slice,
		OfferedPerVN:           make([]int64, s.k),
		DeliveredPerVN:         make([]int64, s.k),
		DroppedPerVN:           make([]int64, s.k),
		UnavailableCyclesPerVN: make([]int64, s.k),
	}
	r.rep = rep

	// The serving images: clones of the control plane's pinned compilation
	// when churn is active (successive recompilations diff word-for-word),
	// clones of the router's build images otherwise.
	var images []*pipeline.Image
	if spec.Churn != nil {
		mgr, err := ctrl.New(s.router.Config(), s.tables)
		if err != nil {
			return nil, err
		}
		mgr.SetEventLog(s.tel.Events)
		if images, err = mgr.PinnedImages(); err != nil {
			return nil, err
		}
		r.mgr = mgr
	} else {
		for _, img := range s.router.Images() {
			images = append(images, img.Clone())
		}
	}

	var stressors []scenario.Stressor
	if spec.Chaos != nil {
		// Chaos registers FIRST: its boundary repairs torn reloads and rolls
		// crashed commits back before faults would install or churn commit.
		ci, err := faults.NewCtrlInjector(faults.CtrlConfig{
			Seed:           spec.Seed,
			Stalls:         spec.Chaos.Stalls,
			Torn:           spec.Chaos.Torn,
			FalsePositives: spec.Chaos.FalsePositives,
			Crashes:        spec.Chaos.Crashes,
		})
		if err != nil {
			return nil, err
		}
		wd, err := ctrl.NewWatchdog(ctrl.WatchdogPolicy{
			Backoff: ctrl.Backoff{Base: 256, Seed: spec.Seed},
		}, spec.Slice, s.tel.Events)
		if err != nil {
			return nil, err
		}
		r.ci, r.wd = ci, wd
		r.jrs = make([]*ctrl.Journal, len(images))
		for i := range r.jrs {
			r.jrs[i] = ctrl.NewJournal()
			r.jrs[i].SetEventLog(s.tel.Events)
		}
		rep.Chaos = &ChaosReport{DegradedSlicesPerVN: make([]int64, s.k)}
		stressors = append(stressors, scenChaos{r: r})
	}
	if spec.SEURate > 0 || spec.Kill != nil {
		fc := faults.Config{Seed: spec.Seed, SEURate: spec.SEURate}
		if spec.Kill != nil {
			fc.Kill = true
			fc.KillEngine = spec.Kill.Engine
			fc.KillCycle = spec.Kill.Cycle
		}
		in, err := faults.NewInjector(fc, images)
		if err != nil {
			return nil, err
		}
		scrubber, err := ctrl.NewScrubber(ctrl.ScrubPolicy{}, in)
		if err != nil {
			return nil, err
		}
		scrubber.SetEventLog(s.tel.Events)
		r.in = in
		r.scrubber = scrubber
		stressors = append(stressors, scenFaults{r: r})
	}
	if spec.Churn != nil {
		stressors = append(stressors, scenChurn{r: r})
	}

	gcfg := s.gov
	if spec.CapW > 0 || spec.DeviceCapW > 0 {
		gcfg = &governor.Config{CapWatts: spec.CapW, DeviceCapWatts: spec.DeviceCapW}
	}
	gv, err := scenario.NewGovRun(gcfg, s.plant(), len(images), s.k, s.tel.Events)
	if err != nil {
		return nil, err
	}
	r.gv = gv

	r.engines = make([]*scenEng, len(images))
	for e := range images {
		sim := pipeline.NewBatchSim(images[e])
		sim.EnableParityCheck()
		r.engines[e] = &scenEng{sim: sim, flights: newFlights(images[e]), fs: engState{img: images[e], repairAt: -1}, doneAt: -1}
		if w := images[e].Words(); w > r.maxWords {
			r.maxWords = w
		}
	}
	r.queues = make([]fifo[queued], s.k)
	r.refs = make([]*ip.Table, s.k)
	r.dropVN = make([]*obs.Counter, s.k)
	for vn := 0; vn < s.k; vn++ {
		r.refs[vn] = s.tables[vn].Reference()
		r.dropVN[vn] = obs.NewCounter(fmt.Sprintf("netsim.fault_drops.vn%02d", vn))
	}
	r.st = settler{tel: s.tel, seqStride: int64(s.k), delivered: rep.DeliveredPerVN, dropped: rep.DroppedPerVN, dropVN: r.dropVN}
	r.utilCur = make([][2]int64, len(images))
	r.utils = make([]float64, len(images))
	r.upVN = make([]bool, s.k)
	r.reloadFlags = make([]bool, len(images))

	maxDrain := 16 + 4*(r.maxWords/int(spec.Slice)+1)
	if spec.Churn != nil {
		maxDrain += 8 * spec.Churn.Batches
	}
	if spec.Chaos != nil {
		// Each stall/torn replays up to a full reload latency under watchdog
		// grace; each crash waits out a deadline before its batch re-arms.
		maxDrain += spec.Chaos.Total() * (4*(r.maxWords/int(spec.Slice)+1) + 12)
	}
	eng := s.engine()
	eng.Cycles = spec.Cycles
	eng.SliceCycles = spec.Slice
	eng.MaxDrainSlices = maxDrain
	eng.Gov = gv
	eng.Stressors = stressors
	eng.Kernel = r
	eng.Energy = r.meter
	if err := eng.Run(); err != nil {
		return nil, err
	}
	rep.TrafficCycles = eng.TrafficCycles
	rep.DrainCycles = eng.DrainCycles

	rep.MeanDelayCycles = r.st.meanDelay()
	rep.NoRoute, rep.Mismatches, rep.FaultedLookups = r.st.noRoute, r.st.mismatches, r.st.faulted
	rep.Recovered = true
	for _, e := range r.engines {
		if e.fs.down() || len(e.fs.outstanding) > 0 {
			rep.Recovered = false
		}
		r.retire(e.sim)
	}
	rep.Completed = !r.Outstanding()
	for _, st := range stressors {
		if st.Outstanding() {
			rep.Completed = false
		}
	}
	if gv != nil {
		rep.Governor = gv.Report()
	}
	er, err := r.meter.Report(deliveredBits(r.st.total))
	if err != nil {
		return nil, err
	}
	rep.Energy = er
	er.Publish()
	r.chaosFinalize()
	obsPacketsResolved.Add(r.st.total)
	obsLoadCycles.Add(rep.TrafficCycles)
	return r, nil
}
