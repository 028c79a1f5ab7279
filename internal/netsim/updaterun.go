package netsim

// This file is the hitless-update harness: it drives a built router through
// slice-quantised time while the control plane pushes churn batches into the
// serving engines as write bubbles — no reload, no blackhole. At each slice
// boundary the coordinator commits a finished update and arms the next one
// (update.Churn → ctrl.BeginHitlessUpdate → pipeline.BatchSim.BeginUpdate);
// inside a slice each engine spends its input slots on pending bubbles
// first, lookups second — a displaced arrival waits in the engine's backlog
// and drains later, so updates delay packets but never drop them. Every
// result is checked against the reference table of the epoch it was
// injected in: the oracle for the updated network flips to the post-update
// table exactly when the commit bubble enters the pipeline, mirroring the
// shadow-bank flip inside the sim.
//
// The run is a scenario-engine configuration: updRun is the stressor
// (boundary: commit-then-arm) and the kernel (persistent per-engine sims
// cycled in parallel — engine state is disjoint, so only the barrier at
// slice end coordinates) — and the decision kernel: the governor's fresh
// rung is pushed into each engine's gate between slices, so the same seeds
// yield byte-identical reports at any -j.

import (
	"fmt"

	"vrpower/internal/core"
	"vrpower/internal/ctrl"
	"vrpower/internal/energy"
	"vrpower/internal/governor"
	"vrpower/internal/ip"
	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
	"vrpower/internal/scenario"
	"vrpower/internal/sweep"
	"vrpower/internal/traffic"
	"vrpower/internal/update"
)

// Update-run instrumentation (surfaced by cmd/lookupsim -stats).
var (
	obsUpdateBatches = obs.NewCounter("netsim.update_batches")
	obsUpdateWrites  = obs.NewCounter("netsim.update_writes")
	obsUpdateBubbles = obs.NewCounter("netsim.update_bubbles")
)

// UpdateConfig parameterises a hitless-update run.
type UpdateConfig struct {
	// Batches is the number of churn batches to apply; BatchOps the route
	// updates per batch (both default via DefaultUpdateConfig).
	Batches  int
	BatchOps int
	// Seed drives the churn generator; batch i uses Seed+i so batches are
	// distinct but the whole run is a pure function of Seed.
	Seed int64
	// TargetVN pins every batch to one network; negative round-robins the
	// batches over all K. Note the zero value targets network 0 — use
	// DefaultUpdateConfig (TargetVN = -1) for the round-robin default.
	TargetVN int
	// AnnounceFrac/WithdrawFrac select the churn op mix (update.ChurnConfig
	// semantics; zero values give the BGP-typical 40/30/30).
	AnnounceFrac, WithdrawFrac float64
	// SliceCycles is the control-plane quantum: batches are armed and
	// committed at slice boundaries. Zero defaults to 1024.
	SliceCycles int64
	// MaxDrainSlices bounds the post-traffic drain in which remaining
	// batches, backlogs and in-flight lookups finish; zero picks a bound
	// generous enough for every configured batch.
	MaxDrainSlices int
}

// DefaultUpdateConfig returns the canonical run shape: 4 batches of 64 ops,
// seed 1, round-robin over the networks.
func DefaultUpdateConfig() UpdateConfig {
	return UpdateConfig{Batches: 4, BatchOps: 64, Seed: 1, TargetVN: -1}
}

func (c UpdateConfig) withDefaults() UpdateConfig {
	if c.Batches == 0 {
		c.Batches = 4
	}
	if c.BatchOps == 0 {
		c.BatchOps = 64
	}
	if c.SliceCycles == 0 {
		c.SliceCycles = 1024
	}
	return c
}

// UpdateBatch is one applied churn batch's lifecycle.
type UpdateBatch struct {
	// VN is the updated network; Engine the pipeline it rewrote (the
	// network's own for VS, the shared engine 0 for VM).
	VN     int
	Engine int
	// RawOps is the generated batch size; CoalescedOps what survived
	// last-op-wins coalescing and was actually diffed.
	RawOps       int
	CoalescedOps int
	// Writes is the image-diff word count; Bubbles the write-bubble budget
	// spent installing it.
	Writes  int
	Bubbles int
	// ArmedAt is the cycle the batch entered the data plane; DoneAt the
	// cycle its commit bubble left the last stage. Their difference is the
	// update latency under load.
	ArmedAt int64
	DoneAt  int64
}

// LatencyCycles is the arm-to-commit update latency.
func (b UpdateBatch) LatencyCycles() int64 { return b.DoneAt - b.ArmedAt }

// UpdateReport summarises a hitless-update run.
type UpdateReport struct {
	Scheme core.Scheme
	K      int
	// TrafficCycles is the offered-traffic window; DrainCycles the tail in
	// which remaining batches and backlogs finished.
	TrafficCycles int64
	DrainCycles   int64
	SliceCycles   int64
	// Per-VN packet accounting. Every offered packet must eventually be
	// delivered — hitless means delayed, never dropped.
	OfferedPerVN   []int64
	DeliveredPerVN []int64
	// Mismatches counts results that disagreed with their injection epoch's
	// reference table (must be zero: the shadow-bank commit never shows a
	// lookup a mixed image). FaultedLookups counts parity refusals (also
	// zero: updates write clean words).
	Mismatches     int64
	FaultedLookups int64
	// NoRoute counts delivered packets that correctly resolved to no route.
	NoRoute int64
	// Batches is every applied batch in commit order.
	Batches        []UpdateBatch
	BatchesApplied int
	// Writes / PlannedBubbles total the committed batches' costs;
	// BubbleCycles is the input slots the sims actually spent on bubbles
	// (equal to PlannedBubbles when the run Completed).
	Writes         int64
	PlannedBubbles int64
	BubbleCycles   int64
	// EngineCycles sums simulated cycles over all engines — the denominator
	// of the measured throughput loss.
	EngineCycles int64
	// BacklogPeak is the deepest any engine's arrival backlog grew while
	// bubbles held the input slot; MeanDelayCycles the average
	// arrival-to-exit latency over delivered packets.
	BacklogPeak     int
	MeanDelayCycles float64
	// Completed reports that every configured batch committed and every
	// arrival was delivered before the drain bound.
	Completed bool
	// Governor is the power-envelope controller's summary when the run was
	// governed (SetGovernor); nil otherwise. This harness defers rather
	// than drops under degradation: throttled arrivals wait in backlogs.
	Governor *governor.Report
	// Energy is the run's attributed energy breakdown.
	Energy *energy.Report
}

// MeasuredThroughputRetained is the lookup-slot fraction the run actually
// kept: 1 - bubble slots / engine cycles, from the sims' own counters.
func (r *UpdateReport) MeasuredThroughputRetained() float64 {
	if r.EngineCycles == 0 {
		return 1
	}
	return 1 - float64(r.BubbleCycles)/float64(r.EngineCycles)
}

// AnalyticThroughputRetained is update.ThroughputRetained's prediction for
// the same bubble budget over the same cycle count (EngineCycles cycles ≡
// EngineCycles/1e6 MHz for one second).
func (r *UpdateReport) AnalyticThroughputRetained() float64 {
	return update.ThroughputRetained(int(r.PlannedBubbles), float64(r.EngineCycles)/1e6)
}

// updEng is one engine's view of the update run. Everything in it —
// including the refs slots this engine owns — is touched only by the
// coordinator between slices and by this engine's worker inside one, so the
// per-slice fan-out stays race-free and deterministic.
type updEng struct {
	sim *pipeline.BatchSim
	// engine identifies this engine in the meter and in flight traces (the
	// ring is lock-free, so the engine's worker puts directly).
	engine int
	// backlog holds arrivals displaced by bubbles; flights the lookups pushed
	// into sim and not settled yet, oldest first.
	backlog fifo[queued]
	flights []inflight
	// An armed batch: the handle to commit, the post-update oracle to swap
	// in at the commit bubble, and the report record under construction.
	handle *ctrl.HitlessUpdate
	newRef *ip.Table
	refVN  int
	batch  UpdateBatch
	doneAt int64
	// st settles this engine's exits on its worker; its tallies are folded
	// into the report at the end.
	st          settler
	backlogPeak int
	// em is this slice's worker-local energy meter: handed out fresh by the
	// coordinator before the fan-out, charged only by this engine's worker
	// inside the slice, folded back in engine order at the barrier.
	em *energy.Meter
	// prevActive/prevCycles are the coordinator's per-slice utilization
	// cursor over the sim's cumulative stats (read between slices only).
	prevActive int64
	prevCycles int64
	// gate is the governor actuation, installed by the coordinator between
	// slices (ApplyDecision): its frequency pacer gates the engine's whole
	// clock at the rung's fraction; its quiesce/admit side gates backlog
	// pulls only, so arrivals defer and write bubbles still flow.
	gate scenario.EngineGate
}

// cycle advances the engine one cycle: bubbles take the input slot first,
// then the backlog front, then an idle step. A lookup is checked, when its
// exit is settled, against the oracle current as it enters the pipe.
func (e *updEng) cycle(s *System, refs []*ip.Table, cyc int64) error {
	if !e.gate.ClockRuns() {
		// Frequency-stepped clock: the engine freezes this cycle (bubbles
		// and lookups alike slow down together, as a real stepped clock
		// would impose).
		return nil
	}
	if e.sim.PendingBubbles() > 0 {
		if e.sim.PendingBubbles() == 1 {
			// The commit bubble goes in this cycle: every lookup injected
			// after it sees the new banks, so the oracle flips now.
			refs[e.refVN] = e.newRef
		}
		if err := e.sim.InjectBubble(cyc); err != nil {
			return err
		}
		e.em.Bubble(e.engine, e.batch.VN)
	} else if e.backlog.len() > 0 && !e.gate.Hold() {
		q := e.backlog.pop()
		e.flights = append(e.flights, inflight{arrival: q.arrival, ref: refs[q.vn], vn: q.vn})
		// The arrival cycle is unique (one packet per cycle) and worker-
		// independent: it doubles as the trace seq (a zero seqStride).
		e.sim.Inject(pipeline.Request{Addr: q.addr, VN: s.reqVN(int(q.vn)), Trace: e.st.traced(q)}, cyc)
	} else {
		e.sim.Idle(cyc)
	}
	if e.handle != nil && e.doneAt < 0 && !e.sim.Updating() {
		e.doneAt = cyc
	}
	return nil
}

// updRun is the update harness's stressor + kernel pair over one shared
// state: the engine calls Boundary for the commit-then-arm control plane,
// RunSlice for the per-engine cycle fan-out, and ApplyDecision to push the
// governor's fresh rung into the engine gates between slices.
type updRun struct {
	scenario.NopStressor
	s       *System
	cfg     UpdateConfig
	scheme  core.Scheme
	mgr     *ctrl.Manager
	engines []*updEng
	refs    []*ip.Table
	rep     *UpdateReport
	gv      *scenario.GovRun
	gen     *traffic.Generator
	meter   *energy.Meter
	started int
	// utils / prevDelivered are the coordinator's per-slice measurement
	// scratch over the sims' cumulative stats.
	utils         []float64
	prevDelivered int64
}

func (u *updRun) Name() string { return "updates" }

// Boundary runs the control plane at cycle b: commit the finished batch,
// then arm the next one. One batch is in flight at a time — the manager's
// reload guard enforces that anyway.
func (u *updRun) Boundary(b int64, _ bool) error {
	rep, tel := u.rep, u.s.tel
	for _, e := range u.engines {
		if e.handle == nil || e.doneAt < 0 {
			continue
		}
		if _, err := e.handle.Commit(); err != nil {
			return err
		}
		e.batch.DoneAt = e.doneAt
		rep.Batches = append(rep.Batches, e.batch)
		rep.BatchesApplied++
		rep.Writes += int64(e.batch.Writes)
		rep.PlannedBubbles += int64(e.batch.Bubbles)
		obsUpdateBatches.Inc()
		obsUpdateWrites.Add(int64(e.batch.Writes))
		obsUpdateBubbles.Add(int64(e.batch.Bubbles))
		tel.Events.Log(obs.LevelInfo, e.doneAt, "update_commit",
			"vn", e.batch.VN, "engine", e.batch.Engine, "writes", e.batch.Writes,
			"bubbles", e.batch.Bubbles, "latency_cycles", e.batch.LatencyCycles())
		e.handle = nil
		e.newRef = nil
		e.doneAt = -1
	}
	inFlight := false
	for _, e := range u.engines {
		if e.handle != nil {
			inFlight = true
		}
	}
	if inFlight || u.started >= u.cfg.Batches {
		return nil
	}
	vn := u.cfg.TargetVN
	if vn < 0 {
		vn = u.started % u.s.k
	}
	ops, err := update.Churn(u.mgr.Tables()[vn], u.cfg.BatchOps, update.ChurnConfig{
		Seed:         u.cfg.Seed + int64(u.started),
		AnnounceFrac: u.cfg.AnnounceFrac,
		WithdrawFrac: u.cfg.WithdrawFrac,
	})
	if err != nil {
		return err
	}
	h, err := u.mgr.BeginHitlessUpdate(vn, ops)
	if err != nil {
		return err
	}
	e := u.engines[h.Engine()]
	if err := e.sim.BeginUpdate(h.Image(), h.Bubbles()); err != nil {
		h.Abort()
		return err
	}
	e.handle = h
	e.newRef = h.Table().Reference()
	e.refVN = vn
	e.batch = UpdateBatch{
		VN:           vn,
		Engine:       h.Engine(),
		RawOps:       h.RawOps(),
		CoalescedOps: len(h.Ops()),
		Writes:       h.Writes(),
		Bubbles:      h.Bubbles(),
		ArmedAt:      b,
	}
	tel.Events.Log(obs.LevelInfo, b, "update_arm",
		"vn", vn, "engine", h.Engine(), "raw_ops", h.RawOps(), "coalesced_ops", len(h.Ops()),
		"writes", h.Writes(), "bubbles", h.Bubbles())
	u.started++
	return nil
}

// Outstanding keeps the drain going while batches remain to arm or any
// engine still has an armed batch, a backlog, or in-flight lookups.
func (u *updRun) Outstanding() bool {
	if u.started < u.cfg.Batches {
		return true
	}
	for _, e := range u.engines {
		if e.handle != nil || e.backlog.len() > 0 || len(e.flights) > 0 || e.sim.Updating() {
			return true
		}
	}
	return false
}

// ApplyDecision pushes the governor's fresh rung into every engine's gate;
// it takes effect from the next slice's cycles.
func (u *updRun) ApplyDecision(d governor.Decision) {
	for eIdx, e := range u.engines {
		e.gate.Apply(d.Rung, eIdx)
	}
}

// RunSlice offers one packet per cycle (live slices; the drain offers
// nothing), steers each arrival to its engine with the arrival cycle
// stamped, and fans the per-engine cycle loops out over the worker pool.
// Engine state is disjoint, so the only coordination is the barrier at the
// end of the slice.
func (u *updRun) RunSlice(b, n int64, live bool) (scenario.SliceStats, error) {
	s, rep, gv := u.s, u.rep, u.gv
	var arrivals [][]queued
	if live {
		pkts := u.gen.Batch(int(n))
		arrivals = make([][]queued, len(u.engines))
		for i, p := range pkts {
			if p.VN < 0 || p.VN >= s.k {
				return scenario.SliceStats{}, fmt.Errorf("netsim: packet VN %d outside [0,%d)", p.VN, s.k)
			}
			rep.OfferedPerVN[p.VN]++
			if gv != nil && gv.Decision().RungIndex > 0 {
				// Hitless runs never drop for the governor: the arrival is
				// deferred into the backlog and accounted as such.
				gv.CountDeferred(p.VN)
			}
			eIdx := s.engineOf(p.VN)
			arrivals[eIdx] = append(arrivals[eIdx], queued{arrival: b + int64(i), addr: p.Addr, vn: int32(p.VN)})
		}
	}
	// Fresh worker-local energy meters for this slice, folded back in engine
	// order at the barrier below — no shared counters inside the fan-out.
	for _, e := range u.engines {
		e.em = u.s.meter()
	}
	if _, err := sweep.Run(len(u.engines), func(eIdx int) (struct{}, error) {
		e := u.engines[eIdx]
		var next int
		for c := b; c < b+n; c += pipeline.DrainWindow {
			for cyc, end := c, min(c+pipeline.DrainWindow, b+n); cyc < end; cyc++ {
				if arrivals != nil {
					for next < len(arrivals[eIdx]) && arrivals[eIdx][next].arrival == cyc {
						e.backlog.push(arrivals[eIdx][next])
						next++
					}
					if e.backlog.len() > e.backlogPeak {
						e.backlogPeak = e.backlog.len()
					}
				}
				if err := e.cycle(s, u.refs, cyc); err != nil {
					return struct{}{}, err
				}
			}
			e.st.settle(e.sim, &e.flights, e.em, eIdx, eIdx, eIdx)
			e.st.putTraces()
		}
		return struct{}{}, nil
	}); err != nil {
		return scenario.SliceStats{}, err
	}
	// Slice measurement: utilization deltas over the sims' cumulative
	// stats, backlog depth, armed-batch count and delivered throughput.
	backlog, updating := 0, 0
	var delivered int64
	for eIdx, e := range u.engines {
		u.utils[eIdx], e.prevActive, e.prevCycles = scenario.UtilDelta(e.sim.Stats(), e.prevActive, e.prevCycles)
		u.meter.Fold(e.em)
		backlog += e.backlog.len()
		if e.handle != nil {
			updating++
		}
		delivered += e.st.total
	}
	st := scenario.SliceStats{
		Util:      u.utils,
		Delivered: delivered - u.prevDelivered,
		Backlog:   backlog,
		Updates:   updating,
	}
	u.prevDelivered = delivered
	return st, nil
}

// RunUpdates drives the router for trafficCycles cycles of back-to-back
// offered traffic (one packet per cycle) while applying cfg.Batches churn
// batches hitlessly, then drains until every batch has committed and every
// displaced arrival delivered. The returned report is a pure function of
// the generator's and the config's seeds — worker count never changes it.
// The non-virtualized scheme has no runtime update path and is rejected.
func (s *System) RunUpdates(gen *traffic.Generator, trafficCycles int64, cfg UpdateConfig) (UpdateReport, error) {
	cfg = cfg.withDefaults()
	if trafficCycles <= 0 {
		return UpdateReport{}, fmt.Errorf("netsim: update run of %d cycles, want > 0", trafficCycles)
	}
	if cfg.Batches < 0 || cfg.BatchOps < 1 {
		return UpdateReport{}, fmt.Errorf("netsim: %d batches of %d ops, want >= 0 / >= 1", cfg.Batches, cfg.BatchOps)
	}
	if cfg.TargetVN >= s.k {
		return UpdateReport{}, fmt.Errorf("netsim: target network %d outside [0,%d)", cfg.TargetVN, s.k)
	}
	scheme := s.router.Config().Scheme
	// The control plane: owns the authoritative tables and compiles every
	// image under its pinned stage map, so successive compilations diff
	// word-for-word. The run serves from these pinned images (not the
	// router's build images, whose per-table stage geometry isn't diffable).
	mgr, err := ctrl.New(s.router.Config(), s.tables)
	if err != nil {
		return UpdateReport{}, err
	}
	images, err := mgr.PinnedImages()
	if err != nil {
		return UpdateReport{}, err
	}
	tel := s.tel
	mgr.SetEventLog(tel.Events)
	gv, err := s.newGovRun()
	if err != nil {
		return UpdateReport{}, err
	}
	engines := make([]*updEng, len(images))
	for e := range images {
		sim := pipeline.NewBatchSim(images[e])
		sim.EnableParityCheck()
		engines[e] = &updEng{sim: sim, engine: e, flights: newFlights(images[e]), doneAt: -1,
			st: settler{tel: tel, delivered: make([]int64, s.k)}}
	}
	// refs[vn] is the oracle for network vn's lookups *at injection time*;
	// slot vn is owned by engine engineOf(vn), which flips it when the
	// commit bubble enters.
	refs := make([]*ip.Table, s.k)
	for vn := range refs {
		refs[vn] = s.tables[vn].Reference()
	}

	rep := UpdateReport{
		Scheme:         scheme,
		K:              s.k,
		SliceCycles:    cfg.SliceCycles,
		OfferedPerVN:   make([]int64, s.k),
		DeliveredPerVN: make([]int64, s.k),
	}
	u := &updRun{
		s: s, cfg: cfg, scheme: scheme, mgr: mgr, engines: engines, refs: refs,
		rep: &rep, gv: gv, gen: gen, meter: s.meter(),
		utils: make([]float64, len(engines)),
	}

	maxDrain := cfg.MaxDrainSlices
	if maxDrain == 0 {
		maxDrain = 16 + 8*cfg.Batches
	}
	eng := s.engine()
	eng.Cycles = trafficCycles
	eng.SliceCycles = cfg.SliceCycles
	eng.MaxDrainSlices = maxDrain
	eng.Gov = gv
	eng.Stressors = []scenario.Stressor{u}
	eng.Kernel = u
	eng.Energy = u.meter
	if err := eng.Run(); err != nil {
		return UpdateReport{}, err
	}
	rep.TrafficCycles = eng.TrafficCycles
	rep.DrainCycles = eng.DrainCycles

	var delivered, delaySum int64
	for _, e := range engines {
		st := e.sim.Stats()
		rep.EngineCycles += st.Cycles
		rep.BubbleCycles += st.Bubbles
		for vn, d := range e.st.delivered {
			rep.DeliveredPerVN[vn] += d
		}
		rep.Mismatches += e.st.mismatches
		rep.FaultedLookups += e.st.faulted
		rep.NoRoute += e.st.noRoute
		delivered += e.st.total
		delaySum += e.st.delaySum
		if e.backlogPeak > rep.BacklogPeak {
			rep.BacklogPeak = e.backlogPeak
		}
	}
	if delivered > 0 {
		rep.MeanDelayCycles = float64(delaySum) / float64(delivered)
	}
	rep.Completed = !u.Outstanding()
	if gv != nil {
		rep.Governor = gv.Report()
	}
	er, err := u.meter.Report(deliveredBits(delivered))
	if err != nil {
		return UpdateReport{}, err
	}
	rep.Energy = er
	er.Publish()
	obsPacketsResolved.Add(delivered)
	return rep, nil
}
