package netsim

// This file is the fault-and-recovery harness: it drives a built router
// through slice-quantised time while a seeded faults.Injector flips bits in
// the engines' (cloned) memory images and kills engines outright. Detection
// runs through two channels — access-time parity checking in the pipelines
// and a background readback sweep that walks each engine's stage memories —
// and repair goes through the ctrl scrubber (rebuild from the authoritative
// tables, reload under bounded retry + backoff). Degradation follows the
// schemes' asymmetry: a separate-engine failure blackholes only its own
// VNID, while the merged engine takes every network down for the reload
// window.
//
// The run is a scenario-engine configuration: faultRun is both the
// stressor (boundary: land reloads, start scrubs; pre-slice: kills, SEU
// injection, background sweep) and the kernel (slice-batch arrivals fanned
// over fresh per-slice simulators, folded in engine order) — so the same
// seed yields byte-identical reports at any -j.

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
	"vrpower/internal/sweep"
	"vrpower/internal/traffic"
)

// Fault-run instrumentation (surfaced by cmd/lookupsim -stats). Per-VNID
// drop counters are registered lazily in RunFaults.
var (
	obsFaultsDetected = obs.NewCounter("netsim.faults_detected")
	obsFaultsRepaired = obs.NewCounter("netsim.faults_repaired")
	obsFaultDrops     = obs.NewCounter("netsim.fault_packets_dropped")
)

// Detection channels recorded in SEURecord.Via.
const (
	// ViaAccess is access-time detection: a lookup read the corrupted word
	// and the pipeline's parity check refused to use it.
	ViaAccess = "access"
	// ViaSweep is the background readback sweep finding stale parity in a
	// word no lookup happened to touch.
	ViaSweep = "sweep"
	// ViaHeartbeat is the control plane noticing a killed engine.
	ViaHeartbeat = "heartbeat"
	// ViaReload marks an upset that landed while its engine was already
	// being reloaded; the fresh image overwrote it incidentally.
	ViaReload = "reload"
)

// FaultConfig parameterises a fault-injection run.
type FaultConfig struct {
	// Inject is the fault schedule (seed, SEU rate, kill, reconfig failures).
	Inject faults.Config
	// Scrub bounds the repair loop; zero fields take ctrl defaults.
	Scrub ctrl.ScrubPolicy
	// SliceCycles is the control-plane quantum: faults are injected, detected
	// and repaired at slice boundaries, and one packet is offered per cycle
	// within a slice. Zero defaults to 1024.
	SliceCycles int64
	// SweepWordsPerCycle is the background readback-scrub bandwidth per
	// engine (stage-memory words checked per cycle). Zero disables the
	// background sweep, leaving access-time parity as the only SEU detector.
	SweepWordsPerCycle int
	// DisableSweep distinguishes an intentional zero bandwidth from the
	// default (SweepWordsPerCycle == 0 with DisableSweep false means 1).
	DisableSweep bool
	// MaxDrainSlices bounds the post-traffic drain phase in which the run
	// waits for outstanding repairs; zero picks a bound that covers a full
	// background sweep of the largest engine plus the scrub latency.
	MaxDrainSlices int
}

func (c FaultConfig) withDefaults() FaultConfig {
	if c.SliceCycles == 0 {
		c.SliceCycles = 1024
	}
	if c.SweepWordsPerCycle == 0 && !c.DisableSweep {
		c.SweepWordsPerCycle = 1
	}
	return c
}

// SEURecord is one injected upset's lifecycle.
type SEURecord struct {
	faults.Upset
	// DetectedAt and RepairedAt are run cycles; -1 while outstanding.
	DetectedAt int64
	RepairedAt int64
	// Via names the detection channel (ViaAccess, ViaSweep, ViaHeartbeat,
	// ViaReload); empty while undetected.
	Via string
}

// KillRecord is an engine hard-failure's lifecycle.
type KillRecord struct {
	Engine     int
	Cycle      int64
	DetectedAt int64
	RepairedAt int64
}

// FaultReport summarises a fault-injection run.
type FaultReport struct {
	Scheme core.Scheme
	K      int
	// TrafficCycles is the offered-traffic window; DrainCycles is the extra
	// detection-and-repair tail after traffic stops.
	TrafficCycles int64
	DrainCycles   int64
	SliceCycles   int64
	// Per-VN packet accounting over the traffic window. Dropped counts both
	// packets refused by a down engine and faulted lookups.
	OfferedPerVN   []int64
	DeliveredPerVN []int64
	DroppedPerVN   []int64
	// UnavailableCyclesPerVN counts, per network, traffic cycles during
	// which its engine was down (killed, reloading, or dead), quantised to
	// slices. The schemes' degradation asymmetry reads directly off it.
	UnavailableCyclesPerVN []int64
	// NoRoute counts delivered packets that correctly resolved to no route.
	NoRoute int64
	// HealthyMismatches counts non-faulted lookups that disagreed with the
	// reference oracle. Parity detection must keep this at zero: a lookup
	// either faults (and drops) or forwards on clean data.
	HealthyMismatches int64
	// FaultedLookups counts lookups the pipelines refused on detected
	// corruption (dropped, never misforwarded).
	FaultedLookups int64
	// SEUs is every injected upset with its detection/repair stamps, in
	// injection order.
	SEUs []SEURecord
	// Kill is the scheduled engine hard failure, when configured.
	Kill *KillRecord
	// Scrubs counts repair rounds started; ScrubAttempts the rebuild+reload
	// attempts across them (retries included); ScrubsExhausted the rounds
	// that ran out of retry budget, leaving the engine dead.
	Scrubs          int
	ScrubAttempts   int
	ScrubsExhausted int
	// Recovered reports that by the end of the drain every engine was back
	// in service and every injected upset repaired.
	Recovered bool
	// Governor is the power-envelope controller's summary when the run was
	// governed (SetGovernor); nil otherwise.
	Governor *governor.Report
	// Energy is the run's attributed energy breakdown.
	Energy *energy.Report
}

// Availability returns the fraction of traffic cycles network vn's engine
// was in service.
func (r *FaultReport) Availability(vn int) float64 {
	if r.TrafficCycles == 0 {
		return 1
	}
	return 1 - float64(r.UnavailableCyclesPerVN[vn])/float64(r.TrafficCycles)
}

// DetectedSEUs counts upsets with a detection stamp.
func (r *FaultReport) DetectedSEUs() int {
	n := 0
	for i := range r.SEUs {
		if r.SEUs[i].DetectedAt >= 0 {
			n++
		}
	}
	return n
}

// RepairedSEUs counts upsets whose engine was scrubbed clean.
func (r *FaultReport) RepairedSEUs() int {
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
func (r *FaultReport) MTTRCycles() float64 {
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

// engState is one engine's view of the fault run.
type engState struct {
	// img is the run-private (cloned, possibly corrupted) image in service.
	img *pipeline.Image
	// sweepStage/sweepIdx is the background readback sweep's cursor.
	sweepStage int
	sweepIdx   int
	// outstanding indexes report.SEUs entries not yet repaired.
	outstanding []int
	// detectVia is the pending detection flag the next boundary consumes.
	detectVia string
	// killed marks the scheduled hard failure until the reload lands.
	killed bool
	// dead marks a scrub-budget exhaustion: permanently out of service.
	dead bool
	// reloading + repairAt + pending describe an in-flight scrub reload.
	reloading bool
	repairAt  int64
	pending   *pipeline.Image
}

func (e *engState) down() bool { return e.dead || e.killed || e.reloading }

// rebuildEngine returns the scrubber's rebuild closure for engine e: the
// image is recompiled from the authoritative tables through the same
// deterministic compile the router's build used, so the rebuilt geometry
// matches the original word for word (which keeps pre-drawn upset
// coordinates valid).
func (s *System) rebuildEngine(e int) func() (*pipeline.Image, error) {
	cfg := s.router.Config()
	return func() (*pipeline.Image, error) {
		if cfg.Scheme == core.VM {
			return core.CompileMerged(cfg, s.tables)
		}
		return core.CompileTable(cfg, s.tables[e])
	}
}

// sweepStep advances the background readback sweep by words stage-memory
// words, returning how many words it actually read (the clamp to the image
// size is what the energy meter charges) and whether any word's stored
// parity was stale.
func (e *engState) sweepStep(words int) (int, bool) {
	total := e.img.Words()
	if total == 0 || words <= 0 {
		return 0, false
	}
	if words > total {
		words = total
	}
	hit := false
	for n := 0; n < words; n++ {
		for e.sweepIdx >= e.img.StageLen(e.sweepStage) {
			e.sweepIdx = 0
			e.sweepStage = (e.sweepStage + 1) % e.img.Stages()
		}
		if e.img.ParityStale(e.sweepStage, uint32(e.sweepIdx)) {
			hit = true
		}
		e.sweepIdx++
	}
	return words, hit
}

// faultRun is the fault harness's stressor + kernel pair over one shared
// state: the engine calls Boundary/PreSlice for the control-plane work and
// RunSlice for the slice-batch traffic.
type faultRun struct {
	s        *System
	cfg      FaultConfig
	scheme   core.Scheme
	in       *faults.Injector
	scrubber *ctrl.Scrubber
	engines  []*engState
	rep      *FaultReport
	gv       *scenario.GovRun
	gen      *traffic.Generator
	dropVN   []*obs.Counter
	meter    *energy.Meter
	S        int64
	// utils/upVN/reloadFlags are the per-slice measurement scratch; utils
	// is zeroed for the drain (no offered traffic: static power only).
	utils       []float64
	upVN        []bool
	reloadFlags []bool
}

func (f *faultRun) Name() string { return "faults" }

// install lands a completed reload: the clean image goes into service and
// every outstanding upset on the engine is stamped repaired.
func (f *faultRun) install(eIdx int, e *engState) {
	rep, tel := f.rep, f.s.tel
	at := e.repairAt
	tel.Events.Log(obs.LevelInfo, at, "scrub_done", "engine", eIdx, "repaired", len(e.outstanding))
	if e.killed && rep.Kill != nil && rep.Kill.Engine == eIdx {
		rep.Kill.RepairedAt = at
	}
	e.img = e.pending
	e.pending = nil
	e.reloading = false
	e.killed = false
	e.repairAt = -1
	e.sweepStage, e.sweepIdx = 0, 0
	for _, i := range e.outstanding {
		r := &rep.SEUs[i]
		r.RepairedAt = at
		if r.Cycle >= at {
			// The upset landed inside the reload window, after this
			// word's rewrite would have passed: charge one cycle.
			r.RepairedAt = r.Cycle + 1
		}
		if r.DetectedAt < 0 {
			r.DetectedAt = r.RepairedAt
			r.Via = ViaReload
			obsFaultsDetected.Inc()
		}
	}
	obsFaultsRepaired.Add(int64(len(e.outstanding)))
	e.outstanding = e.outstanding[:0]
	e.detectVia = ""
}

// startScrub consumes a detection flag at boundary b: outstanding upsets
// are stamped detected and the engine goes down for the repair latency.
func (f *faultRun) startScrub(eIdx int, e *engState, b int64) {
	rep, tel := f.rep, f.s.tel
	via := e.detectVia
	e.detectVia = ""
	for _, i := range e.outstanding {
		if rep.SEUs[i].DetectedAt < 0 {
			rep.SEUs[i].DetectedAt = b
			rep.SEUs[i].Via = via
			obsFaultsDetected.Inc()
		}
	}
	tel.Events.Log(obs.LevelInfo, b, "scrub_start", "engine", eIdx, "via", via, "outstanding", len(e.outstanding))
	res, err := f.scrubber.Scrub(f.s.rebuildEngine(eIdx))
	rep.Scrubs++
	rep.ScrubAttempts += res.Attempts
	if err != nil {
		// Retry budget exhausted: the engine is dead for the rest of
		// the run (separate scheme: its VNID blackholes; merged: all K).
		rep.ScrubsExhausted++
		e.dead = true
		tel.Events.Log(obs.LevelError, b, "engine_dead", "engine", eIdx, "attempts", res.Attempts)
		return
	}
	e.reloading = true
	e.pending = res.Image
	e.repairAt = b + res.LatencyCycles
	// The reload rewrites every diffed word: control-plane energy on the
	// engine, attributed to its lowest served network.
	f.meter.AddWords(eIdx, f.s.lowVN(eIdx), int64(res.Writes))
	tel.Events.Log(obs.LevelInfo, b, "scrub_reload",
		"engine", eIdx, "attempts", res.Attempts, "writes", res.Writes,
		"latency_cycles", res.LatencyCycles, "ready_at", e.repairAt)
}

// Boundary runs the control-plane work at cycle b: land finished reloads,
// then turn last slice's detection flags into scrubs.
func (f *faultRun) Boundary(b int64, _ bool) error {
	rep := f.rep
	for eIdx, e := range f.engines {
		// The control-plane heartbeat notices a killed engine at the
		// boundary even when a reload is already in flight (the reload
		// then doubles as the repair).
		if e.killed && rep.Kill != nil && rep.Kill.Engine == eIdx && rep.Kill.DetectedAt < 0 {
			rep.Kill.DetectedAt = b
		}
		if e.reloading && e.repairAt <= b {
			f.install(eIdx, e)
		}
		if !e.dead && !e.reloading && (e.detectVia != "" || e.killed) {
			if e.detectVia == "" {
				e.detectVia = ViaHeartbeat
			}
			f.startScrub(eIdx, e, b)
		}
	}
	return nil
}

// PreSlice schedules the slice's adversity before any arrival: the hard
// kill, this slice's SEUs (live slices only — the drain injects nothing
// new), then the background readback sweep over in-service engines.
func (f *faultRun) PreSlice(b, n int64, draining bool) error {
	rep, tel := f.rep, f.s.tel
	if !draining {
		// Scheduled hard failure: the engine drops out mid-slice; the
		// heartbeat notices at the next boundary.
		for eIdx, e := range f.engines {
			if f.in.KillDue(eIdx, b+n) {
				e.killed = true
				rep.Kill = &KillRecord{Engine: eIdx, Cycle: f.cfg.Inject.KillCycle, DetectedAt: -1, RepairedAt: -1}
				tel.Events.Log(obs.LevelError, f.cfg.Inject.KillCycle, "engine_kill", "engine", eIdx)
			}
		}
		// Inject this slice's upsets into the serving images.
		for eIdx, e := range f.engines {
			for _, u := range f.in.UpsetsThrough(eIdx, b+n) {
				faults.ApplyUpset(e.img, u)
				rep.SEUs = append(rep.SEUs, SEURecord{Upset: u, DetectedAt: -1, RepairedAt: -1})
				e.outstanding = append(e.outstanding, len(rep.SEUs)-1)
				tel.Events.Log(obs.LevelWarn, u.Cycle, "seu_inject",
					"engine", eIdx, "seq", u.Seq, "stage", u.Stage, "index", int(u.Index), "bit", u.Bit)
			}
		}
	}
	// Background readback sweep over the in-service engines; every word the
	// sweep reads is a metered control-plane access.
	for eIdx, e := range f.engines {
		if e.down() {
			continue
		}
		scanned, hit := e.sweepStep(int(n) * f.cfg.SweepWordsPerCycle)
		f.meter.AddWords(eIdx, f.s.lowVN(eIdx), int64(scanned))
		if hit && e.detectVia == "" {
			e.detectVia = ViaSweep
		}
	}
	return nil
}

// Outstanding keeps the drain going while a reload is in flight, a kill is
// undetected, or an upset is still detectable (the sweep is running, or a
// detection flag is already raised).
func (f *faultRun) Outstanding() bool {
	for _, e := range f.engines {
		if e.reloading || e.killed {
			return true
		}
		if !e.dead && len(e.outstanding) > 0 && (f.cfg.SweepWordsPerCycle > 0 || e.detectVia != "") {
			return true
		}
	}
	return false
}

// RunSlice offers one packet per cycle (live slices; the drain offers
// nothing), fans the disjoint per-engine request batches over the worker
// pool on fresh parity-checking simulators, and folds results back in
// engine order.
func (f *faultRun) RunSlice(b, n int64, live bool) (scenario.SliceStats, error) {
	s, rep, gv := f.s, f.rep, f.gv
	tel := s.tel
	tracing := tel.Tracing()
	var sliceDelivered int64
	if live {
		pkts := f.gen.Batch(int(n))
		perEngine := make([][]pipeline.Request, len(f.engines))
		var perEngineSeq [][]int64 // traced runs: each request's arrival cycle
		if tracing {
			perEngineSeq = make([][]int64, len(f.engines))
		}
		for i, p := range pkts {
			if p.VN < 0 || p.VN >= s.k {
				return scenario.SliceStats{}, fmt.Errorf("netsim: packet VN %d outside [0,%d)", p.VN, s.k)
			}
			rep.OfferedPerVN[p.VN]++
			eIdx := s.engineOf(p.VN)
			// Governor throttling at the arrival grain: this harness batches
			// whole slices through the pipelines, so frequency stepping and
			// admission control pace the arrivals instead of the clock.
			if gv != nil && gv.DropPaced(p.VN, eIdx) {
				rep.DroppedPerVN[p.VN]++
				continue
			}
			// Seq is the arrival cycle — unique at one packet per cycle.
			seq := b + int64(i)
			if f.engines[eIdx].down() {
				rep.DroppedPerVN[p.VN]++
				f.dropVN[p.VN].Inc()
				obsFaultDrops.Inc()
				if tracing && tel.Sampler.Sample(p.VN, seq) {
					tel.PutDropTrace(seq, p.VN, eIdx, seq, p.Addr)
				}
				continue
			}
			reqVN := 0
			if f.scheme == core.VM {
				reqVN = p.VN
			}
			req := pipeline.Request{Addr: p.Addr, VN: reqVN}
			if tracing {
				req.Trace = tel.Sampler.Sample(p.VN, seq)
				perEngineSeq[eIdx] = append(perEngineSeq[eIdx], seq)
			}
			perEngine[eIdx] = append(perEngine[eIdx], req)
		}
		downEngines := 0
		for _, e := range f.engines {
			if e.down() {
				downEngines++
			}
		}
		for vn := 0; vn < s.k; vn++ {
			down := f.engines[s.engineOf(vn)].down()
			f.upVN[vn] = !down
			if down {
				rep.UnavailableCyclesPerVN[vn] += n
			}
		}
		type vnCounts struct {
			delivered, dropped, noRoute, mismatch, faulted int64
		}
		type engineRun struct {
			perVN   []vnCounts
			faulted bool
			// util is the slice-local stage utilization feeding the power model.
			util float64
			// em is the worker-local energy meter, folded in engine order.
			em *energy.Meter
		}
		// The engines' pipeline simulations are the only fan-out: disjoint
		// request slices, results folded back in engine order.
		runs, err := sweep.Run(len(f.engines), func(eIdx int) (engineRun, error) {
			reqs := perEngine[eIdx]
			if len(reqs) == 0 {
				return engineRun{}, nil
			}
			sim := pipeline.NewBatchSim(f.engines[eIdx].img)
			sim.EnableParityCheck()
			results, st, err := sim.Run(reqs, 1)
			if err != nil {
				return engineRun{}, err
			}
			run := engineRun{perVN: make([]vnCounts, s.k), util: st.Utilization(), em: s.meter()}
			for ri, res := range results {
				vn := res.VN
				if f.scheme != core.VM {
					vn = eIdx
				}
				run.em.Lookup(eIdx, vn, res.LastStage)
				c := &run.perVN[vn]
				if res.Faulted {
					// Corruption read mid-lookup: drop, never misforward.
					c.faulted++
					c.dropped++
					run.faulted = true
					if res.Trace {
						tel.PutLookupTrace(perEngineSeq[eIdx][ri], vn, eIdx, b, res, 0, "drop-fault")
					}
					continue
				}
				want := s.refs[vn].Lookup(res.Addr)
				if res.Trace {
					tel.PutLookupTrace(perEngineSeq[eIdx][ri], vn, eIdx, b, res, 0, scenario.LookupOutcome(res, want))
				}
				if res.NHI != want {
					c.mismatch++
					continue
				}
				c.delivered++
				if want == ip.NoRoute {
					c.noRoute++
				}
			}
			return run, nil
		})
		if err != nil {
			return scenario.SliceStats{}, err
		}
		for eIdx, run := range runs {
			f.utils[eIdx] = run.util
			f.meter.Fold(run.em)
			if run.faulted && !f.engines[eIdx].down() && f.engines[eIdx].detectVia == "" {
				f.engines[eIdx].detectVia = ViaAccess
			}
			for vn := range run.perVN {
				c := run.perVN[vn]
				rep.DeliveredPerVN[vn] += c.delivered
				rep.DroppedPerVN[vn] += c.dropped
				rep.NoRoute += c.noRoute
				rep.HealthyMismatches += c.mismatch
				rep.FaultedLookups += c.faulted
				sliceDelivered += c.delivered
				if c.faulted > 0 {
					f.dropVN[vn].Add(c.faulted)
					obsFaultDrops.Add(c.faulted)
				}
			}
		}
		return scenario.SliceStats{
			Util: f.utils, Delivered: sliceDelivered, Scrubs: downEngines,
			Avail: f.upVN, Reloading: f.reloading(),
		}, nil
	}
	// Drain slice: no offered traffic (static power only — utils stay
	// zeroed), but availability and down counts still feed the row.
	for i := range f.utils {
		f.utils[i] = 0
	}
	downEngines := 0
	for _, e := range f.engines {
		if e.down() {
			downEngines++
		}
	}
	for vn := 0; vn < s.k; vn++ {
		f.upVN[vn] = !f.engines[s.engineOf(vn)].down()
	}
	return scenario.SliceStats{
		Util: f.utils, Scrubs: downEngines, Avail: f.upVN, Reloading: f.reloading(),
	}, nil
}

// reloading flags engines mid-reload for the governor's sample.
func (f *faultRun) reloading() []bool {
	for i, e := range f.engines {
		f.reloadFlags[i] = e.reloading
	}
	return f.reloadFlags
}

// RunFaults drives the router for trafficCycles cycles of back-to-back
// offered traffic (one packet per cycle) under the configured fault
// schedule, then drains until outstanding repairs land. The returned report
// is a pure function of the generator's and the injector's seeds — worker
// count never changes it.
func (s *System) RunFaults(gen *traffic.Generator, trafficCycles int64, cfg FaultConfig) (FaultReport, error) {
	cfg = cfg.withDefaults()
	if trafficCycles <= 0 {
		return FaultReport{}, fmt.Errorf("netsim: fault run of %d cycles, want > 0", trafficCycles)
	}
	if cfg.SliceCycles < 1 {
		return FaultReport{}, fmt.Errorf("netsim: slice of %d cycles, want >= 1", cfg.SliceCycles)
	}
	images := s.router.Images()
	in, err := faults.NewInjector(cfg.Inject, images)
	if err != nil {
		return FaultReport{}, err
	}
	scrubber, err := ctrl.NewScrubber(cfg.Scrub, in)
	if err != nil {
		return FaultReport{}, err
	}
	dropVN := make([]*obs.Counter, s.k)
	for vn := range dropVN {
		dropVN[vn] = obs.NewCounter(fmt.Sprintf("netsim.fault_drops.vn%02d", vn))
	}
	scrubber.SetEventLog(s.tel.Events)
	gv, err := s.newGovRun()
	if err != nil {
		return FaultReport{}, err
	}

	engines := make([]*engState, len(images))
	maxWords := 0
	for e := range images {
		engines[e] = &engState{img: images[e].Clone(), repairAt: -1}
		if w := images[e].Words(); w > maxWords {
			maxWords = w
		}
	}

	S := cfg.SliceCycles
	rep := FaultReport{
		Scheme:                 s.router.Config().Scheme,
		K:                      s.k,
		SliceCycles:            S,
		OfferedPerVN:           make([]int64, s.k),
		DeliveredPerVN:         make([]int64, s.k),
		DroppedPerVN:           make([]int64, s.k),
		UnavailableCyclesPerVN: make([]int64, s.k),
	}
	f := &faultRun{
		s: s, cfg: cfg, scheme: rep.Scheme, in: in, scrubber: scrubber,
		engines: engines, rep: &rep, gv: gv, gen: gen, dropVN: dropVN,
		meter: s.meter(), S: S,
		utils:       make([]float64, len(engines)),
		upVN:        make([]bool, s.k),
		reloadFlags: make([]bool, len(engines)),
	}

	maxDrain := cfg.MaxDrainSlices
	if maxDrain == 0 {
		maxDrain = 16
		if cfg.SweepWordsPerCycle > 0 {
			maxDrain += 4 * (maxWords/(int(S)*cfg.SweepWordsPerCycle) + 1)
		}
	}
	eng := s.engine()
	eng.Cycles = trafficCycles
	eng.SliceCycles = S
	eng.MaxDrainSlices = maxDrain
	eng.Gov = gv
	eng.Stressors = []scenario.Stressor{f}
	eng.Kernel = f
	eng.Energy = f.meter
	if err := eng.Run(); err != nil {
		return FaultReport{}, err
	}
	rep.TrafficCycles = eng.TrafficCycles
	rep.DrainCycles = eng.DrainCycles

	rep.Recovered = true
	for _, e := range engines {
		if e.down() || len(e.outstanding) > 0 {
			rep.Recovered = false
		}
	}
	if gv != nil {
		rep.Governor = gv.Report()
	}
	var delivered int64
	for _, d := range rep.DeliveredPerVN {
		delivered += d
	}
	er, err := f.meter.Report(deliveredBits(delivered))
	if err != nil {
		return FaultReport{}, err
	}
	rep.Energy = er
	er.Publish()
	return rep, nil
}
