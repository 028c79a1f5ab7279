package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"runtime"
	"time"

	"vrpower/internal/core"
	"vrpower/internal/energy"
	"vrpower/internal/netsim"
	"vrpower/internal/obs"
	"vrpower/internal/power"
	"vrpower/internal/rib"
	"vrpower/internal/scenario"
	"vrpower/internal/traffic"
	"vrpower/internal/trie"
)

// Paper Section V-E: the 3725-prefix table's uni-bit trie shape.
const (
	paperPrefixes    = 3725
	paperNodes       = 9726
	paperPushedNodes = 16127
)

// obsCounts are the program's own counters a rep reports as deltas.
var obsCounts = []string{
	"pipeline.cycles_simulated", "pipeline.lookups_resolved", "pipeline.audit_probes",
	"ctrl.journal_ops", "ctrl.scrubs_completed", "ctrl.hitless_updates",
	"ctrl.journal_rollbacks", "ctrl.journal_replays", "faults.seu_injected",
}

// system is everything one lookupsim invocation builds before it runs.
type system struct {
	set    *rib.VirtualSet
	router *core.Router
	sys    *netsim.System
	gen    *traffic.Generator
	tel    *netsim.Telemetry
}

// repOut is one operation: a full rebuild from the seed plus one run.
type repOut struct {
	// wall is the run call, telemetry dump and report render; setup
	// everything of the rep before it.
	setup, wall time.Duration
	// phase is the host time under each root span name.
	phase map[string]time.Duration
	// allocBytes is the TotalAlloc delta over the rep; buildAllocs the
	// malloc count inside core.Build.
	allocBytes  uint64
	buildAllocs uint64
	// packets exited an engine.
	packets int64
	// sim holds the simulated metrics and counts: pure functions of the
	// commit and the seed, so they must repeat exactly. Besides the declared
	// metrics it carries two tallies the residual estimate multiplies unit
	// costs by: energy.events and update.batches.
	sim map[string]float64
	// digest is the SHA-256 of report JSON + series CSV + events JSONL.
	digest string
	// fail is the first failed check ("" when the operation passed).
	fail string
	// cliDelivered and cliMismatches are what lookupsim would print for
	// this run (CLI parity).
	cliDelivered  string
	cliMismatches int64
	// keep pins the system, report and telemetry for the live-heap reading.
	keep []any
}

type repRun struct {
	w    workload
	seed int64
	tr   *tracer
	out  repOut
	sum  hash.Hash
	// sys is the rep's build, kept for the untimed accuracy pass.
	sys *system
}

func newRepRun(w workload, seed int64, tr *tracer) *repRun {
	r := &repRun{w: w, seed: seed, tr: tr, sum: sha256.New()}
	r.out.phase = map[string]time.Duration{}
	r.out.sim = map[string]float64{}
	return r
}

func (r *repRun) span(name string, fn func() error) error {
	d, err := r.tr.timed(name, "bench.rep", fn)
	r.out.phase[name] += d
	return err
}

func (r *repRun) failf(format string, args ...any) {
	if r.out.fail == "" {
		r.out.fail = fmt.Sprintf(format, args...)
	}
}

// runRep executes one operation of w: rebuild everything from the seed as a
// lookupsim invocation does, run, dump telemetry, render the report, check.
// tr may be nil (untraced).
func runRep(w workload, seed int64, tr *tracer) repOut {
	r := newRepRun(w, seed, tr)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	snap := obs.TakeSnapshot()
	total, err := tr.timed("bench.rep", "", r.run)
	runtime.ReadMemStats(&m1)
	if err != nil {
		r.failf("run error: %v", err)
	}
	if r.sys != nil {
		r.accuracy(r.sys)
	}

	o := &r.out
	o.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	o.wall = o.phase["netsim.run"] + o.phase["obs.dump"] + o.phase["report.render"]
	o.setup = total - o.wall
	for _, name := range obsCounts {
		o.sim[name] = float64(snap.CounterDelta(name))
	}
	o.digest = hex.EncodeToString(r.sum.Sum(nil))
	o.keep = append(o.keep, r.sys)
	return *o
}

// build performs the set-up chain of cmd/lookupsim's run(): tables, router,
// system, generator, telemetry.
func (r *repRun) build() (*system, error) {
	s := &system{}
	w := r.w
	err := r.span("rib.generate", func() (err error) {
		s.set, err = rib.GenerateVirtualSet(w.k, w.prefixes, 0.5, r.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	var b0, b1 runtime.MemStats
	if r.tr != nil {
		runtime.ReadMemStats(&b0)
	}
	err = r.span("core.build", func() (err error) {
		s.router, err = core.Build(core.Config{Scheme: w.scheme, K: w.k, ClockGating: true}, s.set.Tables)
		return err
	})
	if err != nil {
		return nil, err
	}
	if r.tr != nil {
		runtime.ReadMemStats(&b1)
		r.out.buildAllocs += b1.Mallocs - b0.Mallocs
	}
	err = r.span("netsim.new", func() (err error) {
		s.sys, err = netsim.New(s.router, s.set.Tables)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = r.span("traffic.new", func() (err error) {
		s.gen, err = traffic.New(traffic.Config{
			K: w.k, Seed: r.seed + 1, Addr: traffic.RoutedAddr, Tables: s.set.Tables,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	s.tel = &netsim.Telemetry{Series: obs.NewTimeSeries(), Events: obs.NewEventLog(obs.LevelInfo)}
	s.sys.SetTelemetry(s.tel)
	r.out.sim["rib.routes"] = float64(w.k) * float64(w.prefixes)
	for _, img := range s.router.Images() {
		r.out.sim["pipeline.image_words"] += float64(img.Words())
	}
	r.sys = s
	return s, nil
}

// emit dumps the telemetry and renders the report the way the CLI and the
// equivalence goldens do, folding every byte into the rep's digest.
func (r *repRun) emit(s *system, rep any) error {
	err := r.span("obs.dump", func() error {
		if err := s.tel.Series.WriteCSV(r.sum); err != nil {
			return err
		}
		return s.tel.Events.WriteJSONL(r.sum)
	})
	if err != nil {
		return err
	}
	r.out.sim["obs.series_rows"] = float64(s.tel.Series.Len())
	r.out.sim["obs.events"] = float64(s.tel.Events.Len())
	return r.span("report.render", func() error {
		b, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		r.sum.Write(b)
		return nil
	})
}

// forward runs the one-shot kernel and checks it.
func (r *repRun) forward(s *system, packets int) error {
	var rep netsim.Report
	err := r.span("netsim.run", func() (err error) {
		rep, err = s.sys.Forward(s.gen.Batch(packets))
		return err
	})
	if err != nil {
		return err
	}
	if rep.Mismatches != 0 {
		r.failf("%d lookups misforwarded", rep.Mismatches)
	}
	if rep.Packets != packets {
		r.failf("forwarded %d of %d packets", rep.Packets, packets)
	}
	r.checkEnergy(rep.Energy)
	r.out.packets = int64(rep.Packets)
	r.out.cliMismatches = int64(rep.Mismatches)
	sim := r.out.sim
	sim["delivered_frac"] = float64(rep.Packets-rep.Mismatches) / float64(rep.Packets)
	sim["pj_per_bit"] = rep.Energy.JPerBit * 1e12
	sim["availability_min"] = 1
	sim["netsim.offered"] = float64(packets)
	sim["netsim.delivered"] = float64(rep.Packets - rep.Mismatches)
	sim["scenario.slices"] = 1
	sim["energy.events"] = float64(rep.Energy.Lookups)
	sim["energy.total_fj"] = totalFJ(rep.Energy)
	r.out.keep = append(r.out.keep, &rep)
	return r.emit(s, rep)
}

// run is the timed body of a rep: build, then the one-shot kernel or the
// scenario, then dump and render.
func (r *repRun) run() error {
	w := r.w
	s, err := r.build()
	if err != nil {
		return err
	}
	if w.packets > 0 {
		return r.forward(s, w.packets)
	}
	sim := r.out.sim

	var spec scenario.Spec
	err = r.span("scenario.parse", func() (err error) {
		spec, err = scenario.Parse(w.spec())
		return err
	})
	if err != nil {
		return err
	}
	var rep netsim.ScenarioReport
	err = r.span("netsim.run", func() (err error) {
		rep, err = s.sys.RunScenario(s.gen, spec)
		return err
	})
	if err != nil {
		return err
	}
	r.out.keep = append(r.out.keep, &rep)
	r.checkScenario(&rep)

	var offered, delivered, dropped int64
	avail := 1.0
	for vn := 0; vn < rep.K; vn++ {
		offered += rep.OfferedPerVN[vn]
		delivered += rep.DeliveredPerVN[vn]
		dropped += rep.DroppedPerVN[vn]
		avail = math.Min(avail, rep.Availability(vn))
	}
	r.out.packets = delivered + rep.FaultedLookups + rep.Mismatches
	r.out.cliDelivered = fmt.Sprintf("%.4f", rep.DeliveredFraction())
	r.out.cliMismatches = rep.Mismatches
	sim["delivered_frac"] = rep.DeliveredFraction()
	sim["pj_per_bit"] = rep.Energy.JPerBit * 1e12
	sim["availability_min"] = avail
	sim["netsim.offered"] = float64(offered)
	sim["netsim.delivered"] = float64(delivered)
	sim["netsim.dropped"] = float64(dropped)
	sim["netsim.faulted_lookups"] = float64(rep.FaultedLookups)
	sim["netsim.backlog_peak"] = float64(rep.BacklogPeak)
	sim["scenario.slices"] = float64(rep.TrafficCycles / rep.SliceCycles)
	sim["scenario.drain_slices"] = math.Ceil(float64(rep.DrainCycles) / float64(rep.SliceCycles))
	sim["energy.total_fj"] = totalFJ(rep.Energy)
	sim["energy.events"] = float64(rep.Energy.Lookups + rep.Energy.Bubbles)
	sim["update.batches"] = float64(rep.BatchesApplied + rep.BatchesAborted)
	if c := rep.Chaos; c != nil {
		sim["update.batches"] += float64(c.RetriedBatches)
	}
	if g := rep.Governor; g != nil {
		sim["governor.escalations"] = float64(g.Escalations)
	}
	if f := rep.Fleet; f != nil {
		sim["mttr_cycles"] = f.MeanMTTRCycles()
		sim["fleet.migrations"] = float64(f.MigrationsDone)
		sim["fleet.migration_attempts"] = float64(f.MigrationAttempts)
		sim["fleet.degraded"] = float64(len(f.Degraded))
		sim["fleet.spares_activated"] = float64(f.SpareActivations)
	}
	return r.emit(s, rep)
}

// accuracy records the two distances between this build and the paper's
// reference numbers: power model vs the emulated post-route measurement
// (envelope 3 %), and trie shape vs the published 3725-prefix node counts.
// It runs after the timed region.
func (r *repRun) accuracy(s *system) {
	model, err := s.router.ModelPower()
	if err != nil {
		r.failf("model power: %v", err)
		return
	}
	meas, err := s.router.MeasuredPower(power.NewAnalyzer())
	if err != nil {
		r.failf("measured power: %v", err)
		return
	}
	sim := r.out.sim
	sim["model_err_pct"] = math.Abs(power.PercentError(model.Total(), meas.Total()))

	tbl := s.set.Tables[0]
	if tbl.Len() != paperPrefixes {
		return
	}
	tr := trie.Build(tbl.Routes)
	plain := tr.Stats().Nodes
	tr.LeafPush()
	pushed := tr.Stats().Nodes
	worst := math.Max(relErr(plain, paperNodes), relErr(pushed, paperPushedNodes))
	sim["trie_nodes_err_pct"] = 100 * worst
}

func relErr(got, want int) float64 {
	return math.Abs(float64(got-want)) / float64(want)
}

func totalFJ(e *energy.Report) float64 {
	var fj int64
	for _, v := range e.VNDynFJ {
		fj += v
	}
	for _, v := range e.DeviceStaticFJ {
		fj += v
	}
	return float64(fj)
}

// checkEnergy re-derives the meter's attribution invariant from the report:
// per-VN, per-engine and per-component dynamic energy are the same total.
func (r *repRun) checkEnergy(e *energy.Report) {
	if e == nil {
		r.failf("report carries no energy section")
		return
	}
	var vn, eng int64
	for _, v := range e.VNDynFJ {
		vn += v
	}
	for _, v := range e.EngineDynFJ {
		eng += v
	}
	if comp := e.MemFJ + e.ClockFJ + e.CtrlFJ; vn != eng || vn != comp {
		r.failf("energy attribution: vn %d fJ, engine %d fJ, components %d fJ", vn, eng, comp)
	}
}

// checkScenario applies lookupsim's exit conditions plus packet conservation.
func (r *repRun) checkScenario(rep *netsim.ScenarioReport) {
	if rep.Mismatches != 0 {
		r.failf("%d lookups misforwarded", rep.Mismatches)
	}
	if c := rep.Chaos; c != nil && c.AuditMismatches != 0 {
		r.failf("%d audit probes misforwarded after recovery", c.AuditMismatches)
	}
	if f := rep.Fleet; f != nil && f.AuditMismatches != 0 {
		r.failf("%d audit probes misforwarded after migration", f.AuditMismatches)
	}
	if !rep.Completed {
		r.failf("run ended with repairs, updates or backlogs outstanding")
	}
	for vn := 0; vn < rep.K; vn++ {
		if rep.OfferedPerVN[vn] != rep.DeliveredPerVN[vn]+rep.DroppedPerVN[vn] {
			r.failf("vn %d: offered %d != delivered %d + dropped %d",
				vn, rep.OfferedPerVN[vn], rep.DeliveredPerVN[vn], rep.DroppedPerVN[vn])
		}
	}
	r.checkEnergy(rep.Energy)
}
