package netsim

// The fault stressor of the composed runner: a seeded faults.Injector flips
// bits in the engines' serving images and kills an engine outright.
// Detection runs through three channels — access-time parity checking in the
// pipelines, a background readback sweep that walks each engine's stage
// memories at one word a cycle, and the control plane's heartbeat — and
// repair goes through ctrl.Scrub (a pristine copy of the authoritative
// tables' image, reloaded at one word a cycle). Degradation follows the schemes' asymmetry:
// a separate-engine failure blackholes only its own VNID, while the merged
// engine takes every network down for the reload window.

import (
	"cmp"
	"slices"

	"vrpower/internal/ctrl"
	"vrpower/internal/faults"
	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
	"vrpower/internal/scenario"
)

// Fault instrumentation (surfaced by cmd/lookupsim -stats). Per-VNID drop
// counters are registered by the run.
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
	// ViaReload marks an upset that fresh words overwrote before anything
	// detected it: it landed in words a scrub reload or a hitless update's
	// commit flip then replaced.
	ViaReload = "reload"
)

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

// engState is one engine's fault lifecycle.
type engState struct {
	// img is the run-private (cloned, possibly corrupted) image in service.
	img *pipeline.Image
	// sweepStage/sweepIdx is the background readback sweep's cursor.
	sweepStage int
	sweepIdx   int
	// outstanding lists the upsets not yet repaired, each with the image it
	// landed in.
	outstanding []landed
	// detectVia is the pending detection flag the next boundary consumes.
	detectVia string
	// killed marks the scheduled hard failure until the reload lands.
	killed bool
	// dead marks a watchdog escalation: permanently out of service.
	dead bool
	// pending is an in-flight scrub reload's image (nil: none), ready at
	// cycle repairAt.
	pending  *pipeline.Image
	repairAt int64
}

func (e *engState) reloading() bool { return e.pending != nil }

func (e *engState) down() bool { return e.dead || e.killed || e.reloading() }

// landed is an outstanding upset: its index in report.SEUs and the image it
// flipped a bit of.
type landed struct {
	seu int
	img *pipeline.Image
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

// scenFaults is the composed run's fault stressor over one device's engines
// and injector. Boundary lands finished reloads, then turns the last slice's
// detection flags into scrubs; PreSlice draws the slice's hard kill and
// SEUs (live slices only — the drain injects nothing new) into the run's
// in-slice list, which RunSlice lands each at its cycle, then runs the
// background readback sweep over in-service engines.
type scenFaults struct {
	scenario.NopStressor
	r   *scenRun
	dev *device
}

func (scenFaults) Name() string { return "faults" }

// rebuild is ctrl.Scrub's rebuild closure for engine e: a fresh copy of
// the device's control-plane image of its current (possibly churned) tables
// when churn is active; otherwise a clone of the device router's pristine
// image, the compile of the original tables of the networks e serves. Both
// are copies of what a recompile would make, word for word (which keeps
// pre-drawn upset coordinates valid), and nothing recompiles what it can copy.
func (f scenFaults) rebuild(e *scenEng) func() (*pipeline.Image, error) {
	mgr, pristine := f.dev.mgr, f.dev.router.Images()[e.idx]
	return func() (*pipeline.Image, error) {
		if mgr != nil {
			return mgr.PinnedImage(e.idx)
		}
		return pristine.Clone(), nil
	}
}

func (f scenFaults) install(e *scenEng) {
	r := f.r
	rep, tel := r.rep, r.s.tel
	fs := &e.fs
	at := fs.repairAt
	fs.img = fs.pending
	repaired := r.repairOutstanding(fs, at)
	tel.Events.Log(obs.LevelInfo, at, "scrub_done", "engine", e.idx, "repaired", repaired)
	if fs.killed && rep.Kill != nil && rep.Kill.Engine == e.idx {
		rep.Kill.RepairedAt = at
	}
	fs.pending = nil
	fs.killed = false
	fs.repairAt = -1
	fs.sweepStage, fs.sweepIdx = 0, 0
	fs.detectVia = ""
	// The repaired engine is a fresh one over the clean image.
	r.retire(e.sim)
	e.sim = newSim(fs.img)
	r.chaosDone(e, at)
}

func (f scenFaults) startScrub(e *scenEng, b int64) error {
	r := f.r
	rep, tel := r.rep, r.s.tel
	fs := &e.fs
	via := fs.detectVia
	fs.detectVia = ""
	// An update past its commit bubble commits first, so the control
	// plane's tables never diverge from what the engine serves: its bank
	// flip repaired the upsets the retired bank held, so they are not the
	// scrub's to detect.
	if e.handle != nil && e.doneAt >= 0 {
		if err := r.commitUpdate(e); err != nil {
			return err
		}
		// A live engine whose every upset the flip retired serves clean
		// words: there is nothing left to reload.
		if !fs.killed && len(fs.outstanding) == 0 {
			return nil
		}
	}
	for _, o := range fs.outstanding {
		if rec := &rep.SEUs[o.seu]; rec.DetectedAt < 0 {
			rec.DetectedAt = b
			rec.Via = via
			obsFaultsDetected.Inc()
		}
	}
	tel.Events.Log(obs.LevelInfo, b, "scrub_start", "engine", e.idx, "via", via, "outstanding", len(fs.outstanding))
	// Going down: in-flight lookups are lost, an in-flight update stops and
	// re-arms once the engine is back.
	r.interrupt(e, b)
	r.flushExits(e)
	// The journal's intent record lands before the first stage write.
	r.chaosBegin(e, ctrl.OpScrub, -1, b)
	// The rebuild copies what compiled at set-up; if it fails anyway the
	// run does.
	img, err := ctrl.Scrub(f.rebuild(e))
	if err != nil {
		return err
	}
	// One cycle per word written.
	words := int64(img.Words())
	rep.Scrubs++
	fs.pending = img
	fs.repairAt = b + words
	// The reload rewrites every word: control-plane energy on the engine,
	// attributed to the lowest network it serves.
	e.dev.meter.AddWords(e.idx, e.served[0], words)
	tel.Events.Log(obs.LevelInfo, b, "scrub_reload",
		"engine", e.idx, "writes", words,
		"latency_cycles", words, "ready_at", fs.repairAt)
	r.chaosScrubArmed(e, b, words)
	return nil
}

func (f scenFaults) Boundary(b int64, _ bool) error {
	r := f.r
	rep := r.rep
	for _, e := range f.dev.engines {
		fs := &e.fs
		if fs.killed && rep.Kill != nil && rep.Kill.Engine == e.idx && rep.Kill.DetectedAt < 0 {
			rep.Kill.DetectedAt = b
		}
		if fs.reloading() && fs.repairAt <= b {
			f.install(e)
		}
		if !fs.dead && !fs.reloading() && (fs.detectVia != "" || fs.killed) {
			if fs.detectVia == "" {
				fs.detectVia = ViaHeartbeat
			}
			if err := f.startScrub(e, b); err != nil {
				return err
			}
		}
	}
	return nil
}

func (f scenFaults) PreSlice(b, n int64, draining bool) error {
	r, in := f.r, f.dev.in
	if !draining {
		// The slice's kill and upsets land at their cycles inside it
		// (RunSlice), in cycle order.
		for _, e := range f.dev.engines {
			if in.KillDue(e.idx, b+n) {
				r.due = append(r.due, dueFault{e: e, at: r.spec.Kill.Cycle, kill: true})
			}
			for _, u := range in.UpsetsThrough(e.idx, b+n) {
				r.due = append(r.due, dueFault{e: e, at: u.Cycle, u: u})
			}
		}
		slices.SortStableFunc(r.due, func(x, y dueFault) int { return cmp.Compare(x.at, y.at) })
	}
	for _, e := range f.dev.engines {
		if e.fs.down() {
			continue
		}
		scanned, hit := e.fs.sweepStep(int(n))
		e.dev.meter.AddWords(e.idx, e.served[0], int64(scanned))
		if hit && e.fs.detectVia == "" {
			e.fs.detectVia = ViaSweep
		}
	}
	return nil
}

// dueFault is a fault drawn for the current slice: engine e's kill (kill
// set) or upset u, landing at cycle at.
type dueFault struct {
	e    *scenEng
	at   int64
	kill bool
	u    faults.Upset
}

// upset flips u's bit in the words engine e holds at the upset's cycle: the
// shadow bank once the commit bubble has left, the reload's image once it is
// ready, the serving image otherwise. In-flight lookups see the flipped word
// from the stage they have reached onward, as in hardware: the engine reads
// the words in place and is settled first (Patch).
func (r *scenRun) upset(e *scenEng, u faults.Upset) {
	fs := &e.fs
	img := fs.img
	switch {
	case e.handle != nil && (e.doneAt >= 0 || e.sim.FlipDue()):
		img = e.handle.Image()
	case fs.reloading() && u.Cycle >= fs.repairAt:
		img = fs.pending
	}
	e.sim.Patch(func() { img.FlipBit(u.Stage, u.Index, u.Bit) })
	r.rep.SEUs = append(r.rep.SEUs, SEURecord{Upset: u, DetectedAt: -1, RepairedAt: -1})
	fs.outstanding = append(fs.outstanding, landed{len(r.rep.SEUs) - 1, img})
	r.s.tel.Events.Log(obs.LevelWarn, u.Cycle, "seu_inject",
		"engine", e.idx, "seq", u.Seq, "stage", u.Stage, "index", int(u.Index), "bit", u.Bit)
}

// repairOutstanding stamps repaired at cycle at the outstanding upsets of fs
// that fresh words replaced — every one that did not land in fs.img, the
// image just swapped in (a scrub reload's, or a bank flip's) — and returns
// how many. One nothing detected is marked detected by that swap. The rest
// stay outstanding for the sweep, an access or a later scrub.
func (r *scenRun) repairOutstanding(fs *engState, at int64) int {
	kept := fs.outstanding[:0]
	for _, o := range fs.outstanding {
		if o.img == fs.img {
			kept = append(kept, o)
			continue
		}
		rec := &r.rep.SEUs[o.seu]
		rec.RepairedAt = at
		if rec.DetectedAt < 0 {
			rec.DetectedAt = at
			rec.Via = ViaReload
			obsFaultsDetected.Inc()
		}
	}
	repaired := len(fs.outstanding) - len(kept)
	obsFaultsRepaired.Add(int64(repaired))
	fs.outstanding = kept
	return repaired
}

// kill takes engine e out of service at cycle cyc of the live slice that
// starts at b, before the cycle's arrivals: it has served through cyc-1, is
// settled at cyc, and the lookups still in its pipe are lost with it.
// measure looks only at the slice's end, so it counts the whole slice as
// down; an engine that was up at b served the first cyc-b cycles of it,
// which are taken back here.
func (r *scenRun) kill(e *scenEng, b, cyc int64) {
	r.settle(e)
	if !e.fs.down() {
		for _, vn := range e.served {
			r.rep.UnavailableCyclesPerVN[vn] -= cyc - b
		}
	}
	e.fs.killed = true
	r.rep.Kill = &KillRecord{Engine: e.idx, Cycle: cyc, DetectedAt: -1, RepairedAt: -1}
	r.s.tel.Events.Log(obs.LevelError, cyc, "engine_kill", "engine", e.idx)
	r.flushExits(e)
}

func (f scenFaults) Outstanding() bool {
	for _, e := range f.dev.engines {
		if fs := &e.fs; fs.reloading() || fs.killed || !fs.dead && len(fs.outstanding) > 0 {
			return true
		}
	}
	return false
}
