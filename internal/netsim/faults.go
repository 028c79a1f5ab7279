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
	// detected it: it landed while its engine was already being reloaded,
	// or in a bank a hitless update's commit flip retired.
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
	// outstanding indexes report.SEUs entries not yet repaired.
	outstanding []int
	// detectVia is the pending detection flag the next boundary consumes.
	detectVia string
	// killed marks the scheduled hard failure until the reload lands.
	killed bool
	// dead marks a watchdog escalation: permanently out of service.
	dead bool
	// reloading + repairAt + pending describe an in-flight scrub reload.
	reloading bool
	repairAt  int64
	pending   *pipeline.Image
}

func (e *engState) down() bool { return e.dead || e.killed || e.reloading }

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
// detection flags into scrubs; PreSlice schedules the slice's adversity
// before any arrival: the hard kill, this slice's SEUs (live slices only —
// the drain injects nothing new), then the background readback sweep over
// in-service engines.
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
	tel.Events.Log(obs.LevelInfo, at, "scrub_done", "engine", e.idx, "repaired", len(fs.outstanding))
	if fs.killed && rep.Kill != nil && rep.Kill.Engine == e.idx {
		rep.Kill.RepairedAt = at
	}
	fs.img = fs.pending
	fs.pending = nil
	fs.reloading = false
	fs.killed = false
	fs.repairAt = -1
	fs.sweepStage, fs.sweepIdx = 0, 0
	r.repairOutstanding(fs, at)
	fs.detectVia = ""
	// The repaired engine is a fresh one over the clean image.
	r.retire(e.sim)
	e.sim = newSim(fs.img)
	r.chaosOnInstall(e, at)
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
	for _, i := range fs.outstanding {
		if rep.SEUs[i].DetectedAt < 0 {
			rep.SEUs[i].DetectedAt = b
			rep.SEUs[i].Via = via
			obsFaultsDetected.Inc()
		}
	}
	tel.Events.Log(obs.LevelInfo, b, "scrub_start", "engine", e.idx, "via", via, "outstanding", len(fs.outstanding))
	// Going down: in-flight lookups are lost, an in-flight update aborts.
	r.abortUpdate(e, b)
	r.flushExits(e)
	// The journal's intent record lands before the first stage write.
	r.chaosScrubBegin(e, b)
	// The rebuild copies what compiled at set-up; if it fails anyway the
	// run does.
	img, err := ctrl.Scrub(f.rebuild(e))
	if err != nil {
		return err
	}
	// One attempt, one cycle per word written. ScrubAttempts and the event's
	// attempts key stay in the report schema until ROADMAP 2(e)'s bump.
	words := int64(img.Words())
	rep.Scrubs++
	rep.ScrubAttempts++
	fs.reloading = true
	fs.pending = img
	fs.repairAt = b + words
	// The reload rewrites every word: control-plane energy on the engine,
	// attributed to the lowest network it serves.
	e.dev.meter.AddWords(e.idx, e.served[0], words)
	tel.Events.Log(obs.LevelInfo, b, "scrub_reload",
		"engine", e.idx, "attempts", 1, "writes", words,
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
		if fs.reloading && fs.repairAt <= b {
			f.install(e)
		}
		if !fs.dead && !fs.reloading && (fs.detectVia != "" || fs.killed) {
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
	rep, tel := r.rep, r.s.tel
	if !draining {
		for _, e := range f.dev.engines {
			if in.KillDue(e.idx, b+n) {
				// The kill lands at its cycle inside the slice (RunSlice).
				r.kills, r.killAt = append(r.kills, e), r.spec.Kill.Cycle
			}
		}
		for _, e := range f.dev.engines {
			for _, u := range in.UpsetsThrough(e.idx, b+n) {
				// In-flight lookups see the flipped word from the stage they
				// have reached onward, as in hardware: the engine reads the
				// words in place and is settled (here, at a boundary) first.
				e.sim.Patch(func() { faults.ApplyUpset(e.fs.img, u) })
				rep.SEUs = append(rep.SEUs, SEURecord{Upset: u, DetectedAt: -1, RepairedAt: -1})
				e.fs.outstanding = append(e.fs.outstanding, len(rep.SEUs)-1)
				tel.Events.Log(obs.LevelWarn, u.Cycle, "seu_inject",
					"engine", e.idx, "seq", u.Seq, "stage", u.Stage, "index", int(u.Index), "bit", u.Bit)
			}
		}
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

// repairOutstanding stamps every outstanding upset of fs repaired at cycle
// at, when fresh words replaced the ones it hit: a scrub reload landing, or
// a bank flip retiring the bank it was applied to. An upset drawn for a
// later cycle of the slice is repaired the cycle after it; one nothing
// detected is marked detected by that reload.
func (r *scenRun) repairOutstanding(fs *engState, at int64) {
	for _, i := range fs.outstanding {
		rec := &r.rep.SEUs[i]
		rec.RepairedAt = at
		if rec.Cycle >= at {
			rec.RepairedAt = rec.Cycle + 1
		}
		if rec.DetectedAt < 0 {
			rec.DetectedAt = rec.RepairedAt
			rec.Via = ViaReload
			obsFaultsDetected.Inc()
		}
	}
	obsFaultsRepaired.Add(int64(len(fs.outstanding)))
	fs.outstanding = fs.outstanding[:0]
}

// kill takes the engines armed in r.kills out of service at cycle cyc of
// the live slice that starts at b, before the cycle's arrivals: each has
// served through cyc-1, is settled at cyc, and the lookups still in its pipe
// are lost with it. measure looks only at the slice's end, so it counts the
// whole slice as down; an engine that was up at b served the first cyc-b
// cycles of it, which are taken back here.
func (r *scenRun) kill(b, cyc int64) {
	for _, e := range r.kills {
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
	r.kills, r.killAt = r.kills[:0], -1
}

func (f scenFaults) Outstanding() bool {
	for _, e := range f.dev.engines {
		fs := &e.fs
		if fs.reloading || fs.killed {
			return true
		}
		if !fs.dead && len(fs.outstanding) > 0 {
			return true
		}
	}
	return false
}
