package netsim

// The fault stressor of the composed runner: a seeded faults.Injector flips
// bits in the engines' serving images and kills an engine outright.
// Detection runs through three channels — access-time parity checking in the
// pipelines, a background readback sweep that walks each engine's stage
// memories at one word a cycle, and the control plane's heartbeat — and
// repair goes through ctrl.Scrub (rebuild from the authoritative tables,
// reload at one word a cycle). Degradation follows the schemes' asymmetry:
// a separate-engine failure blackholes only its own VNID, while the merged
// engine takes every network down for the reload window.

import (
	"vrpower/internal/core"
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
	// ViaReload marks an upset that landed while its engine was already
	// being reloaded; the fresh image overwrote it incidentally.
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

// scenFaults is the composed run's fault stressor. Boundary lands finished
// reloads, then turns the last slice's detection flags into scrubs;
// PreSlice schedules the slice's adversity before any arrival: the hard
// kill, this slice's SEUs (live slices only — the drain injects nothing
// new), then the background readback sweep over in-service engines.
type scenFaults struct {
	scenario.NopStressor
	r *scenRun
}

func (scenFaults) Name() string { return "faults" }

// rebuild is ctrl.Scrub's rebuild closure for engine e: a fresh copy of
// the control plane's image of its current (possibly churned) tables when
// churn is active; otherwise a recompile of the router's original tables
// through the same deterministic compile its build used, so the rebuilt
// geometry matches the original word for word (which keeps pre-drawn upset
// coordinates valid).
func (f scenFaults) rebuild(e int) func() (*pipeline.Image, error) {
	s, mgr := f.r.s, f.r.mgr
	cfg := s.router.Config()
	return func() (*pipeline.Image, error) {
		switch {
		case mgr != nil:
			return mgr.PinnedImage(e)
		case cfg.Scheme == core.VM:
			r, err := core.Build(cfg, s.tables)
			if err != nil {
				return nil, err
			}
			return r.Images()[0], nil
		}
		return core.CompileTable(cfg, s.tables[e])
	}
}

func (f scenFaults) install(eIdx int, e *scenEng) {
	r := f.r
	rep, tel := r.rep, r.s.tel
	fs := &e.fs
	at := fs.repairAt
	tel.Events.Log(obs.LevelInfo, at, "scrub_done", "engine", eIdx, "repaired", len(fs.outstanding))
	if fs.killed && rep.Kill != nil && rep.Kill.Engine == eIdx {
		rep.Kill.RepairedAt = at
	}
	fs.img = fs.pending
	fs.pending = nil
	fs.reloading = false
	fs.killed = false
	fs.repairAt = -1
	fs.sweepStage, fs.sweepIdx = 0, 0
	for _, i := range fs.outstanding {
		rec := &rep.SEUs[i]
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
	fs.detectVia = ""
	// The repaired engine is a fresh one over the clean image.
	r.retire(e.sim)
	e.sim = newSim(fs.img)
	r.chaosOnInstall(eIdx, e, at)
}

func (f scenFaults) startScrub(eIdx int, e *scenEng, b int64) error {
	r := f.r
	rep, tel := r.rep, r.s.tel
	fs := &e.fs
	via := fs.detectVia
	fs.detectVia = ""
	for _, i := range fs.outstanding {
		if rep.SEUs[i].DetectedAt < 0 {
			rep.SEUs[i].DetectedAt = b
			rep.SEUs[i].Via = via
			obsFaultsDetected.Inc()
		}
	}
	tel.Events.Log(obs.LevelInfo, b, "scrub_start", "engine", eIdx, "via", via, "outstanding", len(fs.outstanding))
	// Going down: in-flight lookups are lost, an in-flight update aborts
	// (or, past its commit bubble, completes).
	if err := r.abortUpdate(e, b); err != nil {
		return err
	}
	r.flushExits(e)
	// The journal's intent record lands before the first stage write.
	r.chaosScrubBegin(eIdx, e, b)
	// The rebuild compiles what compiled at set-up; if it fails anyway the
	// run does.
	img, err := ctrl.Scrub(f.rebuild(eIdx))
	if err != nil {
		return err
	}
	// One attempt, one cycle per word written. ScrubAttempts and the event's
	// attempts key stay in the report schema until ROADMAP 5(f)'s bump.
	words := int64(img.Words())
	rep.Scrubs++
	rep.ScrubAttempts++
	fs.reloading = true
	fs.pending = img
	fs.repairAt = b + words
	// The reload rewrites every word: control-plane energy on the engine,
	// attributed to the lowest network it serves.
	e.dev.meter.AddWords(eIdx, e.served[0], words)
	tel.Events.Log(obs.LevelInfo, b, "scrub_reload",
		"engine", eIdx, "attempts", 1, "writes", words,
		"latency_cycles", words, "ready_at", fs.repairAt)
	r.chaosScrubArmed(eIdx, e, b, words)
	return nil
}

func (f scenFaults) Boundary(b int64, _ bool) error {
	r := f.r
	rep := r.rep
	for eIdx, e := range r.devs[0].engines {
		fs := &e.fs
		if fs.killed && rep.Kill != nil && rep.Kill.Engine == eIdx && rep.Kill.DetectedAt < 0 {
			rep.Kill.DetectedAt = b
		}
		if fs.reloading && fs.repairAt <= b {
			f.install(eIdx, e)
		}
		if !fs.dead && !fs.reloading && (fs.detectVia != "" || fs.killed) {
			if fs.detectVia == "" {
				fs.detectVia = ViaHeartbeat
			}
			if err := f.startScrub(eIdx, e, b); err != nil {
				return err
			}
		}
	}
	return nil
}

func (f scenFaults) PreSlice(b, n int64, draining bool) error {
	r := f.r
	rep, tel := r.rep, r.s.tel
	if !draining {
		for eIdx, e := range r.devs[0].engines {
			if r.in.KillDue(eIdx, b+n) {
				e.fs.killed = true
				rep.Kill = &KillRecord{Engine: eIdx, Cycle: r.spec.Kill.Cycle, DetectedAt: -1, RepairedAt: -1}
				tel.Events.Log(obs.LevelError, r.spec.Kill.Cycle, "engine_kill", "engine", eIdx)
				// The kill takes the pipeline's contents with it.
				r.flushExits(e)
			}
		}
		for eIdx, e := range r.devs[0].engines {
			for _, u := range r.in.UpsetsThrough(eIdx, b+n) {
				// In-flight lookups see the flipped word from the stage they
				// have reached onward, as in hardware: the engine reads the
				// words in place and is settled (here, at a boundary) first.
				e.sim.Patch(func() { faults.ApplyUpset(e.fs.img, u) })
				rep.SEUs = append(rep.SEUs, SEURecord{Upset: u, DetectedAt: -1, RepairedAt: -1})
				e.fs.outstanding = append(e.fs.outstanding, len(rep.SEUs)-1)
				tel.Events.Log(obs.LevelWarn, u.Cycle, "seu_inject",
					"engine", eIdx, "seq", u.Seq, "stage", u.Stage, "index", int(u.Index), "bit", u.Bit)
			}
		}
	}
	for eIdx, e := range r.devs[0].engines {
		if e.fs.down() {
			continue
		}
		scanned, hit := e.fs.sweepStep(int(n))
		e.dev.meter.AddWords(eIdx, e.served[0], int64(scanned))
		if hit && e.fs.detectVia == "" {
			e.fs.detectVia = ViaSweep
		}
	}
	return nil
}

func (f scenFaults) Outstanding() bool {
	for _, e := range f.r.devs[0].engines {
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
