package netsim

// Chaos stressor tests: every injected control-plane fault must end in a
// journaled rollback or replay — never an undefined image — the invariant
// auditor must find zero oracle mismatches through a multi-crash soak, and
// the whole composed run must stay byte-identical across worker counts.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/ctrl"
	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
	"vrpower/internal/rib"
	"vrpower/internal/scenario"
	"vrpower/internal/update"
)

// TestChaosCrashSoakTenCrashes is the acceptance soak: ten injected
// crash-before-commit faults against a churning control plane. Every crash
// must be detected by the watchdog, rolled back by the journal, and leave
// the data plane serving a defined image (zero audit mismatches, zero
// oracle mismatches); every batch must still commit by run end.
func TestChaosCrashSoakTenCrashes(t *testing.T) {
	spec := mustParse(t, "load=const:0.4,churn=14x24,chaos=crash:10,cycles=32768,seed=7")
	rep, _ := runScenario(t, core.VS, 3, spec, 1)

	ch := rep.Chaos
	if ch == nil {
		t.Fatal("no chaos report despite chaos=")
	}
	if ch.InjectedCrashes != 10 {
		t.Fatalf("injected %d crashes, want 10", ch.InjectedCrashes)
	}
	// Every crash ends in a journaled rollback, and nothing else does.
	if ch.Rollbacks != 10 {
		t.Fatalf("%d rollbacks, want 10 (one per crash)", ch.Rollbacks)
	}
	if ch.Replays != 0 {
		t.Fatalf("%d replays on a crash-only run, want 0", ch.Replays)
	}
	if ch.RetriedBatches != 10 {
		t.Fatalf("%d retried batches, want 10", ch.RetriedBatches)
	}
	// Rolled-back batches re-arm: all 14 still commit.
	if rep.BatchesApplied != 14 {
		t.Fatalf("%d batches applied, want all 14", rep.BatchesApplied)
	}
	// The invariant auditor ran after every recovery and found the live
	// image oracle-exact: drops allowed, misforwards never.
	if ch.Audits == 0 || ch.AuditProbes == 0 {
		t.Fatalf("no invariant audits ran (audits=%d probes=%d)", ch.Audits, ch.AuditProbes)
	}
	if ch.AuditMismatches != 0 {
		t.Fatalf("%d audit mismatches: a recovery left a misforwarding image", ch.AuditMismatches)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d oracle mismatches in live traffic", rep.Mismatches)
	}
	// The journal closed every op: begun = commits + aborts, nothing open.
	if ch.JournalBegun != ch.JournalCommits+ch.JournalAborts {
		t.Fatalf("journal left ops open: begun %d, commits %d, aborts %d",
			ch.JournalBegun, ch.JournalCommits, ch.JournalAborts)
	}
	if ch.Recoveries != 10 || ch.MeanRecoveryCycles() <= 0 {
		t.Fatalf("recoveries %d mean %g, want 10 with positive latency",
			ch.Recoveries, ch.MeanRecoveryCycles())
	}
	if !rep.Completed {
		t.Fatal("run did not complete inside the drain bound")
	}
	if ch.Escalations != 0 || len(rep.Chaos.DegradedSlicesPerVN) != 3 {
		t.Fatalf("unexpected escalations %d / degraded shape %v", ch.Escalations, ch.DegradedSlicesPerVN)
	}
}

// TestChaosScrubFaultsReplayAndRecover drives the scrub-side fault classes
// — stall, torn write, watchdog false positive — against SEU-triggered
// reloads. Stalls and torn writes must resolve as journaled replays (the
// journal's policy for a scrub), the false positive must consume no retry
// budget, and the run must end recovered with a clean audit trail.
func TestChaosScrubFaultsReplayAndRecover(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 3)
	const cycles = 24576
	raw := fmt.Sprintf("load=const:0.4,faults=seu:%g,chaos=stall:1+torn:1+falsepos:1,cycles=%d,seed=13",
		seuRateFor(s, 6, cycles), cycles)
	rep, _ := runScenario(t, core.VS, 3, mustParse(t, raw), 1)

	ch := rep.Chaos
	if ch == nil {
		t.Fatal("no chaos report")
	}
	injected := ch.InjectedStalls + ch.InjectedTorn + ch.InjectedFalsePositives
	if injected == 0 {
		t.Fatal("no scrub-side fault was dealt (no scrub ran?)")
	}
	// Scrub-path recovery is replay, never rollback.
	if ch.Rollbacks != 0 {
		t.Fatalf("%d rollbacks on a scrub-only chaos run", ch.Rollbacks)
	}
	if want := ch.InjectedStalls + ch.InjectedTorn; ch.Replays < want {
		t.Fatalf("%d replays for %d stall/torn faults", ch.Replays, want)
	}
	if ch.InjectedStalls > 0 && ch.WatchdogRetries == 0 {
		t.Fatal("a stall was injected but the watchdog never retried")
	}
	if ch.InjectedFalsePositives > 0 && ch.FalsePositives == 0 {
		t.Fatal("a false positive was injected but never recorded")
	}
	if ch.AuditMismatches != 0 {
		t.Fatalf("%d audit mismatches after replay recovery", ch.AuditMismatches)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d oracle mismatches", rep.Mismatches)
	}
	if ch.Escalations == 0 && !rep.Recovered {
		t.Fatal("no escalation, yet the system did not recover")
	}
	if ch.JournalBegun != ch.JournalCommits+ch.JournalAborts {
		t.Fatalf("journal left ops open: begun %d, commits %d, aborts %d",
			ch.JournalBegun, ch.JournalCommits, ch.JournalAborts)
	}
}

// TestChaosComposedDeterministicAcrossWorkers: the flagship composition —
// surge load, SEU scrubs, churn, a power cap, and every chaos fault class
// in one run — must produce byte-identical reports and telemetry at -j1
// and -j8.
func TestChaosComposedDeterministicAcrossWorkers(t *testing.T) {
	raw := "load=surge:0.3:0.9,faults=seu:2e-8,churn=8x24,power-cap=38,chaos=crash:3+stall:1+torn:1+falsepos:1,cycles=16384,queue=32,seed=11"
	spec := mustParse(t, raw)
	rep1, dumps1 := runScenario(t, core.VS, 3, spec, 1)
	rep8, dumps8 := runScenario(t, core.VS, 3, spec, 8)
	if dumpJSON(t, rep1) != dumpJSON(t, rep8) {
		t.Errorf("%s: report differs between -j1 and -j8", raw)
	}
	for i, name := range []string{"traces", "series", "events"} {
		if dumps1[i] != dumps8[i] {
			t.Errorf("%s: %s dump differs between -j1 and -j8", raw, name)
		}
	}
	if rep1.Chaos == nil || rep1.Chaos.InjectedCrashes == 0 {
		t.Fatalf("composed run injected no crashes: %+v", rep1.Chaos)
	}
	if rep1.Chaos.AuditMismatches != 0 || rep1.Mismatches != 0 {
		t.Fatalf("composed run misforwarded: audit %d, live %d",
			rep1.Chaos.AuditMismatches, rep1.Mismatches)
	}
	if len(rep1.Stressors) != 5 {
		t.Fatalf("stressors %v, want all five", rep1.Stressors)
	}
}

// TestChaosSpecRequiresCarrier: the runner rejects chaos specs whose faults
// have no operation to ride (enforced at parse, visible end to end).
func TestChaosSpecRequiresCarrier(t *testing.T) {
	if _, err := scenario.Parse("load=const:0.4,chaos=crash:2"); err == nil {
		t.Fatal("crash chaos without churn accepted")
	}
	if _, err := scenario.Parse("load=const:0.4,chaos=stall:1"); err == nil {
		t.Fatal("stall chaos without faults/kill accepted")
	}
}

// TestTornSpliceOwnsItsWords: the torn image stands in for the engine's
// memory through the replay window, so SEUs land in it; none may reach the
// pending image that is then installed as the repair. Strike every word the
// tear spliced in and the pending image must still read clean.
func TestTornSpliceOwnsItsWords(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 3)
	wd, err := ctrl.NewWatchdog(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	jr := ctrl.NewJournal()
	r := &scenRun{s: s, rep: &ScenarioReport{Chaos: &ChaosReport{}}}
	dev := &device{jrs: []*ctrl.Journal{jr}, wd: wd}
	img := s.router.Images()[0]
	e := &scenEng{dev: dev}
	e.fs.img, e.fs.pending = img.Clone(), img.Clone()
	e.ch.reset()
	e.ch.latency = 1000
	if e.ch.tok, err = jr.Begin(ctrl.OpScrub, 0, -1, 0); err != nil {
		t.Fatal(err)
	}
	scenChaos{r: r, dev: dev}.tearAndReplay(e, 100)

	torn := e.fs.img
	if torn == e.fs.pending || e.ch.appliedStages == 0 {
		t.Fatalf("no tear: applied stages %d", e.ch.appliedStages)
	}
	struck := 0
	for st := 0; st < e.ch.appliedStages; st++ {
		for i := 0; i < torn.StageLen(st); i++ {
			if torn.FlipBit(st, uint32(i), 0) {
				struck++
			}
		}
	}
	if struck == 0 {
		t.Fatal("the spliced stages hold no word to strike")
	}
	if stages, _ := torn.Corrupted(); len(stages) != struck {
		t.Fatalf("torn image reads %d corrupted words, struck %d", len(stages), struck)
	}
	if stages, idx := e.fs.pending.Corrupted(); len(stages) != 0 {
		t.Fatalf("%d upsets on the torn image reached the pending image (first: stage %d entry %d)",
			len(stages), stages[0], idx[0])
	}
}

// chaosVSSeed4 is the benchmark's chaos_vs workload at table seed 4: SEUs,
// scrubs, a torn reload and its replay in one run. TestTornSpliceOwnsItsWords
// strikes every word a tear splices in directly.
func chaosVSSeed4(t *testing.T) (*scenRun, ScenarioReport, string) {
	t.Helper()
	set, err := rib.GenerateVirtualSet(3, 3725, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	router, err := core.Build(core.Config{Scheme: core.VS, K: 3, ClockGating: true}, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(router, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	tel := &Telemetry{Series: obs.NewTimeSeries(), Events: obs.NewEventLog(obs.LevelInfo)}
	s.SetTelemetry(tel)
	spec := mustParse(t, "load=surge:0.3:0.9,faults=seu:5e-11,churn=8x24,power-cap=4.97,"+
		"chaos=crash:3+stall:1+torn:1+falsepos:1,cycles=262144,queue=32,seed=11")
	r, err := s.runScenario(faultGen(t, s, 5), spec)
	if err != nil {
		t.Fatal(err)
	}
	var events strings.Builder
	if err := tel.Events.WriteJSONL(&events); err != nil {
		t.Fatal(err)
	}
	return r, *r.rep, events.String()
}

// TestNoGhostScrub: a sweep finds stale parity only where an SEU record says
// an upset landed. A scrub_start with nothing outstanding means an upset
// reached an image through storage it shared with another — here, before the
// fix, the repair image through the torn image's spliced leaves.
func TestNoGhostScrub(t *testing.T) {
	r, rep, events := chaosVSSeed4(t)
	if rep.Chaos == nil || rep.Chaos.InjectedTorn == 0 || len(rep.SEUs) == 0 {
		t.Fatalf("run has no torn reload or no SEU: %+v, %d SEUs", rep.Chaos, len(rep.SEUs))
	}
	starts := 0
	for _, line := range strings.Split(events, "\n") {
		if !strings.Contains(line, `"scrub_start"`) {
			continue
		}
		starts++
		if strings.Contains(line, `"outstanding":0`) {
			t.Errorf("ghost scrub: %s", line)
		}
	}
	if starts == 0 {
		t.Fatal("no scrub_start event in the log")
	}
	// Each detection by access or by the sweep — one per engine and
	// boundary — starts one scrub; an upset a reload already carried away
	// starts none. A ghost is a scrub beyond these.
	type detection struct {
		engine int
		at     int64
	}
	detected := map[detection]bool{}
	for _, u := range rep.SEUs {
		if u.Via != ViaReload {
			detected[detection{u.Engine, u.DetectedAt}] = true
		}
	}
	if rep.Scrubs != len(detected) {
		t.Errorf("%d scrubs for %d detections (a ghost is one more)", rep.Scrubs, len(detected))
	}

	// The same rule from the other side. Engines read an image's words in
	// place, so all that stands between an upset and the control plane's
	// images is that the data plane is handed clones: after SEUs, scrubs,
	// hitless batches, a torn reload and rollbacks, no image the control plane
	// keeps — the manager's pinned ones, its router's, the system's router's —
	// is one an engine serves or holds pending, and every one reads clean.
	mgr := r.devs[0].mgr
	pinned, err := mgr.PinnedImages()
	if err != nil {
		t.Fatal(err)
	}
	kept := map[string][]*pipeline.Image{"pinned": pinned, "manager's router": mgr.Router().Images(), "system's router": r.s.router.Images()}
	for name, images := range kept {
		for e, img := range images {
			if s, i := img.Corrupted(); len(s) != 0 {
				t.Errorf("%s image %d: %d corrupted words (first: stage %d entry %d)", name, e, len(s), s[0], i[0])
			}
			for _, eng := range r.devs[0].engines {
				if eng.fs.img == img || eng.fs.pending == img {
					t.Errorf("%s image %d is in an engine's hands", name, e)
				}
			}
		}
	}
}

// TestRolledBackBatchRearms: a batch a crash rolled back re-arms as it was
// prepared — its ops, table, image, counts and oracle kept — so a run compiles
// one image fewer for each retried batch (set-up compiles the system's and the
// churn manager's K images, each fresh arming one) and stays byte for byte
// the run that regenerated, re-applied and recompiled the batch: the digests
// of report, traces, series and events were recorded from that runner, and
// re-recorded at schema 2, which moved only the schema's keys. The
// chaos smoke's spec is run at a lower SEU rate, where the watchdog finds
// every crash (at its own, scrubs find them: TestInterruptedBatchRearms);
// the crash soak re-arms ten. Through ctrl: the re-armed image is a fresh prepare's, and a re-arm is
// refused while armed, after a commit, and once the network's table changed.
func TestRolledBackBatchRearms(t *testing.T) {
	for _, c := range []struct{ spec, digest string }{
		{"load=surge:0.3:0.9,faults=seu:5e-10,churn=8x24,power-cap=38,chaos=crash:3+stall:1+torn:1+falsepos:1,cycles=16384,queue=32,seed=11",
			"51e2d0f1e50a9b6abe7102c14c710692ca282b976faf0e1c80e17c6a2c2804ab"},
		{"load=const:0.4,churn=14x24,chaos=crash:10,cycles=32768,seed=7",
			"f3766a1b9840a63de6420a5920ee81db2df5c28b886ab8bb188f330c80071b36"},
	} {
		snap := obs.TakeSnapshot()
		rep, dumps := runScenario(t, core.VS, 3, mustParse(t, c.spec), 1)
		compiled := snap.CounterDelta("pipeline.images_compiled")
		arms := int64(strings.Count(dumps[2], `"update_arm"`))
		retried := int64(rep.Chaos.RetriedBatches)
		if retried == 0 {
			t.Fatalf("%s: no batch re-armed", c.spec)
		}
		if want := 2*3 + arms - retried; compiled != want {
			t.Errorf("%s: %d images compiled for %d armings of which %d re-armed, want %d", c.spec, compiled, arms, retried, want)
		}
		h := sha256.New()
		fmt.Fprint(h, dumpJSON(t, rep), dumps[0], dumps[1], dumps[2])
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.digest {
			t.Errorf("%s: report and dumps digest %s, want %s", c.spec, got, c.digest)
		}
	}

	set, err := rib.GenerateVirtualSet(3, 400, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Scheme: core.VS, K: 3, ClockGating: true}
	m, err := ctrl.New(cfg, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := ctrl.New(cfg, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := update.Churn(m.Tables()[1], 24, update.ChurnConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.BeginHitlessUpdate(1, ops)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Rearm(); err == nil {
		t.Error("an armed update re-armed")
	}
	first := h.Image()
	first.FlipBit(0, 0, 1) // the data plane's copy takes an upset
	h.Abort()
	snap := obs.TakeSnapshot()
	if err := h.Rearm(); err != nil {
		t.Fatal(err)
	}
	if n := snap.CounterDelta("pipeline.images_compiled"); n != 0 {
		t.Errorf("a re-arm compiled %d images", n)
	}
	if err := m.BeginReload(); !errors.Is(err, ctrl.ErrReloadInFlight) {
		t.Errorf("a re-armed update does not hold the reload guard: %v", err)
	}
	want, err := fresh.BeginHitlessUpdate(1, ops)
	if err != nil {
		t.Fatal(err)
	}
	if h.Image() == first || !h.Image().Equal(want.Image()) || h.Writes() != want.Writes() || h.Bubbles() != want.Bubbles() ||
		h.Table().Len() != want.Table().Len() {
		t.Error("the re-armed update is not a fresh prepare of the same ops, in a fresh clone")
	}
	if _, err := h.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := h.Rearm(); !errors.Is(err, ctrl.ErrUpdateFinished) {
		t.Errorf("a committed update re-armed: %v", err)
	}

	// A batch rolled back while another one committed on its network.
	stale, err := m.BeginHitlessUpdate(2, ops[:8])
	if err != nil {
		t.Fatal(err)
	}
	stale.Abort()
	other, err := m.BeginHitlessUpdate(2, ops[8:])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := stale.Rearm(); !errors.Is(err, ctrl.ErrUpdateStale) {
		t.Errorf("a re-arm over a changed table: %v, want ErrUpdateStale", err)
	}
	if m.Reloading() {
		t.Error("a refused re-arm left the reload guard held")
	}
}

// TestInterruptedBatchRearms: a hitless update stopped before its flip — by
// a scrub that reloads its engine or by the watchdog that finds its updater
// crashed — goes through one interrupt path and re-arms. At the chaos
// smoke's spec every batch commits, and each of its three crashes is one
// rollback and one re-armed batch. A crash the watchdog finds and the same
// crash a scrub finds at the same boundary write the same journal records
// and events, and both hand the update back for re-arming.
func TestInterruptedBatchRearms(t *testing.T) {
	rep := runSpec(t, smokeSystem(t, 3, 1000), 2, chaosSmokeSpec)
	if ch := rep.Chaos; rep.BatchesApplied != 8 || ch.RetriedBatches != 3 || ch.Rollbacks != 3 {
		t.Errorf("%d batches applied, %d retried, %d rollbacks: want 8, 3 and 3", rep.BatchesApplied, ch.RetriedBatches, ch.Rollbacks)
	}

	found := func(byScrub bool) (events []string, st ctrl.JournalStats) {
		s, _ := buildSystem(t, core.VS, 3)
		tel := testTelemetry(0, 1)
		s.SetTelemetry(tel)
		r, _, err := s.newScenRun(faultGen(t, s, 13), mustParse(t, "load=const:0.3,churn=1x64,chaos=crash:1,cycles=4096,seed=5"))
		if err != nil {
			t.Fatal(err)
		}
		if err := (scenChurn{r: r}).Boundary(0, false); err != nil {
			t.Fatal(err)
		}
		e := r.home[0]
		h := e.handle
		for cyc := int64(0); !e.ch.crashed; cyc++ {
			if cyc > 1<<16 {
				t.Fatal("the updater never crashed")
			}
			if _, err := r.RunSlice(cyc, 1, false); err != nil {
				t.Fatal(err)
			}
		}
		b, logged := e.dev.wd.Deadline(e.idx), len(tel.Events.Events())
		if byScrub {
			e.fs.detectVia = ViaSweep
			err = scenFaults{r: r, dev: e.dev}.startScrub(e, b)
		} else {
			err = scenChaos{r: r, dev: e.dev}.Boundary(b, false)
		}
		if err != nil {
			t.Fatal(err)
		}
		if r.retry.h != h || e.handle != nil || r.rep.BatchesAborted != 1 || r.rep.Chaos.RetriedBatches != 1 {
			t.Errorf("scrub %v: the crashed update is not handed back once for re-arming (retry %v, armed %v, %d aborted, %d retried)",
				byScrub, r.retry.h == h, e.handle != nil, r.rep.BatchesAborted, r.rep.Chaos.RetriedBatches)
		}
		for _, ev := range tel.Events.Events()[logged:] {
			if s := fmt.Sprint(ev.Cycle, " ", ev.Kind, ev.Fields); !strings.HasPrefix(ev.Kind, "scrub_") && !strings.Contains(s, "{op scrub}") {
				events = append(events, s)
			}
		}
		return events, e.dev.jrs[e.idx].Stats()
	}
	byWatchdog, wdStats := found(false)
	byScrub, scrubStats := found(true)
	if strings.Join(byWatchdog, "\n") != strings.Join(byScrub, "\n") || wdStats.Rollbacks != 1 || scrubStats.Rollbacks != 1 ||
		wdStats.Aborts != scrubStats.Aborts {
		t.Errorf("the watchdog's rollback logs\n%s\n%+v\nthe scrub's\n%s\n%+v",
			strings.Join(byWatchdog, "\n"), wdStats, strings.Join(byScrub, "\n"), scrubStats)
	}
}
