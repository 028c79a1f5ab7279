package netsim

// Fault stressor on the composed runner: SEUs and an engine kill under a
// 1/K constant load (Assumption 1 — every network offers the same share).

import (
	"fmt"
	"strings"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/faults"
	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
	"vrpower/internal/traffic"
)

func faultGen(t *testing.T, s *System, seed int64) *traffic.Generator {
	t.Helper()
	g, err := traffic.New(traffic.Config{K: s.k, Seed: seed, Addr: traffic.RoutedAddr, Tables: s.tables})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runSpec runs one spec string on s under a fresh routed generator.
func runSpec(t *testing.T, s *System, genSeed int64, spec string) ScenarioReport {
	t.Helper()
	rep, err := s.RunScenario(faultGen(t, s, genSeed), mustParse(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// seuRateFor picks an SEU rate expected to land about n upsets across all
// engines over the traffic window, so tests stay fast regardless of table
// geometry.
func seuRateFor(s *System, n float64, cycles int64) float64 {
	var bits int64
	for _, img := range s.router.Images() {
		bits += img.DataBits()
	}
	return n / (float64(bits) * float64(cycles))
}

// TestVSKillBlackholesOnlyItsOwnVNID: killing one separate-scheme engine
// must drop only that engine's network while every other VNID keeps
// forwarding with zero oracle mismatches — and the scrub must bring the
// killed network back within the run.
func TestVSKillBlackholesOnlyItsOwnVNID(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 3)
	rep := runSpec(t, s, 17, "load=const:0.3333,kill=1@3000,cycles=16384,seed=42")
	if rep.Mismatches != 0 {
		t.Errorf("mismatches = %d, want 0", rep.Mismatches)
	}
	for _, vn := range []int{0, 2} {
		if rep.DroppedPerVN[vn] != 0 {
			t.Errorf("healthy VN %d dropped %d packets", vn, rep.DroppedPerVN[vn])
		}
		if a := rep.Availability(vn); a != 1 {
			t.Errorf("healthy VN %d availability %.4f, want 1", vn, a)
		}
	}
	if rep.DroppedPerVN[1] == 0 {
		t.Error("killed VN 1 dropped no packets")
	}
	if a := rep.Availability(1); a <= 0 || a >= 1 {
		t.Errorf("killed VN 1 availability %.4f, want in (0,1): down then recovered", a)
	}
	if rep.Kill == nil {
		t.Fatal("no kill record")
	}
	if rep.Kill.DetectedAt < rep.Kill.Cycle || rep.Kill.RepairedAt <= rep.Kill.DetectedAt {
		t.Errorf("kill lifecycle out of order: %+v", rep.Kill)
	}
	if !rep.Recovered || !rep.Completed {
		t.Errorf("recovered %v completed %v after the scrub, want both", rep.Recovered, rep.Completed)
	}
	// Delivered packets on the killed VN too: traffic before the kill and
	// after the reload both flowed.
	if rep.DeliveredPerVN[1] == 0 {
		t.Error("killed VN 1 delivered nothing at all")
	}
}

// TestKillLandsAtItsCycle: kill=E@C takes engine E down at cycle C, not at
// the start of the slice that holds C. With every lookup traced, network 1
// forwards arrivals of that slice before C, and no arrival of it is refused
// before C.
func TestKillLandsAtItsCycle(t *testing.T) {
	const at = 3000 // inside the 1024-cycle slice [2048, 3072)
	s, _ := buildSystem(t, core.VS, 3)
	tel := &Telemetry{Sampler: obs.NewTraceSampler(1, 1), Traces: obs.NewTraceRing(1 << 16)}
	s.SetTelemetry(tel)
	defer s.SetTelemetry(nil)
	rep := runSpec(t, s, 17, fmt.Sprintf("load=const:0.3333,kill=1@%d,cycles=16384,seed=42", at))
	if rep.Kill == nil || rep.Kill.Cycle != at {
		t.Fatalf("kill record %+v, want one at cycle %d", rep.Kill, at)
	}
	servedLate, refused := false, false
	for _, ft := range tel.Traces.Snapshot() {
		if ft.VN != 1 {
			continue
		}
		switch {
		case ft.Outcome == "drop-down" && ft.Enter < at:
			t.Fatalf("network 1 refused an arrival at cycle %d, before the kill at %d", ft.Enter, at)
		case ft.Outcome == "drop-down":
			refused = true
		case ft.Outcome == "forward" && ft.Enter >= 2048 && ft.Enter < at:
			servedLate = true
		}
	}
	if !servedLate {
		t.Error("network 1 forwarded nothing between the slice start and the kill")
	}
	if !refused {
		t.Error("network 1 refused no arrival after the kill")
	}
}

// TestVMSEUDisruptsAllNetworks: an upset in the merged engine's shared
// structure takes every network down for the reload window — the paper's
// robustness cost of merging.
func TestVMSEUDisruptsAllNetworks(t *testing.T) {
	s, _ := buildSystem(t, core.VM, 3)
	const cycles = 16 * 1024
	rep := runSpec(t, s, 19, fmt.Sprintf("load=const:0.3,faults=seu:%g,cycles=%d,seed=7", seuRateFor(s, 3, cycles), cycles))
	if len(rep.SEUs) == 0 {
		t.Fatal("no SEUs landed; rate tuning is off")
	}
	if rep.Mismatches != 0 {
		t.Errorf("mismatches = %d, want 0", rep.Mismatches)
	}
	if rep.Scrubs == 0 {
		t.Fatal("no scrub ran despite injected SEUs")
	}
	// The merged engine is shared: unavailability hits all K networks
	// identically.
	for vn := 1; vn < rep.K; vn++ {
		if rep.UnavailableCyclesPerVN[vn] != rep.UnavailableCyclesPerVN[0] {
			t.Errorf("VN %d unavailable %d cycles, VN 0 %d — merged engine must take all networks down together",
				vn, rep.UnavailableCyclesPerVN[vn], rep.UnavailableCyclesPerVN[0])
		}
	}
	if rep.UnavailableCyclesPerVN[0] == 0 {
		t.Error("no unavailability despite a scrub of the shared engine")
	}
	if !rep.Recovered {
		t.Error("run did not recover")
	}
}

// TestAllSEUsDetectedAndScrubbed: every injected upset must end the run
// detected and repaired, in that order and through a named channel —
// access-time parity plus the background sweep leave no silent corruption.
func TestAllSEUsDetectedAndScrubbed(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 2)
	const cycles = 16 * 1024
	rep := runSpec(t, s, 23, fmt.Sprintf("load=const:0.5,faults=seu:%g,cycles=%d,seed=99", seuRateFor(s, 4, cycles), cycles))
	if len(rep.SEUs) == 0 {
		t.Fatal("no SEUs landed; rate tuning is off")
	}
	if got := rep.DetectedSEUs(); got != len(rep.SEUs) {
		t.Errorf("detected %d of %d SEUs", got, len(rep.SEUs))
	}
	if got := rep.RepairedSEUs(); got != len(rep.SEUs) {
		t.Errorf("repaired %d of %d SEUs", got, len(rep.SEUs))
	}
	for i, u := range rep.SEUs {
		if u.DetectedAt < 0 || u.RepairedAt < u.DetectedAt || u.Via == "" {
			t.Errorf("SEU %d lifecycle out of order: %+v", i, u)
		}
	}
	if rep.MTTRCycles() <= 0 {
		t.Errorf("MTTR = %.1f cycles, want > 0", rep.MTTRCycles())
	}
	if rep.Mismatches != 0 {
		t.Errorf("mismatches = %d, want 0", rep.Mismatches)
	}
	if !rep.Recovered {
		t.Error("run did not recover")
	}
}

// TestUpsetInRetiredBankIsRepaired: an upset that lands in an engine's
// serving bank before a commit bubble flips it goes with the retired bank.
// The flip repairs it (by reload, at the flip), so the run still ends with
// every upset repaired and nothing outstanding. Seed 12 lands upsets that
// way on this system.
func TestUpsetInRetiredBankIsRepaired(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 3)
	rep := runSpec(t, s, 17, "load=surge:0.3:0.9,faults=seu:2e-8,churn=6x32,cycles=16384,queue=32,seed=12")
	if got := rep.RepairedSEUs(); got != len(rep.SEUs) {
		t.Errorf("repaired %d of %d SEUs", got, len(rep.SEUs))
	}
	if !rep.Completed || !rep.Recovered {
		t.Errorf("completed %v recovered %v, want both", rep.Completed, rep.Recovered)
	}
	flips := map[int64]bool{}
	for _, b := range rep.Batches {
		flips[b.DoneAt] = true
	}
	atFlip := 0
	for i, u := range rep.SEUs {
		if u.DetectedAt < 0 || u.RepairedAt < u.DetectedAt || u.Via == "" {
			t.Errorf("SEU %d lifecycle out of order: %+v", i, u)
		}
		if u.Via == ViaReload && flips[u.RepairedAt] {
			atFlip++
		}
	}
	if atFlip == 0 {
		t.Error("no upset was repaired at a bank flip: the case this seed reproduces moved")
	}
}

// TestScrubSkipsWhatAFlipRepaired: a detection whose upsets a commit flip
// then retired leaves a live engine with clean words. The scrub it triggers
// commits the update and stops there: every scrub that reloads an engine
// was started for an upset still outstanding (this spec kills nothing).
// Seed 1 detects upsets in a bank that a flip then retires, three times on
// this system.
func TestScrubSkipsWhatAFlipRepaired(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 3)
	tel := testTelemetry(0, 1)
	s.SetTelemetry(tel)
	rep := runSpec(t, s, 17, "load=surge:0.3:0.9,faults=seu:2e-8,churn=8x24,cycles=16384,queue=32,seed=1")
	if !rep.Completed || !rep.Recovered || rep.RepairedSEUs() != len(rep.SEUs) {
		t.Fatalf("completed %v recovered %v, %d of %d SEUs repaired", rep.Completed, rep.Recovered, rep.RepairedSEUs(), len(rep.SEUs))
	}
	reloads := 0
	for _, ev := range tel.Events.Events() {
		f := map[string]any{}
		for _, kv := range ev.Fields {
			f[kv.Key] = kv.Val
		}
		switch ev.Kind {
		case "scrub_start":
			if f["outstanding"] == 0 {
				t.Errorf("cycle %d: engine %v starts a scrub with nothing outstanding", ev.Cycle, f["engine"])
			}
		case "scrub_reload":
			reloads++
		}
	}
	if reloads == 0 || reloads != rep.Scrubs {
		t.Errorf("%d scrub reloads logged, %d in the report: want the same nonzero count", reloads, rep.Scrubs)
	}
}

// TestKillLastEngineDegradesInsteadOfPanicking: killing the only engine of a
// K=1 system while every reload of it stalls must leave the run degraded —
// blackholed traffic, Recovered=false — never panicking or spinning. The
// stall deck outlasts the watchdog's retry budget, so the ladder escalates
// and declares the engine dead.
func TestKillLastEngineDegradesInsteadOfPanicking(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 1)
	rep := runSpec(t, s, 37, "load=const:0.5,kill=0@2000,chaos=stall:8,cycles=8192,seed=3")
	if rep.Chaos.Escalations == 0 {
		t.Error("watchdog never spent its retry budget")
	}
	if rep.Recovered || rep.Completed {
		t.Errorf("recovered %v completed %v with the only engine dead", rep.Recovered, rep.Completed)
	}
	if rep.DeliveredPerVN[0] == 0 {
		t.Error("no traffic delivered before the kill")
	}
	if rep.DroppedPerVN[0] == 0 {
		t.Error("dead engine dropped nothing")
	}
	if a := rep.Availability(0); a <= 0 || a >= 1 {
		t.Errorf("availability %.4f, want in (0,1): up before the kill, down after", a)
	}
}

// TestFaultRunDeterministicAcrossWorkers: the full report of a faults + kill
// run — schedules, stamps, per-VN counters — must be identical at -j1 and
// -j8 for the same seeds, on both schemes.
func TestFaultRunDeterministicAcrossWorkers(t *testing.T) {
	for _, scheme := range []core.Scheme{core.VS, core.VM} {
		s, _ := buildSystem(t, scheme, 3)
		const cycles = 8 * 1024
		spec := mustParse(t, fmt.Sprintf("load=const:0.3333,faults=seu:%g,kill=0@2000,cycles=%d,seed=5", seuRateFor(s, 3, cycles), cycles))
		rep1, _ := runScenario(t, scheme, 3, spec, 1)
		rep8, _ := runScenario(t, scheme, 3, spec, 8)
		if dumpJSON(t, rep1) != dumpJSON(t, rep8) {
			t.Errorf("%s: fault report differs between -j1 and -j8", scheme)
		}
	}
}

// TestFaultRunCleanBaseline: with no stressor the run must behave exactly
// like plain forwarding — nothing dropped, nothing scrubbed, no drain.
func TestFaultRunCleanBaseline(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 2)
	rep := runSpec(t, s, 31, "load=const:0.5,cycles=4096")
	if len(rep.SEUs) != 0 || rep.Kill != nil || rep.Scrubs != 0 {
		t.Errorf("clean run injected faults: %+v", rep)
	}
	for vn := 0; vn < rep.K; vn++ {
		if rep.DroppedPerVN[vn] != 0 {
			t.Errorf("clean run dropped %d packets on VN %d", rep.DroppedPerVN[vn], vn)
		}
		if rep.OfferedPerVN[vn] != rep.DeliveredPerVN[vn] {
			t.Errorf("clean run VN %d: offered %d, delivered %d", vn, rep.OfferedPerVN[vn], rep.DeliveredPerVN[vn])
		}
	}
	if rep.Mismatches != 0 || rep.FaultedLookups != 0 {
		t.Errorf("clean run saw faults: %+v", rep)
	}
	if !rep.Recovered || !rep.Completed || rep.DrainCycles > rep.SliceCycles {
		t.Errorf("clean run not trivially finished: recovered=%v completed=%v drain=%d",
			rep.Recovered, rep.Completed, rep.DrainCycles)
	}
}

// A served image is a clone of its pristine source and shares every stage
// until something writes it, so the only stage copies (pipeline.image_copies)
// a run makes are the ones its upsets force: one the first time an upset
// strikes a stage of a served clone, none when a later upset strikes the
// same stage of the same clone (the pristine image is never written), at
// least one when any landed, and none in a run without faults — churn
// compiles new images, it does not write served ones. Upsets an image took
// are repaired together when it is replaced, so there are no more copies
// than distinct (engine, stage, repair cycle) triples among the upsets. The
// first run is the scenario smoke's spec at its CLI geometry.
func TestImagesCopiedOnlyWhereWritten(t *testing.T) {
	smokeSys := smokeSystem(t, 3, 1000)
	small, _ := buildSystem(t, core.VS, 3)
	for _, tc := range []struct {
		name   string
		s      *System
		seed   int64
		spec   string
		faults bool
	}{
		{"faults+churn", smokeSys, 2, scenarioSmokeSpec, true},
		{"churn", small, 2, "load=const:0.5,churn=8x24,seed=11", false},
		{"load", small, 2, "load=const:0.5,cycles=16384", false},
	} {
		snap := obs.TakeSnapshot()
		rep := runSpec(t, tc.s, tc.seed, tc.spec)
		if rep.Mismatches != 0 {
			t.Fatalf("%s: %d mismatches", tc.name, rep.Mismatches)
		}
		copies, cloned := snap.CounterDelta("pipeline.image_copies"), snap.CounterDelta("pipeline.images_cloned")
		seus := snap.CounterDelta("faults.seu_injected")
		struck := map[[3]int64]bool{}
		for _, u := range rep.SEUs {
			struck[[3]int64{int64(u.Engine), int64(u.Stage), u.RepairedAt}] = true
		}
		t.Logf("%s: %d stage copies, %d clones, %d upsets in %d (engine, stage, repair) triples, %d batches",
			tc.name, copies, cloned, seus, len(struck), rep.BatchesApplied)
		if cloned == 0 || strings.Contains(tc.spec, "churn=") && rep.BatchesApplied == 0 {
			t.Fatalf("%s: the run served no clone or applied no batch", tc.name)
		}
		switch {
		case tc.faults && (seus == 0 || copies < 1 || copies > int64(len(struck))):
			t.Errorf("%s: %d stage copies for %d upsets over %d clones, want 1..%d", tc.name, copies, seus, cloned, len(struck))
		case !tc.faults && copies != 0:
			t.Errorf("%s: %d image copies over %d clones in a run that writes no served image", tc.name, copies, cloned)
		}
	}
}

// TestScrubRebuildIsPristineClone: without churn a scrub reloads a clone of
// the device router's pristine image — compiling nothing — and what it gets
// is the image a fresh compile of the engine's tables makes, for VS and VM;
// an upset in the reloaded copy reaches neither the router's image nor the
// next scrub's.
func TestScrubRebuildIsPristineClone(t *testing.T) {
	for _, sc := range []core.Scheme{core.VS, core.VM} {
		s, tables := buildSystem(t, sc, 3)
		r, _, err := s.newScenRun(faultGen(t, s, 2), mustParse(t, "load=const:0.5,faults=seu:1e-9,cycles=4096"))
		if err != nil {
			t.Fatal(err)
		}
		f := scenFaults{r: r, dev: r.devs[0]}
		for _, e := range f.dev.engines {
			before := obs.TakeSnapshot()
			img, err := f.rebuild(e)()
			if err != nil {
				t.Fatal(err)
			}
			if n := before.CounterDelta("pipeline.images_compiled"); n != 0 {
				t.Errorf("%v engine %d: the rebuild compiled %d images", sc, e.idx, n)
			}
			fresh, err := core.CompileTable(s.router.Config(), tables[e.served[0]])
			if sc == core.VM {
				var rt *core.Router
				rt, err = core.Build(s.router.Config(), tables)
				fresh = rt.Images()[0]
			}
			if err != nil {
				t.Fatal(err)
			}
			if !img.Equal(fresh) {
				t.Errorf("%v engine %d: the rebuilt image is not a fresh compile's", sc, e.idx)
			}
			img.FlipBit(0, 0, 1)
			again, _ := f.rebuild(e)()
			if !again.Equal(fresh) || !s.router.Images()[e.idx].Equal(fresh) {
				t.Errorf("%v engine %d: an upset in a rebuilt image reached the router's or the next rebuild", sc, e.idx)
			}
		}
	}
}

// TestUpsetLandsInLiveWords: an upset lands at its own cycle in the words
// the engine holds then, so a bank flip or a reload repairs only the upsets
// that hit the words it replaces. At the scenario smoke's spec, SEUs 4 and 7
// strike engines 1 and 2 after their batches flipped (at 8753 and 9752) in
// the same slices: they hit the new banks, and the sweep or an access finds
// them and a scrub repairs them. Every repair follows its upset.
func TestUpsetLandsInLiveWords(t *testing.T) {
	s := smokeSystem(t, 3, 1000)
	tel := testTelemetry(0, 1)
	s.SetTelemetry(tel)
	rep := runSpec(t, s, 2, scenarioSmokeSpec)
	scrubbed := map[int64]bool{}
	for _, ev := range tel.Events.Events() {
		if ev.Kind == "scrub_done" {
			scrubbed[ev.Cycle] = true
		}
	}
	for _, u := range rep.SEUs {
		if u.RepairedAt <= u.Cycle {
			t.Errorf("SEU %d of cycle %d repaired at %d", u.Seq, u.Cycle, u.RepairedAt)
		}
		if (u.Seq == 4 || u.Seq == 7) && (u.Via != ViaSweep && u.Via != ViaAccess || !scrubbed[u.RepairedAt]) {
			t.Errorf("SEU %d of cycle %d detected via %q at %d, repaired at %d: want the sweep or an access, then a scrub",
				u.Seq, u.Cycle, u.Via, u.DetectedAt, u.RepairedAt)
		}
	}
	liveWordsByHand(t)
}

// liveWordsByHand strikes one engine the cycle before its batch's flip and
// at the flip's own cycle, both in the flip's slice: the first upset hits
// the bank the flip retires and is repaired by it, the second hits the new
// bank and stays outstanding there once the batch commits.
func liveWordsByHand(t *testing.T) {
	t.Helper()
	s, _ := buildSystem(t, core.VS, 3)
	spec := mustParse(t, "load=const:0.3,churn=1x64,cycles=4096,seed=5")
	run := func(strike func(e *scenEng) []faults.Upset) (*scenRun, *scenEng, []faults.Upset) {
		r, _, err := s.newScenRun(faultGen(t, s, 13), spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := (scenChurn{r: r}).Boundary(0, false); err != nil {
			t.Fatal(err)
		}
		e := r.home[0]
		var us []faults.Upset
		if strike != nil {
			us = strike(e)
			for _, u := range us {
				r.due = append(r.due, dueFault{e: e, at: u.Cycle, u: u})
			}
		}
		if _, err := r.RunSlice(0, 2048, true); err != nil {
			t.Fatal(err)
		}
		return r, e, us
	}
	_, dry, _ := run(nil)
	flip := dry.doneAt
	if flip < 1 {
		t.Fatal("the batch did not flip inside its first slice")
	}
	r, e, us := run(func(e *scenEng) []faults.Upset {
		upset := func(seq int, img *pipeline.Image, cyc int64) faults.Upset {
			stage, index, bit, ok := img.Locate(img.DataBits() / 2)
			if !ok {
				t.Fatal("no data bit to strike")
			}
			return faults.Upset{Seq: seq, Engine: e.idx, Cycle: cyc, Stage: stage, Index: index, Bit: bit}
		}
		return []faults.Upset{upset(0, e.fs.img, flip-1), upset(1, e.handle.Image(), flip)}
	})
	old, shadow := e.fs.img, e.handle.Image()
	if e.doneAt != flip {
		t.Fatalf("the struck run flipped at %d, the dry one at %d", e.doneAt, flip)
	}
	if err := (scenChurn{r: r}).Boundary(2048, false); err != nil {
		t.Fatal(err)
	}
	if e.fs.img != shadow {
		t.Fatal("the batch did not commit at the slice boundary")
	}
	before, after := r.rep.SEUs[0], r.rep.SEUs[1]
	if before.RepairedAt != flip || before.Via != ViaReload || !old.ParityStale(us[0].Stage, us[0].Index) {
		t.Errorf("the upset before the flip: %+v, want it in the retired bank, repaired by the flip at %d", before, flip)
	}
	if after.RepairedAt != -1 || len(e.fs.outstanding) != 1 || !shadow.ParityStale(us[1].Stage, us[1].Index) {
		t.Errorf("the upset at the flip: %+v with %d outstanding, want it in the new bank and outstanding", after, len(e.fs.outstanding))
	}
}
