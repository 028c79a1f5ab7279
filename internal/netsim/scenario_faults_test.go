package netsim

// Fault stressor on the composed runner: SEUs and an engine kill under a
// 1/K constant load (Assumption 1 — every network offers the same share).

import (
	"fmt"
	"strings"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/obs"
	"vrpower/internal/rib"
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
	// Every scrub is one attempt; the two fields stay in the report schema
	// until ROADMAP 2(e)'s bump.
	if rep.ScrubAttempts != rep.Scrubs || rep.ScrubsExhausted != 0 {
		t.Errorf("scrubs %d, attempts %d, exhausted %d: want one attempt each, none exhausted",
			rep.Scrubs, rep.ScrubAttempts, rep.ScrubsExhausted)
	}
	if rep.Mismatches != 0 {
		t.Errorf("mismatches = %d, want 0", rep.Mismatches)
	}
	if !rep.Recovered {
		t.Error("run did not recover")
	}
}

// TestUpsetInRetiredBankIsRepaired: an upset applied to an engine in the
// slice whose commit bubble flips its banks goes with the retired bank. The
// flip repairs it (by reload, at the commit), so the run still ends with
// every upset repaired and nothing outstanding. Seed 12 lands two upsets
// that way on this system.
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
// are repaired together when it is replaced, each at that cycle or, drawn
// later in the slice, the cycle after its own, so there are no more copies
// than distinct (engine, stage, repair cycle) triples among the upsets. The
// first run is the scenario smoke's spec at its CLI geometry (lookupsim
// -scheme VS -k 3: 1000 prefixes, seed 1, traffic seed 2).
func TestImagesCopiedOnlyWhereWritten(t *testing.T) {
	smoke, err := rib.GenerateVirtualSet(3, 1000, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Build(core.Config{Scheme: core.VS, K: 3, ClockGating: true}, smoke.Tables)
	if err != nil {
		t.Fatal(err)
	}
	smokeSys, err := New(r, smoke.Tables)
	if err != nil {
		t.Fatal(err)
	}
	small, _ := buildSystem(t, core.VS, 3)
	for _, tc := range []struct {
		name   string
		s      *System
		seed   int64
		spec   string
		faults bool
	}{
		{"faults+churn", smokeSys, 2, "load=surge:0.3:0.9,faults=seu:2e-9,kill=1@3000,churn=6x32,power-cap=38,cycles=16384,queue=32,seed=11", true},
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
