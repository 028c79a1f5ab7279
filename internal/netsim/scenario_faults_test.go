package netsim

// Fault stressor on the composed runner: SEUs and an engine kill under a
// 1/K constant load (Assumption 1 — every network offers the same share).

import (
	"fmt"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/obs"
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
	// until ROADMAP 5(f)'s bump.
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
