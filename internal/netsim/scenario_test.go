package netsim

// Composed scenario runner tests: a single RunScenario drives load shaping,
// fault injection, update churn and a power cap together, stays
// byte-identical across worker counts, and fails clearly on specs that
// cannot run on the system.

import (
	"errors"
	"strings"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/ctrl"
	"vrpower/internal/scenario"
	"vrpower/internal/sweep"
)

func mustParse(t *testing.T, spec string) scenario.Spec {
	t.Helper()
	s, err := scenario.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runScenario runs one spec at the given worker count with a fresh system
// and telemetry, returning the report and the three telemetry dumps.
func runScenario(t *testing.T, sch core.Scheme, k int, spec scenario.Spec, workers int) (ScenarioReport, [3]string) {
	t.Helper()
	sweep.SetWorkers(workers)
	defer sweep.SetWorkers(0)
	s, _ := buildSystem(t, sch, k)
	tel := testTelemetry(0.05, 99)
	s.SetTelemetry(tel)
	rep, err := s.RunScenario(faultGen(t, s, 17), spec)
	if err != nil {
		t.Fatal(err)
	}
	tr, se, ev := dumps(t, tel)
	return rep, [3]string{tr, se, ev}
}

func TestScenarioComposedAllStressors(t *testing.T) {
	// The ISSUE's flagship invocation, scaled down for test time: surge
	// load, SEU faults, an engine kill, churn and a power cap in ONE run.
	spec := mustParse(t, "load=surge:0.3:0.9,faults=seu:2e-9,kill=1@3000,churn=6x32,power-cap=38,cycles=16384,queue=32,seed=11")
	rep, _ := runScenario(t, core.VS, 3, spec, 1)

	if len(rep.Stressors) != 4 {
		t.Fatalf("stressors %v, want all four", rep.Stressors)
	}
	if rep.Kill == nil || rep.Kill.Engine != 1 {
		t.Fatalf("kill record %+v", rep.Kill)
	}
	if rep.Kill.DetectedAt < 0 {
		t.Fatal("kill never detected")
	}
	if rep.Governor == nil {
		t.Fatal("no governor report despite power-cap")
	}
	if rep.BatchesApplied+rep.BatchesAborted != 6 {
		t.Fatalf("batches applied %d + aborted %d, want 6 total", rep.BatchesApplied, rep.BatchesAborted)
	}
	if rep.BatchesApplied == 0 {
		t.Fatal("no churn batch committed")
	}
	if rep.Scrubs == 0 {
		t.Fatal("kill never scrubbed")
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d oracle mismatches", rep.Mismatches)
	}
	// The killed engine's network must show the availability hole. (The
	// other networks may dip too — the SEU stressor hits every engine.)
	if rep.Availability(1) >= 1 {
		t.Fatal("killed VN shows full availability")
	}
	var offered, delivered, dropped int64
	for vn := 0; vn < rep.K; vn++ {
		offered += rep.OfferedPerVN[vn]
		delivered += rep.DeliveredPerVN[vn]
		dropped += rep.DroppedPerVN[vn]
	}
	if offered == 0 || delivered == 0 {
		t.Fatalf("offered %d delivered %d", offered, delivered)
	}
	if delivered+dropped > offered {
		t.Fatalf("delivered %d + dropped %d > offered %d", delivered, dropped, offered)
	}
}

func TestScenarioMergedEngineKillTakesAllNetworksDown(t *testing.T) {
	spec := mustParse(t, "load=const:0.3,kill=0@2048,cycles=8192,seed=5")
	rep, _ := runScenario(t, core.VM, 3, spec, 1)
	if rep.Kill == nil {
		t.Fatal("no kill record")
	}
	// The merged scheme's one engine serves every network: the kill must
	// blackhole all K, the paper's degradation asymmetry.
	for vn := 0; vn < rep.K; vn++ {
		if rep.UnavailableCyclesPerVN[vn] == 0 {
			t.Fatalf("VN %d shows no outage under a merged-engine kill", vn)
		}
	}
	if !rep.Recovered {
		t.Fatal("engine not recovered by run end")
	}

	// The same kill on the separate scheme takes down only its own
	// network: the paper's isolation asymmetry, end to end.
	vs, _ := runScenario(t, core.VS, 3, mustParse(t, "load=const:0.3,kill=0@2048,cycles=8192,seed=5"), 1)
	if vs.Availability(0) >= 1 {
		t.Fatal("killed VN shows full availability on the separate scheme")
	}
	if vs.Availability(1) != 1 || vs.Availability(2) != 1 {
		t.Fatalf("separate scheme leaked the outage: %g %g", vs.Availability(1), vs.Availability(2))
	}
}

func TestScenarioChurnAfterRepairReloadsChurnedRoutes(t *testing.T) {
	// Churn plus a kill on the churned engine: the scrub rebuild must pick
	// up committed churn (no oracle mismatches after the reload).
	spec := mustParse(t, "load=const:0.5,kill=1@6000,churn=8x32:vn=1,cycles=24576,seed=3")
	rep, _ := runScenario(t, core.VS, 3, spec, 1)
	if rep.BatchesApplied == 0 {
		t.Fatal("no batch committed")
	}
	if rep.Scrubs == 0 {
		t.Fatal("no scrub ran")
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d mismatches: scrub reload lost churned routes", rep.Mismatches)
	}
	if !rep.Recovered {
		t.Fatal("engine not recovered")
	}
	// The reload replaced engine 1 mid-run: the bubbles it had taken before
	// must still be in the readout (an aborted batch's only add to them).
	if rep.BubbleCycles < rep.PlannedBubbles || rep.EngineCycles <= rep.TrafficCycles {
		t.Errorf("%d bubble cycles of %d planned over %d engine cycles: the replaced engine's counters were lost",
			rep.BubbleCycles, rep.PlannedBubbles, rep.EngineCycles)
	}
}

func TestScenarioDeterministicAcrossWorkers(t *testing.T) {
	specs := []string{
		"load=surge:0.3:0.9,faults=seu:2e-9,kill=1@3000,churn=6x32,power-cap=38,cycles=16384,queue=32,seed=11",
		"load=burst:0.8:512:0.5,churn=4x64,cycles=8192",
		"load=ramp:0:1,faults=seu:5e-9,power-cap-device=14,cycles=8192",
	}
	for _, raw := range specs {
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
	}
}

func TestScenarioUngovernedPlainLoad(t *testing.T) {
	spec := mustParse(t, "load=const:0.4,cycles=4096")
	rep, _ := runScenario(t, core.VS, 2, spec, 1)
	if rep.Governor != nil {
		t.Fatal("governor report on an uncapped run")
	}
	if len(rep.SEUs) != 0 || rep.Kill != nil || len(rep.Batches) != 0 {
		t.Fatal("stressor residue on a load-only run")
	}
	if !rep.Completed {
		t.Fatal("load-only run did not complete")
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d mismatches", rep.Mismatches)
	}
}

func TestScenarioInvalidOnSystem(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 2)
	cases := []struct {
		spec string
		want string
	}{
		{"churn=4x32:vn=5", "churn target network 5 outside [0,2)"},
		{"kill=7@100", "kill engine 7 with 2 engines"},
	}
	for _, c := range cases {
		spec := mustParse(t, c.spec)
		_, err := s.RunScenario(faultGen(t, s, 1), spec)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("RunScenario(%q) = %v, want substring %q", c.spec, err, c.want)
		}
	}
	// A fleet no placement satisfies fails at set-up, with the capacity error.
	vs3, _ := buildSystem(t, core.VS, 3)
	if _, err := vs3.RunScenario(faultGen(t, vs3, 1), mustParse(t, "load=const:0.8,fleet=1,power-cap-device=0.5")); !errors.Is(err, ctrl.ErrNoCapacity) {
		t.Errorf("RunScenario over an unplaceable fleet = %v, want ctrl.ErrNoCapacity", err)
	}
	// Churn on the non-virtualized scheme has no runtime update path.
	nv, _ := buildSystem(t, core.NV, 2)
	if _, err := nv.RunScenario(faultGen(t, nv, 1), mustParse(t, "churn=2x16")); err == nil {
		t.Error("churn accepted on the non-virtualized scheme")
	}
}
