package netsim

// The run identities: what every composed run must satisfy whatever its
// stressors, checked over the equivalence goldens' runs and the Makefile's
// smoke specs at -j1 and -j8 (ROADMAP item 8's first identities).

import (
	"encoding/json"
	"strings"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/rib"
	"vrpower/internal/sweep"
)

// The Makefile's smoke specs, run at their CLI geometry by smokeSystem.
const (
	scenarioSmokeSpec = "load=surge:0.3:0.9,faults=seu:2e-9,kill=1@3000,churn=6x32,power-cap=38,cycles=16384,queue=32,seed=11"
	chaosSmokeSpec    = "load=surge:0.3:0.9,faults=seu:2e-8,churn=8x24,power-cap=38,chaos=crash:3+stall:1+torn:1+falsepos:1,cycles=16384,queue=32,seed=11"
)

// smokeSystem is the system lookupsim -scheme VS -k k -prefixes prefixes
// builds: table seed 1 (lookupsim's default), traffic seed 2.
func smokeSystem(t *testing.T, k, prefixes int) *System {
	t.Helper()
	set, err := rib.GenerateVirtualSet(k, prefixes, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Build(core.Config{Scheme: core.VS, K: k, ClockGating: true}, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(r, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRunIdentities checks, at -j1 and -j8, over the equivalence goldens'
// scenario runs and the Makefile's smoke specs at their CLI geometry (the
// seeds of ROADMAP 2(a), 2(b) and 2(f) among them), that every run
// completes and that:
//   - per network, offered == delivered + dropped;
//   - every fresh churn batch ends applied, or given up on an engine the
//     watchdog declared dead;
//   - every SEU is detected after its cycle and repaired no earlier than
//     detected (Cycle < DetectedAt <= RepairedAt), and all are repaired in
//     a run that recovered;
//   - the report is the same at both worker counts.
func TestRunIdentities(t *testing.T) {
	defer sweep.SetWorkers(0)
	type run = func(t *testing.T, tel *Telemetry) ScenarioReport
	type namedRun struct {
		name string
		run  run
	}
	smoke := func(k, prefixes int, spec string) run {
		return func(t *testing.T, tel *Telemetry) ScenarioReport {
			s := smokeSystem(t, k, prefixes)
			s.SetTelemetry(tel)
			return runSpec(t, s, 2, spec)
		}
	}
	runs := []namedRun{
		{"smoke/governor", smoke(3, 1000, "load=const:0.9,cycles=32768,power-cap=4.6,power-cap-lift=16384")},
		{"smoke/governor-hold", smoke(3, 1000, "load=const:0.9,cycles=32768,power-cap=4.65")},
		{"smoke/scenario", smoke(3, 1000, scenarioSmokeSpec)},
		{"smoke/chaos", smoke(3, 1000, chaosSmokeSpec)},
		{"smoke/fleet", smoke(8, 1000, "load=const:0.4,fleet=2:spare=1,chaos=devcrash:2+flaky:2+brownout:1,cycles=65536,queue=32,seed=2")},
		{"smoke/fleet-one", smoke(4, 1000, "load=surge:0.3:0.95,cycles=8192,queue=8,seed=3")},
		{"smoke/fleet-fleet1", smoke(4, 1000, "load=surge:0.3:0.95,cycles=8192,queue=8,seed=3,fleet=1")},
		{"smoke/churn", smoke(1, 100000, "load=const:0.5,churn=8x24,seed=11")},
		{"retired-bank", func(t *testing.T, tel *Telemetry) ScenarioReport {
			s, _ := buildSystem(t, core.VS, 3)
			s.SetTelemetry(tel)
			return runSpec(t, s, 17, "load=surge:0.3:0.9,faults=seu:2e-8,churn=6x32,cycles=16384,queue=32,seed=12")
		}},
	}
	for _, c := range equivalenceCases() {
		if strings.HasPrefix(c.name, "scenario_") {
			runs = append(runs, namedRun{"equiv/" + c.name, func(t *testing.T, tel *Telemetry) ScenarioReport {
				var rep ScenarioReport
				if err := json.Unmarshal([]byte(c.run(t, tel)), &rep); err != nil {
					t.Fatal(err)
				}
				return rep
			}})
		}
	}
	for _, c := range runs {
		t.Run(c.name, func(t *testing.T) {
			var j1 string
			for _, workers := range []int{1, 8} {
				sweep.SetWorkers(workers)
				tel := testTelemetry(0, 1)
				rep := c.run(t, tel)
				checkIdentities(t, rep, tel)
				if got := dumpJSON(t, rep); workers == 1 {
					j1 = got
				} else if got != j1 {
					t.Error("the report differs between -j1 and -j8")
				}
			}
		})
	}
}

// checkIdentities checks one finished run's identities (TestRunIdentities).
func checkIdentities(t *testing.T, rep ScenarioReport, tel *Telemetry) {
	t.Helper()
	if !rep.Completed || rep.Mismatches != 0 {
		t.Errorf("completed %v with %d mismatches", rep.Completed, rep.Mismatches)
	}
	for vn, off := range rep.OfferedPerVN {
		if del, drop := rep.DeliveredPerVN[vn], rep.DroppedPerVN[vn]; off != del+drop {
			t.Errorf("network %d: offered %d, delivered %d + dropped %d", vn, off, del, drop)
		}
	}
	if spec := mustParse(t, rep.Spec); spec.Churn != nil {
		dead := 0
		for _, ev := range tel.Events.Events() {
			if ev.Kind == "engine_degraded" {
				dead++
			}
		}
		if rep.BatchesApplied != len(rep.Batches) || rep.BatchesApplied > spec.Churn.Batches ||
			dead == 0 && rep.BatchesApplied != spec.Churn.Batches {
			t.Errorf("%d of %d batches applied (%d listed) with %d engines dead", rep.BatchesApplied, spec.Churn.Batches, len(rep.Batches), dead)
		}
	}
	for _, u := range rep.SEUs {
		if !(u.Cycle < u.DetectedAt && u.DetectedAt <= u.RepairedAt) && (rep.Recovered || u.DetectedAt >= 0) {
			t.Errorf("SEU %d of cycle %d detected at %d, repaired at %d", u.Seq, u.Cycle, u.DetectedAt, u.RepairedAt)
		}
	}
}
