package netsim

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/fpga"
	"vrpower/internal/power"
)

// modelWatts is the paper's power model for the system's design with every
// engine at utilization u.
func modelWatts(t *testing.T, s *System, u float64) float64 {
	t.Helper()
	d := s.router.Design()
	d.Engines = append([]power.EngineDesign(nil), d.Engines...)
	for i := range d.Engines {
		d.Engines[i].Utilization = u
	}
	br, err := power.Estimate(d)
	if err != nil {
		t.Fatal(err)
	}
	return br.Total()
}

// capBelowSteady picks a cap between the system's gated-idle power floor and
// its steady-state power at per-engine utilization u, both from the model:
// floor + frac of the dynamic span. The governor compares the cap with the
// metered watts, which on these small tables run below the model's (VS K=3
// at load 0.9: 4.87 W metered, 4.99 W modelled), so a frac that must reach a
// given rung is picked against them.
func capBelowSteady(t *testing.T, s *System, u, frac float64) float64 {
	floor := modelWatts(t, s, 0)
	return floor + (modelWatts(t, s, u)-floor)*frac
}

// capped appends a fleet-wide cap of w Watts to spec, and a lift at cycle
// lift when lift > 0. The shortest 'g' form parses back to the same float.
func capped(spec string, w float64, lift int64) string {
	spec += ",power-cap=" + strconv.FormatFloat(w, 'g', -1, 64)
	if lift > 0 {
		spec += ",power-cap-lift=" + strconv.FormatInt(lift, 10)
	}
	return spec
}

// TestGovernedLoadTestConvergesAndRecovers is the governor's end-to-end
// demonstration on the separate scheme: a cap below steady-state power must
// force the ladder down (frequency first, then shedding the lowest-priority
// VNIDs), converge under the cap within a ladder-bounded number of violating
// slices, hold there without oscillating, and — once the cap lifts mid-run —
// walk all the way back to full speed.
func TestGovernedLoadTestConvergesAndRecovers(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 3)
	// Between the metered watts of "freq x0.45" and "quiesce vn>=2".
	cap := capBelowSteady(t, s, 0.9, 0.14)
	rep := runSpec(t, s, 31, capped("load=const:0.9,cycles=65536", cap, 32*1024))
	g := rep.Governor
	if g == nil {
		t.Fatal("governed run returned no governor report")
	}
	if g.Escalations == 0 || g.ViolationSlices == 0 {
		t.Fatalf("cap %.2f W below steady power caused no throttling: %+v", cap, g)
	}
	if g.ViolationSlices > int64(len(g.Rungs))+2 {
		t.Errorf("%d violation slices for a %d-rung ladder: convergence not bounded",
			g.ViolationSlices, len(g.Rungs))
	}
	if g.ConvergedAt < 0 {
		t.Error("estimated power never converged under the cap")
	}
	if g.Oscillations != 0 {
		t.Errorf("%d oscillations", g.Oscillations)
	}
	if g.FinalRung != 0 {
		t.Errorf("did not recover to full speed after the cap lift: rung %d (%s)",
			g.FinalRung, g.Rungs[g.FinalRung])
	}
	if g.Deescalations == 0 {
		t.Error("no de-escalations across the cap lift")
	}
	if !rep.Completed {
		t.Error("queues not drained after the cap lift")
	}
	// Ladder-order degradation: the separate scheme sheds the highest VNID
	// first, so VN 2 bears the throttling and VN 0 none; nothing reached
	// brownout for this cap.
	if g.ThrottledPerVN[2] == 0 {
		t.Errorf("lowest-priority VN 2 never throttled: %v", g.ThrottledPerVN)
	}
	if g.ThrottledPerVN[0] != 0 {
		t.Errorf("highest-priority VN 0 throttled %d arrivals before brownout: %v",
			g.ThrottledPerVN[0], g.ThrottledPerVN)
	}
	for vn, n := range g.BrownoutPerVN {
		if n != 0 {
			t.Errorf("VN %d saw %d brownout drops below the brownout rung", vn, n)
		}
	}
	if rep.DeliveredPerVN[0] <= rep.DeliveredPerVN[2] {
		t.Errorf("degradation not in priority order: delivered %v", rep.DeliveredPerVN)
	}
	// Time accounting covers the whole run.
	var at int64
	for _, c := range g.TimeAtRung {
		at += c
	}
	if at != g.Slices*rep.SliceCycles {
		t.Errorf("TimeAtRung sums to %d cycles over %d slices", at, g.Slices)
	}
}

// TestGovernedLoadTestVMThrottlesAllNetworks pins the paper's isolation
// asymmetry: the merged scheme cannot shed a single VNID, so its ladder goes
// through admission control on the shared pipeline and every network
// degrades together.
func TestGovernedLoadTestVMThrottlesAllNetworks(t *testing.T) {
	s, _ := buildSystem(t, core.VM, 3)
	// Below the metered watts of "freq x0.45" and "admit x0.75".
	cap := capBelowSteady(t, s, 1, 0.12)
	// Shallow queues: the backlog built while the ladder walks down drains
	// within the first admission slice instead of masquerading as demand.
	g := runSpec(t, s, 37, capped("load=const:0.3,cycles=49152,queue=16", cap, 0)).Governor
	if g == nil {
		t.Fatal("governed run returned no governor report")
	}
	if g.ConvergedAt < 0 {
		t.Fatalf("never converged under cap %.2f W: %+v", cap, g)
	}
	if g.Oscillations != 0 {
		t.Errorf("%d oscillations", g.Oscillations)
	}
	if !strings.HasPrefix(g.Rungs[g.FinalRung], "admit") {
		t.Errorf("merged scheme converged at %q, expected an admission rung (ladder %v)",
			g.Rungs[g.FinalRung], g.Rungs)
	}
	for vn, n := range g.ThrottledPerVN {
		if n == 0 {
			t.Errorf("merged-scheme throttling skipped VN %d: %v — admission control cannot discriminate",
				vn, g.ThrottledPerVN)
		}
	}
}

// TestGovernedFaultRunRidesOutScrubSpike: a governed fault run treats scrub
// reloads as transient power spikes (config-port power pinned to full) and
// still recovers the injected faults; governed drops are charged to the
// per-VN report counters deterministically.
func TestGovernedFaultRunRidesOutScrubSpike(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 3)
	const cycles = 32 * 1024
	rep := runSpec(t, s, 43, capped(fmt.Sprintf("load=const:0.3333,faults=seu:%g,cycles=%d,seed=7", seuRateFor(s, 3, cycles), cycles),
		capBelowSteady(t, s, 1.0/3, 0.6), 0))
	if rep.Governor == nil {
		t.Fatal("governed run returned no governor report")
	}
	if rep.Governor.Oscillations != 0 {
		t.Errorf("%d oscillations", rep.Governor.Oscillations)
	}
	if len(rep.SEUs) == 0 || rep.Scrubs == 0 {
		t.Fatalf("%d SEUs, %d scrubs: no reload spike to ride out", len(rep.SEUs), rep.Scrubs)
	}
	if rep.Mismatches != 0 {
		t.Errorf("mismatches = %d, want 0", rep.Mismatches)
	}
	if !rep.Recovered {
		t.Errorf("governed fault run did not recover: %+v", rep)
	}
	if rep.Governor.Escalations > 0 {
		var throttled, dropped int64
		for vn := range rep.DroppedPerVN {
			throttled += rep.Governor.ThrottledPerVN[vn]
			dropped += rep.DroppedPerVN[vn]
		}
		if throttled > dropped {
			t.Errorf("governor charged %d throttled arrivals but the report only dropped %d",
				throttled, dropped)
		}
	}
}

// TestGovernedRunsDeterministicAcrossWorkers: a governed run of each
// stressor must produce byte-identical telemetry dumps and reports at -j1
// and -j8 — the governor decides only on the coordinating goroutine. (The
// subtests keep the names of the harnesses whose governed runs these took
// over.)
func TestGovernedRunsDeterministicAcrossWorkers(t *testing.T) {
	ref, _ := buildSystem(t, core.VS, 3)
	for _, c := range []struct {
		name, spec string
		u, frac    float64
		lift       int64
	}{
		{"LoadTest", "load=const:0.9,cycles=32768", 0.9, 0.4, 16 * 1024},
		{"RunFaults", fmt.Sprintf("load=const:0.3333,faults=seu:%g,cycles=16384,seed=5", seuRateFor(ref, 3, 16384)), 1.0 / 3, 0.5, 0},
		{"RunUpdates", "load=const:0.3333,churn=4x64,queue=4096,cycles=16384", 1.0 / 3, 0.5, 8 * 1024},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, _ := buildSystem(t, core.VS, 3)
			spec := capped(c.spec, capBelowSteady(t, s, c.u, c.frac), c.lift)
			var reps []string
			runDumps(t, c.name+"/governed", func(tel *Telemetry) {
				s.SetTelemetry(tel)
				defer s.SetTelemetry(nil)
				rep := runSpec(t, s, 29, spec)
				if rep.Governor == nil || rep.Governor.Escalations == 0 {
					t.Fatalf("cap caused no throttling: %+v", rep.Governor)
				}
				reps = append(reps, dumpJSON(t, rep))
			})
			if len(reps) == 2 && reps[0] != reps[1] {
				t.Errorf("governed reports differ between -j1 and -j8:\n%s\n%s", reps[0], reps[1])
			}
		})
	}
}

// TestNVQuiesceLowersMeteredStatic: under NV each engine has its own device,
// and a quiesce rung powers the quiesced engine's device down, so the meter
// stops integrating its leakage. A cap under the three devices' static floor
// walks the ladder through the slowest clock into "quiesce vn>=2": the
// quiesced rows leak two devices' worth, two thirds of the slowest clock's.
func TestNVQuiesceLowersMeteredStatic(t *testing.T) {
	s, _ := buildSystem(t, core.NV, 3)
	tel := testTelemetry(0, 1)
	s.SetTelemetry(tel)
	rep := runSpec(t, s, 31, "load=const:0.9,cycles=16384,power-cap=13.4")
	_, series, _ := dumps(t, tel)
	slowest := len(fpga.DefaultClockTiers()) - 1
	staticAt := map[int]float64{}
	for _, l := range strings.Split(strings.TrimSpace(series), "\n")[2:] { // past the schema line and the header
		f := strings.Split(l, ",")
		// cycle, then SeriesColumns: gov_rung is column 9, static_j 11.
		rung, err := strconv.Atoi(f[9])
		if err != nil {
			t.Fatal(err)
		}
		if staticJ, err := strconv.ParseFloat(f[11], 64); err != nil {
			t.Fatal(err)
		} else if _, seen := staticAt[rung]; !seen {
			staticAt[rung] = staticJ
		}
	}
	slow, okSlow := staticAt[slowest]
	quiesced, okQ := staticAt[slowest+1]
	if !okSlow || !okQ {
		t.Fatalf("rungs observed %v, want %d and %d (ladder %v)", staticAt, slowest, slowest+1, rep.Governor.Rungs)
	}
	if math.Abs(quiesced*3-slow*2) > 1e-15 {
		t.Errorf("static per slice: %.6g J quiesced, %.6g J at the slowest clock: want two thirds", quiesced, slow)
	}
	if rep.Governor.FinalPowerW >= 13.4 {
		t.Errorf("final metered power %.3f W not under the cap", rep.Governor.FinalPowerW)
	}
}
