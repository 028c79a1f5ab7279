package planner

import (
	"math"
	"sync"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/fpga"
)

var (
	profOnce sync.Once
	profVal  core.TableProfile
	profErr  error
)

func prof(t *testing.T) core.TableProfile {
	t.Helper()
	profOnce.Do(func() { profVal, profErr = core.PaperProfile() })
	if profErr != nil {
		t.Fatal(profErr)
	}
	return profVal
}

func TestPlanValidation(t *testing.T) {
	p := prof(t)
	if _, err := Plan(Requirements{K: 0, Profile: p}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Plan(Requirements{K: 2, PerVNGbps: -1, Profile: p}); err == nil {
		t.Error("negative requirement accepted")
	}
	if _, err := Plan(Requirements{K: 2, Alpha: 2, Profile: p}); err == nil {
		t.Error("alpha > 1 accepted")
	}
}

// TestPlanRefusesNaNAlpha: a NaN α once passed the range check and ranked a
// NaN-memory merged router cheapest.
func TestPlanRefusesNaNAlpha(t *testing.T) {
	if _, err := Plan(Requirements{K: 2, Alpha: math.NaN(), Profile: prof(t)}); err == nil {
		t.Error("alpha NaN accepted")
	}
}

// TestPlanRefusesNaNRequirement: a NaN requirement once passed the range
// check and compared below every clock, so every configuration was feasible.
func TestPlanRefusesNaNRequirement(t *testing.T) {
	if _, err := Plan(Requirements{K: 2, PerVNGbps: math.NaN(), Profile: prof(t)}); err == nil {
		t.Error("requirement NaN accepted")
	}
}

func TestPlanSortedAndFeasible(t *testing.T) {
	p := prof(t)
	cands, err := Plan(Requirements{K: 6, PerVNGbps: 5, Profile: p, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates for an easy requirement")
	}
	prev := 0.0
	for i, c := range cands {
		if c.MeasuredW < prev {
			t.Fatalf("candidate %d cheaper than its predecessor", i)
		}
		prev = c.MeasuredW
		if c.GuaranteedPerVNGbps < 5 {
			t.Errorf("%s guarantees only %.1f Gbps", c.Describe(), c.GuaranteedPerVNGbps)
		}
	}
}

// TestBestPicksRightSizedDeviceAtSmallK: with few networks and modest
// throughput, the cheapest deployment shares ONE smallest family member —
// right-sizing and virtualization compose (a single XC6VLX75T leaks ~0.44 W
// where the paper's LX760 leaks 4.5 W).
func TestBestPicksRightSizedDeviceAtSmallK(t *testing.T) {
	p := prof(t)
	best, err := Best(Requirements{K: 2, PerVNGbps: 10, Profile: p, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if best.Devices != 1 {
		t.Errorf("best at K=2 powers %d devices, want 1 (shared)", best.Devices)
	}
	if best.Config.Device.Name == "XC6VLX760" {
		t.Errorf("best at K=2 uses the biggest device: %s", best.Describe())
	}
	// Low-power grade should win when throughput is easy.
	if best.Config.Grade != fpga.Grade1L {
		t.Errorf("best at K=2 uses grade %s, want -1L (power is the objective)", best.Config.Grade)
	}
	// And it must be far below the paper's same-device baseline.
	if best.MeasuredW > 1.0 {
		t.Errorf("best at K=2 burns %.2f W; a right-sized shared part should be < 1 W", best.MeasuredW)
	}
}

// TestBestPrefersSharingAtLargeK: at K=15 the summed static of even small
// dedicated devices exceeds one shared device.
func TestBestPrefersSharingAtLargeK(t *testing.T) {
	p := prof(t)
	best, err := Best(Requirements{K: 15, PerVNGbps: 2, Profile: p, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if best.Config.Scheme == core.NV {
		t.Errorf("best at K=15 = %s, want a virtualized scheme", best.Describe())
	}
}

// TestHighThroughputExcludesMerged: a per-VN requirement beyond the shared
// engine's 1/K share forces the planner off VM.
func TestHighThroughputExcludesMerged(t *testing.T) {
	p := prof(t)
	cands, err := Plan(Requirements{K: 8, PerVNGbps: 30, Profile: p, Alpha: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Config.Scheme == core.VM {
			t.Errorf("VM candidate %s guarantees %.1f Gbps, cannot meet 30", c.Describe(), c.GuaranteedPerVNGbps)
		}
	}
	if len(cands) == 0 {
		t.Fatal("VS/NV should still meet 30 Gbps per VN")
	}
}

// TestInfeasibleReportsConstraint: 30 networks at line rate fits nothing.
func TestInfeasibleReportsConstraint(t *testing.T) {
	p := prof(t)
	if _, err := Best(Requirements{K: 30, PerVNGbps: 90, Profile: p, Alpha: 0.2, Schemes: []core.Scheme{core.VM}}); err == nil {
		t.Error("impossible requirement satisfied")
	}
}

func TestSchemeRestriction(t *testing.T) {
	p := prof(t)
	cands, err := Plan(Requirements{K: 4, PerVNGbps: 1, Profile: p, Alpha: 0.5,
		Schemes: []core.Scheme{core.VM}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Config.Scheme != core.VM {
			t.Errorf("restricted plan returned %s", c.Describe())
		}
	}
}

func TestFrontierMonotone(t *testing.T) {
	p := prof(t)
	cands, err := Plan(Requirements{K: 4, PerVNGbps: 1, Profile: p, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	fr := Frontier(cands)
	if len(fr) == 0 || len(fr) > len(cands) {
		t.Fatalf("frontier size %d of %d", len(fr), len(cands))
	}
	prevW, prevG := -1.0, -1.0
	for _, c := range fr {
		if c.MeasuredW < prevW || c.GuaranteedPerVNGbps <= prevG {
			t.Errorf("frontier not monotone at %s", c.Describe())
		}
		prevW, prevG = c.MeasuredW, c.GuaranteedPerVNGbps
	}
}

func TestDescribe(t *testing.T) {
	c := Candidate{
		Config: core.Config{
			Scheme: core.VS, Grade: fpga.Grade1L, Mode: fpga.BRAM36Mode,
			Balanced: true, DistRAMThreshold: 4096, Device: fpga.XC6VLX760(),
		},
		Devices: 3,
	}
	s := c.Describe()
	for _, want := range []string{"VS", "XC6VLX760", "-1L", "36Kb", "balanced", "hybrid", "x3"} {
		if !contains(s, want) {
			t.Errorf("Describe %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
