package governor

import (
	"reflect"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/power"
)

// plantFor builds a synthetic plant: engines pipelines of stages x 18Kb
// BRAM stages each, nominal utilization u, in the given organisation.
func plantFor(scheme core.Scheme, devices, engines, stages int, u float64) Plant {
	eng := make([]power.EngineDesign, engines)
	for e := range eng {
		bits := make([]int64, stages)
		for i := range bits {
			bits[i] = 18 * 1024
		}
		eng[e] = power.EngineDesign{StageBits: bits, Utilization: u}
	}
	k := engines
	if scheme == core.VM {
		k = 3
	}
	return Plant{
		Design: power.SystemDesign{
			FMHz: 300, Devices: devices, Engines: eng, ClockGating: true,
		},
		Scheme: scheme,
		K:      k,
	}
}

// steadyWatts evaluates a plant's full-speed power at utilization u per
// engine, via a throwaway governor's own estimator.
func steadyWatts(t *testing.T, p Plant, u float64) float64 {
	t.Helper()
	g, err := New(Config{CapWatts: 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	util := make([]float64, len(p.Design.Engines))
	for i := range util {
		util[i] = u
	}
	total, _ := g.estimateAt(g.rungs[0], util)
	return total
}

// observeModel feeds one 1024-cycle slice at the given utilizations, with
// the plant's watts — metered in a run — taken from the model at the rung
// in force. It returns the decision and those watts.
func observeModel(g *Governor, cycle int64, util []float64) (Decision, float64) {
	w, perDev := g.estimateAt(g.rungs[g.cur], util)
	return g.Observe(Sample{Cycle: cycle, Cycles: 1024, Util: util, PowerW: w, DeviceW: perDev}), w
}

// drive feeds n constant-utilization slices of 1024 cycles and returns the
// last decision and its watts.
func drive(g *Governor, start int64, n int, u float64) (Decision, float64) {
	util := make([]float64, len(g.baseUtil))
	for i := range util {
		util[i] = u
	}
	var d Decision
	var w float64
	for i := 0; i < n; i++ {
		d, w = observeModel(g, start+int64(i)*1024, util)
	}
	return d, w
}

func TestLadderShapePerScheme(t *testing.T) {
	cases := []struct {
		scheme  core.Scheme
		devices int
		engines int
		wantSub string
	}{
		{core.VS, 1, 3, "quiesce"},
		{core.NV, 3, 3, "quiesce"},
		{core.VM, 1, 1, "admit"},
	}
	for _, c := range cases {
		g, err := New(Config{CapWatts: 5}, plantFor(c.scheme, c.devices, c.engines, 8, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		rep := g.Report()
		if rep.Rungs[0] != "full" || rep.Rungs[len(rep.Rungs)-1] != "brownout" {
			t.Errorf("%v ladder ends: %v", c.scheme, rep.Rungs)
		}
		found := false
		for _, name := range rep.Rungs {
			if len(name) >= len(c.wantSub) && name[:len(c.wantSub)] == c.wantSub {
				found = true
			}
		}
		if !found {
			t.Errorf("%v ladder missing a %q rung: %v", c.scheme, c.wantSub, rep.Rungs)
		}
		// The merged scheme must never get a partial-quiesce rung: it
		// cannot shed a single VNID (the paper's isolation asymmetry).
		if c.scheme == core.VM {
			for i, r := range g.rungs[:len(g.rungs)-1] {
				if r.Quiesced != nil {
					t.Errorf("VM rung %d quiesces engines: %+v", i, r)
				}
			}
		}
	}
}

// The controller must converge under the cap within the ladder length and
// never oscillate under steady load.
func TestConvergesUnderCapWithoutOscillation(t *testing.T) {
	p := plantFor(core.VS, 1, 3, 16, 0.9)
	steady := steadyWatts(t, p, 0.9)
	floor := steadyWatts(t, p, 0) // static + gated-idle floor at full clock
	cap := floor + (steady-floor)*0.3
	g, err := New(Config{CapWatts: cap}, p)
	if err != nil {
		t.Fatal(err)
	}
	last, w := drive(g, 0, 200, 0.9)
	rep := g.Report()
	if last.Over {
		t.Fatalf("still over cap after 200 slices: power %.2f W, cap %.2f W, rung %d (%s)",
			w, cap, rep.FinalRung, rep.Rungs[rep.FinalRung])
	}
	if rep.ViolationSlices > int64(g.Rungs()) {
		t.Errorf("%d violation slices for a %d-rung ladder: convergence not bounded",
			rep.ViolationSlices, g.Rungs())
	}
	if rep.ConvergedAt < 0 {
		t.Error("ConvergedAt unset after convergence")
	}
	if rep.Oscillations != 0 {
		t.Errorf("%d oscillations under steady load", rep.Oscillations)
	}
	if rep.Escalations == 0 || rep.FinalRung == 0 {
		t.Errorf("cap below steady power caused no throttling: %+v", rep)
	}
	// Steady state: a further 100 identical slices must not move the rung.
	before := rep.FinalRung
	drive(g, 200*1024, 100, 0.9)
	rep = g.Report()
	if rep.FinalRung != before || rep.Oscillations != 0 {
		t.Errorf("rung moved under unchanged load: %d -> %d (%d oscillations)",
			before, rep.FinalRung, rep.Oscillations)
	}
}

// Lifting the cap mid-run must walk the ladder all the way back to full
// speed, through hysteresis, without a single oscillation.
func TestRecoversAfterCapLift(t *testing.T) {
	p := plantFor(core.VS, 1, 3, 16, 0.9)
	steady := steadyWatts(t, p, 0.9)
	floor := steadyWatts(t, p, 0)
	cap := floor + (steady-floor)*0.3
	lift := int64(64 * 1024)
	g, err := New(Config{CapWatts: cap, LiftCycle: lift}, p)
	if err != nil {
		t.Fatal(err)
	}
	drive(g, 0, 64, 0.9) // throttled phase
	mid := g.Report()
	if mid.FinalRung == 0 {
		t.Fatal("no throttling before the lift")
	}
	drive(g, lift, 200, 0.9) // cap lifted: recovery phase
	rep := g.Report()
	if rep.FinalRung != 0 {
		t.Errorf("did not recover to full speed after cap lift: rung %d (%s)",
			rep.FinalRung, rep.Rungs[rep.FinalRung])
	}
	if rep.Deescalations == 0 {
		t.Error("no de-escalations recorded on recovery")
	}
	if rep.Oscillations != 0 {
		t.Errorf("%d oscillations across lift recovery", rep.Oscillations)
	}
}

// A cap just above the static floor must not strand the ladder: once the
// load goes idle, the governor walks back to full speed. The hysteresis
// band is measured above the rung's own floor; a plain share of the cap
// would lie under the floor here, and no slice would ever count toward the
// hold.
func TestTightCapStepsBackUpWhenIdle(t *testing.T) {
	p := plantFor(core.VS, 1, 3, 16, 0.9)
	steady := steadyWatts(t, p, 0.9)
	floor := steadyWatts(t, p, 0)
	cap := floor + (steady-floor)*0.3
	if cap*lowerFrac >= floor {
		t.Fatalf("cap %.3f W: a %.2f share of it is not under the %.3f W floor", cap, lowerFrac, floor)
	}
	g, err := New(Config{CapWatts: cap}, p)
	if err != nil {
		t.Fatal(err)
	}
	drive(g, 0, 32, 0.9)
	if g.Report().FinalRung == 0 {
		t.Fatal("cap below steady power caused no throttling")
	}
	drive(g, 32*1024, 200, 0) // the load goes idle, the cap stays
	rep := g.Report()
	if rep.FinalRung != 0 || rep.Deescalations == 0 {
		t.Errorf("idle under a %.3f W cap: rung %d (%s), %d de-escalations, want full speed",
			cap, rep.FinalRung, rep.Rungs[rep.FinalRung], rep.Deescalations)
	}
	if rep.Oscillations != 0 {
		t.Errorf("%d oscillations", rep.Oscillations)
	}
}

// NV quiescing powers whole devices off, shedding static Watts; VS keeps
// the shared die lit. The same quiesce rung must therefore save more power
// on NV than on VS.
func TestNVQuiesceShedsStaticPower(t *testing.T) {
	nv := plantFor(core.NV, 3, 3, 16, 0.9)
	vs := plantFor(core.VS, 1, 3, 16, 0.9)
	gNV, err := New(Config{CapWatts: 1}, nv)
	if err != nil {
		t.Fatal(err)
	}
	gVS, err := New(Config{CapWatts: 1}, vs)
	if err != nil {
		t.Fatal(err)
	}
	util := []float64{0.9, 0.9, 0.9}
	quiesce := Rung{FreqFrac: 1, AdmitFrac: 1, Quiesced: []bool{false, false, true}}
	fullNV, _ := gNV.estimateAt(gNV.rungs[0], util)
	qNV, devNV := gNV.estimateAt(quiesce, util)
	fullVS, _ := gVS.estimateAt(gVS.rungs[0], util)
	qVS, _ := gVS.estimateAt(quiesce, util)
	if devNV[2] != 0 {
		t.Errorf("NV quiesced device still draws %.2f W", devNV[2])
	}
	savedNV, savedVS := fullNV-qNV, fullVS-qVS
	if savedNV <= savedVS {
		t.Errorf("NV quiesce saved %.2f W, VS %.2f W: NV must also shed static", savedNV, savedVS)
	}
	static := power.StaticWatts(nv.Design.Grade)
	if diff := savedNV - savedVS - static; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("NV-vs-VS quiesce saving differs from one device's static by %.4f W", diff)
	}
}

func TestPerDeviceCapEscalates(t *testing.T) {
	p := plantFor(core.NV, 3, 3, 16, 0.9)
	perDev := steadyWatts(t, p, 0.9) / 3
	g, err := New(Config{DeviceCapWatts: perDev * 0.7}, p)
	if err != nil {
		t.Fatal(err)
	}
	last, _ := drive(g, 0, 100, 0.9)
	if last.Over {
		t.Fatalf("device cap still violated after 100 slices: %+v", g.Report())
	}
	if g.Report().Escalations == 0 {
		t.Error("device cap below per-device power caused no escalation")
	}
}

// The merged scheme's ladder must reach admission control and actually cut
// power through it (utilization scales with admitted fraction).
func TestVMAdmissionControlReducesPower(t *testing.T) {
	p := plantFor(core.VM, 1, 1, 48, 0.95)
	steady := steadyWatts(t, p, 0.95)
	floor := steadyWatts(t, p, 0)
	cap := floor + (steady-floor)*0.2
	g, err := New(Config{CapWatts: cap}, p)
	if err != nil {
		t.Fatal(err)
	}
	// Model the plant's response: utilization follows the admitted load.
	u := 0.95
	var d Decision
	var w float64
	for i := 0; i < 100; i++ {
		d, w = observeModel(g, int64(i)*1024, []float64{u * g.rungs[g.cur].AdmitFrac})
	}
	rep := g.Report()
	if d.Over {
		t.Fatalf("VM still over cap: %.2f W vs %.2f W at %s", w, cap, rep.Rungs[rep.FinalRung])
	}
	if rep.Rungs[rep.FinalRung][:5] != "admit" && rep.Rungs[rep.FinalRung] != "brownout" {
		t.Errorf("VM converged at %q, expected an admission rung", rep.Rungs[rep.FinalRung])
	}
	if rep.Oscillations != 0 {
		t.Errorf("%d oscillations", rep.Oscillations)
	}
}

// Two governors fed identical samples must produce identical reports — the
// determinism contract underlying byte-identical -j1/-j8 runs.
func TestGovernorDeterministic(t *testing.T) {
	mk := func() *Report {
		p := plantFor(core.VS, 1, 3, 16, 0.9)
		g, err := New(Config{CapWatts: 6, LiftCycle: 32 * 1024}, p)
		if err != nil {
			t.Fatal(err)
		}
		drive(g, 0, 32, 0.9)
		drive(g, 32*1024, 64, 0.4)
		g.CountThrottled(1)
		g.CountBrownout(2)
		return g.Report()
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical sample streams produced different reports:\n%+v\n%+v", a, b)
	}
}

func TestConfigValidation(t *testing.T) {
	p := plantFor(core.VS, 1, 2, 4, 0.5)
	bad := []Config{
		{},             // no cap at all
		{CapWatts: -1}, // negative
		{CapWatts: 5, LiftCycle: -3},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, p); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Config{CapWatts: 5}, p); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestPacerPatterns(t *testing.T) {
	for _, frac := range []float64{0, 0.25, 0.45, 0.5, 0.8, 1} {
		p := NewPacer(frac)
		served := 0
		for i := 0; i < pacerDen; i++ {
			if p.Tick() {
				served++
			}
		}
		want := int(frac*pacerDen + 0.5)
		if served != want {
			t.Errorf("fraction %.2f served %d of %d cycles, want %d", frac, served, pacerDen, want)
		}
	}
	// The pattern must be evenly spaced, not bursty: at 0.5, strictly
	// alternating.
	p := NewPacer(0.5)
	prev := p.Tick()
	for i := 0; i < 64; i++ {
		cur := p.Tick()
		if cur == prev {
			t.Fatalf("0.5 pacer emitted two equal cycles in a row at %d", i)
		}
		prev = cur
	}
}
