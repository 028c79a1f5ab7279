package faults

import (
	"reflect"
	"testing"

	"vrpower/internal/pipeline"
	"vrpower/internal/rib"
)

func compileImage(t *testing.T, routes, seed int64) *pipeline.Image {
	t.Helper()
	tbl, err := rib.Generate("t", int(routes), seed)
	if err != nil {
		t.Fatal(err)
	}
	img, err := pipeline.Compile([]*rib.Table{tbl}, 28)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func drain(t *testing.T, in *Injector, engines int, horizon int64) []Upset {
	t.Helper()
	var all []Upset
	for e := 0; e < engines; e++ {
		all = append(all, in.UpsetsThrough(e, horizon)...)
	}
	return all
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{SEURate: -1},
		{SEURate: 1},
		{Kill: true, KillEngine: -1},
		{Kill: true, KillEngine: 0, KillCycle: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d (%+v) validated", i, cfg)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	imgs := []*pipeline.Image{compileImage(t, 500, 1), compileImage(t, 400, 2)}
	cfg := Config{Seed: 7, SEURate: 1e-7}
	a, err := NewInjector(cfg, imgs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(cfg, imgs)
	if err != nil {
		t.Fatal(err)
	}
	ua := drain(t, a, 2, 200000)
	ub := drain(t, b, 2, 200000)
	if len(ua) == 0 {
		t.Fatal("no upsets scheduled; raise the rate or horizon")
	}
	if !reflect.DeepEqual(ua, ub) {
		t.Error("same seed produced different schedules")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	imgs := []*pipeline.Image{compileImage(t, 500, 1)}
	a, _ := NewInjector(Config{Seed: 1, SEURate: 1e-7}, imgs)
	b, _ := NewInjector(Config{Seed: 2, SEURate: 1e-7}, imgs)
	ua := drain(t, a, 1, 200000)
	ub := drain(t, b, 1, 200000)
	if reflect.DeepEqual(ua, ub) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestIncrementalDrainMatchesOneShot(t *testing.T) {
	imgs := []*pipeline.Image{compileImage(t, 500, 3)}
	one, _ := NewInjector(Config{Seed: 9, SEURate: 1e-7}, imgs)
	inc, _ := NewInjector(Config{Seed: 9, SEURate: 1e-7}, imgs)
	whole := one.UpsetsThrough(0, 300000)
	var pieces []Upset
	for limit := int64(50000); limit <= 300000; limit += 50000 {
		pieces = append(pieces, inc.UpsetsThrough(0, limit)...)
	}
	if !reflect.DeepEqual(whole, pieces) {
		t.Error("slice-wise drain differs from one-shot drain")
	}
}

func TestUpsetRateScalesWithExposure(t *testing.T) {
	img := compileImage(t, 1000, 4)
	bits := img.DataBits()
	const cycles = 1 << 20
	rate := 20.0 / (float64(bits) * cycles) // expect ~20 upsets
	in, err := NewInjector(Config{Seed: 5, SEURate: rate}, []*pipeline.Image{img})
	if err != nil {
		t.Fatal(err)
	}
	n := len(in.UpsetsThrough(0, cycles))
	if n < 5 || n > 60 {
		t.Errorf("got %d upsets, expected around 20", n)
	}
}

func TestUpsetsAreInRangeAndOrdered(t *testing.T) {
	img := compileImage(t, 800, 6)
	in, _ := NewInjector(Config{Seed: 11, SEURate: 1e-6}, []*pipeline.Image{img})
	ups := in.UpsetsThrough(0, 100000)
	if len(ups) == 0 {
		t.Fatal("no upsets")
	}
	last := int64(-1)
	for i, u := range ups {
		if u.Cycle < last {
			t.Fatalf("upset %d out of cycle order", i)
		}
		last = u.Cycle
		if u.Seq != i {
			t.Errorf("upset %d has Seq %d", i, u.Seq)
		}
		cl := img.Clone()
		if !cl.FlipBit(u.Stage, u.Index, u.Bit) {
			t.Fatalf("upset %d coordinates out of range: %+v", i, u)
		}
		if s, _ := cl.Corrupted(); len(s) != 1 {
			t.Fatalf("upset %d corrupted %d words, want 1", i, len(s))
		}
	}
}

// TestZeroRateInjectsNothing: the all-zero fault config is the clean
// baseline — no upsets over any horizon, no kill.
func TestZeroRateInjectsNothing(t *testing.T) {
	imgs := []*pipeline.Image{compileImage(t, 500, 1), compileImage(t, 400, 2)}
	in, err := NewInjector(Config{Seed: 3}, imgs)
	if err != nil {
		t.Fatal(err)
	}
	if ups := drain(t, in, 2, 1<<30); len(ups) != 0 {
		t.Errorf("zero-rate injector scheduled %d upsets", len(ups))
	}
	if in.KillDue(0, 1<<30) || in.KillDue(1, 1<<30) {
		t.Error("kill fired without Kill configured")
	}
}

// TestDrainOrderIndependence: each engine's physical schedule — cycles and
// bit coordinates — must not depend on the order or granularity in which
// engines drain their upsets, the property the -j1 vs -j8 sweep fan-out
// relies on. Seq is excluded: it numbers upsets in global drain order by
// design, and its cross-worker stability comes from the fault-run loop
// draining engines in fixed order on the coordinating goroutine.
func TestDrainOrderIndependence(t *testing.T) {
	imgs := []*pipeline.Image{compileImage(t, 500, 1), compileImage(t, 400, 2), compileImage(t, 300, 3)}
	cfg := Config{Seed: 13, SEURate: 1e-7}
	const horizon = 200000
	one, err := NewInjector(cfg, imgs)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]Upset, len(imgs))
	for e := range imgs {
		want[e] = one.UpsetsThrough(e, horizon)
	}
	// Same config, but engines queried in reverse order with interleaved
	// incremental horizons.
	two, err := NewInjector(cfg, imgs)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]Upset, len(imgs))
	for limit := int64(25000); limit <= horizon; limit += 25000 {
		for e := len(imgs) - 1; e >= 0; e-- {
			got[e] = append(got[e], two.UpsetsThrough(e, limit)...)
		}
	}
	total := 0
	for e := range want {
		total += len(want[e])
	}
	if total == 0 {
		t.Fatal("no upsets scheduled; raise the rate or horizon")
	}
	stripSeq := func(ups []Upset) []Upset {
		out := make([]Upset, len(ups))
		for i, u := range ups {
			u.Seq = 0
			out[i] = u
		}
		return out
	}
	for e := range want {
		if len(want[e]) == 0 && len(got[e]) == 0 {
			continue
		}
		if !reflect.DeepEqual(stripSeq(want[e]), stripSeq(got[e])) {
			t.Errorf("engine %d: drain order changed the schedule", e)
		}
	}
}

func TestKillDueFiresOnce(t *testing.T) {
	imgs := []*pipeline.Image{compileImage(t, 300, 7), compileImage(t, 300, 8)}
	in, err := NewInjector(Config{Seed: 1, Kill: true, KillEngine: 1, KillCycle: 5000}, imgs)
	if err != nil {
		t.Fatal(err)
	}
	if in.KillDue(0, 10000) {
		t.Error("kill fired for the wrong engine")
	}
	if in.KillDue(1, 5000) {
		t.Error("kill fired before its cycle")
	}
	if !in.KillDue(1, 5001) {
		t.Error("kill did not fire at its cycle")
	}
	if in.KillDue(1, 1<<40) {
		t.Error("kill fired twice")
	}
}

func TestKillEngineOutOfRangeRejected(t *testing.T) {
	imgs := []*pipeline.Image{compileImage(t, 200, 10)}
	if _, err := NewInjector(Config{Kill: true, KillEngine: 3}, imgs); err == nil {
		t.Error("kill of a nonexistent engine accepted")
	}
}
