package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"vrpower/internal/fpga"
	"vrpower/internal/ip"
	"vrpower/internal/pipeline"
	"vrpower/internal/power"
	"vrpower/internal/rib"
	"vrpower/internal/sweep"
)

var (
	profOnce sync.Once
	profVal  TableProfile
	profErr  error
)

func paperProf(t *testing.T) TableProfile {
	t.Helper()
	profOnce.Do(func() { profVal, profErr = PaperProfile() })
	if profErr != nil {
		t.Fatal(profErr)
	}
	return profVal
}

func TestSchemeString(t *testing.T) {
	if NV.String() != "NV" || VS.String() != "VS" || VM.String() != "VM" {
		t.Error("scheme names wrong")
	}
	if len(Schemes()) != 3 {
		t.Error("Schemes() should list 3")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Scheme: NV, K: 0}).Validate(); err == nil {
		t.Error("K=0 accepted")
	}
	if err := (Config{Scheme: Scheme(9), K: 1}).Validate(); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := (Config{Scheme: VS, K: 2, Stages: -1}).Validate(); err == nil {
		t.Error("negative stages accepted")
	}
}

// TestConfigZeroValueTraps: a partly set Layout is not completed by the
// defaults, so a zero width would price its memory at 0 bits; a negative
// distributed-RAM threshold reads as BRAM only. Both are refused, by
// Validate and by every constructor, while the zero Layout and threshold
// stay the defaults.
func TestConfigZeroValueTraps(t *testing.T) {
	prof := paperProf(t)
	for name, cfg := range map[string]Config{
		"pointer width only": {Scheme: VS, K: 2, Layout: pipeline.MemLayout{PtrBits: 18}},
		"NHI width only":     {Scheme: VS, K: 2, Layout: pipeline.MemLayout{NHIBits: 8}},
		"negative width":     {Scheme: VS, K: 2, Layout: pipeline.MemLayout{PtrBits: -18, NHIBits: 8}},
		"negative threshold": {Scheme: VS, K: 2, DistRAMThreshold: -5},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, cfg)
		}
		if _, err := BuildAnalytic(cfg, prof, 0); err == nil {
			t.Errorf("%s: BuildAnalytic accepted %+v", name, cfg)
		}
		if _, _, err := MemoryDemand(cfg, prof, 0); err == nil {
			t.Errorf("%s: MemoryDemand accepted %+v", name, cfg)
		}
	}
	if err := (Config{Scheme: VS, K: 2}).Validate(); err != nil {
		t.Errorf("the zero Layout and threshold refused: %v", err)
	}
}

func TestPaperProfileShape(t *testing.T) {
	prof := paperProf(t)
	if prof.Leaves != prof.Nodes-prof.Leaves+1 {
		t.Errorf("leaf-pushed profile not a full binary tree: nodes=%d leaves=%d", prof.Nodes, prof.Leaves)
	}
	if prof.Height > 32 || prof.Height < 24 {
		t.Errorf("height = %d, want [24,32]", prof.Height)
	}
	// Within the calibration band of the paper's 16127 leaf-pushed nodes.
	if d := math.Abs(float64(prof.Nodes-16127)) / 16127; d > 0.08 {
		t.Errorf("profile nodes = %d, want 16127 ± 8%%", prof.Nodes)
	}
}

func TestBuildValidation(t *testing.T) {
	tbl, err := rib.Generate("t", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(Config{Scheme: VS, K: 2}, []*rib.Table{tbl}); err == nil {
		t.Error("table count mismatch accepted")
	}
	if _, err := Build(Config{Scheme: VS, K: 0}, nil); err == nil {
		t.Error("K=0 accepted")
	}
}

func TestBuildEmpiricalAllSchemes(t *testing.T) {
	set, err := rib.GenerateVirtualSet(4, 500, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range Schemes() {
		r, err := Build(Config{Scheme: sc, K: 4, ClockGating: true}, set.Tables)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		wantImages := 4
		if sc == VM {
			wantImages = 1
		}
		if len(r.Images()) != wantImages {
			t.Errorf("%s: %d images, want %d", sc, len(r.Images()), wantImages)
		}
		if r.Fmax() <= 0 {
			t.Errorf("%s: fmax %g", sc, r.Fmax())
		}
		b, err := r.ModelPower()
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if b.Total() <= b.Static || b.Static <= 0 {
			t.Errorf("%s: breakdown %+v not plausible", sc, b)
		}
		if r.PointerBits() <= 0 || r.NHIBits() <= 0 {
			t.Errorf("%s: memory split %d/%d", sc, r.PointerBits(), r.NHIBits())
		}
		if r.Config().Stages != DefaultStages {
			t.Errorf("%s: default stages not applied", sc)
		}
	}
}

func TestBuildDevicesPerScheme(t *testing.T) {
	set, err := rib.GenerateVirtualSet(3, 300, 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sc   Scheme
		want int
	}{{NV, 3}, {VS, 1}, {VM, 1}} {
		r, err := Build(Config{Scheme: c.sc, K: 3, ClockGating: true}, set.Tables)
		if err != nil {
			t.Fatal(err)
		}
		if r.Design().Devices != c.want {
			t.Errorf("%s: devices = %d, want %d", c.sc, r.Design().Devices, c.want)
		}
	}
}

// TestEmpiricalLookupCorrectness drives the built engines end-to-end: every
// scheme must forward exactly like the per-VN reference tables.
func TestEmpiricalLookupCorrectness(t *testing.T) {
	set, err := rib.GenerateVirtualSet(3, 400, 0.4, 7)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*ip.Table, 3)
	for i, tbl := range set.Tables {
		refs[i] = tbl.Reference()
	}
	rng := rand.New(rand.NewSource(8))
	type probe struct {
		addr ip.Addr
		vn   int
	}
	probes := make([]probe, 500)
	for i := range probes {
		probes[i] = probe{ip.Addr(rng.Uint32()), rng.Intn(3)}
	}
	for _, sc := range Schemes() {
		r, err := Build(Config{Scheme: sc, K: 3, ClockGating: true}, set.Tables)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range probes {
			var got ip.NextHop
			if sc == VM {
				got = pipeline.Lookup(r.Images()[0], pipeline.Request{Addr: p.addr, VN: p.vn})
			} else {
				got = pipeline.Lookup(r.Images()[p.vn], pipeline.Request{Addr: p.addr})
			}
			if want := refs[p.vn].Lookup(p.addr); got != want {
				t.Fatalf("%s: lookup(vn=%d, %s) = %d, want %d", sc, p.vn, p.addr, got, want)
			}
		}
	}
}

func TestVSIOCeiling(t *testing.T) {
	prof := paperProf(t)
	if _, err := BuildAnalytic(Config{Scheme: VS, K: 15, ClockGating: true}, prof, 0); err != nil {
		t.Errorf("VS K=15 should place: %v", err)
	}
	_, err := BuildAnalytic(Config{Scheme: VS, K: 16, ClockGating: true}, prof, 0)
	var ce *fpga.ErrCapacity
	if !errors.As(err, &ce) {
		t.Errorf("VS K=16 error = %v, want I/O capacity error", err)
	}
}

func TestVMCapacityExhaustion(t *testing.T) {
	prof := paperProf(t)
	// With zero merging efficiency the merged memory is K tables plus
	// K-wide NHI vectors; at large K it must exceed the 26 Mb of BRAM.
	_, err := BuildAnalytic(Config{Scheme: VM, K: 40, ClockGating: true}, prof, 0)
	var ce *fpga.ErrCapacity
	if !errors.As(err, &ce) {
		t.Errorf("VM K=40 α=0 error = %v, want BRAM capacity error", err)
	}
	// High merging efficiency rescues a mid-size K.
	if _, err := BuildAnalytic(Config{Scheme: VM, K: 15, ClockGating: true}, prof, 0.8); err != nil {
		t.Errorf("VM K=15 α=0.8 should place: %v", err)
	}
}

func TestMemoryDemandProperties(t *testing.T) {
	prof := paperProf(t)
	if _, _, err := MemoryDemand(Config{Scheme: VM, K: 2}, prof, -0.1); err == nil {
		t.Error("alpha < 0 accepted")
	}
	// Fig. 4 orderings.
	for k := 2; k <= 30; k += 4 {
		sepPtr, sepNHI, err := MemoryDemand(Config{Scheme: VS, K: k}, prof, 0)
		if err != nil {
			t.Fatal(err)
		}
		hiPtr, hiNHI, err := MemoryDemand(Config{Scheme: VM, K: k}, prof, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		loPtr, loNHI, err := MemoryDemand(Config{Scheme: VM, K: k}, prof, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if !(hiPtr < loPtr && loPtr < sepPtr) {
			t.Errorf("K=%d pointer ordering: α=0.8 %d < α=0.2 %d < separate %d violated", k, hiPtr, loPtr, sepPtr)
		}
		if !(sepNHI < loNHI && hiNHI < loNHI) {
			t.Errorf("K=%d NHI: separate %d and α=0.8 %d should be below α=0.2 %d", k, sepNHI, hiNHI, loNHI)
		}
	}
	// NV and VS demand identical memory.
	nvPtr, nvNHI, _ := MemoryDemand(Config{Scheme: NV, K: 7}, prof, 0)
	vsPtr, vsNHI, _ := MemoryDemand(Config{Scheme: VS, K: 7}, prof, 0)
	if nvPtr != vsPtr || nvNHI != vsNHI {
		t.Error("NV and VS memory demand should match")
	}
}

// TestAlphaNaNRefused: NaN passes a check written alpha < 0 || alpha > 1,
// and priced a merged router at negative memory.
func TestAlphaNaNRefused(t *testing.T) {
	prof := paperProf(t)
	if _, _, err := MemoryDemand(Config{Scheme: VM, K: 2}, prof, math.NaN()); err == nil {
		t.Error("MemoryDemand: alpha NaN accepted")
	}
	if _, err := BuildAnalytic(Config{Scheme: VM, K: 2}, prof, math.NaN()); err == nil {
		t.Error("BuildAnalytic: alpha NaN accepted")
	}
}

func TestAnalyticMatchesEmpiricalSeparate(t *testing.T) {
	// For VS, the analytic build with the table's own profile must agree
	// with the empirical build on memory (same trie, same layout).
	tbl, err := rib.Generate("t", 3725, 1)
	if err != nil {
		t.Fatal(err)
	}
	tables := []*rib.Table{tbl, tbl, tbl}
	emp, err := Build(Config{Scheme: VS, K: 3, ClockGating: true}, tables)
	if err != nil {
		t.Fatal(err)
	}
	ana, err := BuildAnalytic(Config{Scheme: VS, K: 3, ClockGating: true}, ProfileOf(tbl), 0)
	if err != nil {
		t.Fatal(err)
	}
	if emp.PointerBits() != ana.PointerBits() || emp.NHIBits() != ana.NHIBits() {
		t.Errorf("empirical (%d,%d) != analytic (%d,%d)",
			emp.PointerBits(), emp.NHIBits(), ana.PointerBits(), ana.NHIBits())
	}
	me, _ := emp.ModelPower()
	ma, _ := ana.ModelPower()
	if math.Abs(me.Total()-ma.Total())/ma.Total() > 0.01 {
		t.Errorf("empirical power %g vs analytic %g", me.Total(), ma.Total())
	}
}

// TestFig5Shape: NV total power grows ~linearly with K; virtualized schemes
// stay near one device's static power (Section VI-A).
func TestFig5Shape(t *testing.T) {
	prof := paperProf(t)
	for _, grade := range fpga.Grades() {
		var nv1, nv15, vs15, vm15 float64
		for _, k := range []int{1, 15} {
			r, err := BuildAnalytic(Config{Scheme: NV, K: k, Grade: grade, ClockGating: true}, prof, 0)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := r.ModelPower()
			if k == 1 {
				nv1 = b.Total()
			} else {
				nv15 = b.Total()
			}
		}
		if ratio := nv15 / nv1; ratio < 13 || ratio > 16 {
			t.Errorf("%s: NV K=15/K=1 power ratio %.1f, want ≈ 15 (static dominates)", grade, ratio)
		}
		r, err := BuildAnalytic(Config{Scheme: VS, K: 15, Grade: grade, ClockGating: true}, prof, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := r.ModelPower()
		vs15 = b.Total()
		r, err = BuildAnalytic(Config{Scheme: VM, K: 15, Grade: grade, ClockGating: true}, prof, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ = r.ModelPower()
		vm15 = b.Total()
		if vs15 > nv15/8 || vm15 > nv15/8 {
			t.Errorf("%s: virtualized power (VS %.1f, VM %.1f) not far below NV %.1f", grade, vs15, vm15, nv15)
		}
	}
}

// TestFig8Ordering: power efficiency ordering of Section VI-B — VS best,
// NV second, VM worst, with VM degrading as α falls.
func TestFig8Ordering(t *testing.T) {
	prof := paperProf(t)
	for _, grade := range fpga.Grades() {
		for _, k := range []int{4, 8, 15} {
			eff := func(sc Scheme, alpha float64) float64 {
				r, err := BuildAnalytic(Config{Scheme: sc, K: k, Grade: grade, ClockGating: true}, prof, alpha)
				if err != nil {
					t.Fatal(err)
				}
				e, err := r.EfficiencyMWPerGbps()
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			vs, nv := eff(VS, 0), eff(NV, 0)
			vm80, vm20 := eff(VM, 0.8), eff(VM, 0.2)
			if !(vs < nv && nv < vm80 && vm80 < vm20) {
				t.Errorf("%s K=%d: ordering VS %.1f < NV %.1f < VM80 %.1f < VM20 %.1f violated",
					grade, k, vs, nv, vm80, vm20)
			}
		}
	}
}

// TestLowPowerSavings: grade -1L consumes ≈30 % less total power than -2 at
// the same design, with near-equal mW/Gbps (Section VI-B).
func TestLowPowerSavings(t *testing.T) {
	prof := paperProf(t)
	for _, sc := range Schemes() {
		alpha := 0.0
		if sc == VM {
			alpha = 0.5
		}
		hi, err := BuildAnalytic(Config{Scheme: sc, K: 8, Grade: fpga.Grade2, ClockGating: true}, prof, alpha)
		if err != nil {
			t.Fatal(err)
		}
		lo, err := BuildAnalytic(Config{Scheme: sc, K: 8, Grade: fpga.Grade1L, ClockGating: true}, prof, alpha)
		if err != nil {
			t.Fatal(err)
		}
		bh, _ := hi.ModelPower()
		bl, _ := lo.ModelPower()
		saving := 1 - bl.Total()/bh.Total()
		if saving < 0.25 || saving > 0.40 {
			t.Errorf("%s: -1L saving %.0f%%, want ≈ 30%%", sc, saving*100)
		}
		eh, _ := hi.EfficiencyMWPerGbps()
		el, _ := lo.EfficiencyMWPerGbps()
		if rel := math.Abs(eh-el) / eh; rel > 0.12 {
			t.Errorf("%s: mW/Gbps differs %.0f%% between grades, want near-equal", sc, rel*100)
		}
		if lo.Fmax() >= hi.Fmax() {
			t.Errorf("%s: -1L fmax %.1f not below -2 fmax %.1f (power saving costs throughput)", sc, lo.Fmax(), hi.Fmax())
		}
	}
}

// TestFig7Envelope: model vs Analyzer error within ±3 % across the sweep,
// largest for the merged scheme.
func TestFig7Envelope(t *testing.T) {
	prof := paperProf(t)
	a := power.NewAnalyzer()
	worst := map[Scheme]float64{}
	for _, grade := range fpga.Grades() {
		for k := 1; k <= 15; k++ {
			for _, sc := range Schemes() {
				alpha := 0.0
				if sc == VM {
					alpha = 0.2
				}
				r, err := BuildAnalytic(Config{Scheme: sc, K: k, Grade: grade, ClockGating: true}, prof, alpha)
				if err != nil {
					t.Fatal(err)
				}
				m, _ := r.ModelPower()
				x, err := r.MeasuredPower(a)
				if err != nil {
					t.Fatal(err)
				}
				e := math.Abs(power.PercentError(m.Total(), x.Total()))
				if e > 3.0 {
					t.Errorf("%s %s K=%d: error %.2f%% > 3%%", sc, grade, k, e)
				}
				if e > worst[sc] {
					worst[sc] = e
				}
			}
		}
	}
	if worst[VM] <= worst[NV] || worst[VM] <= worst[VS] {
		t.Errorf("worst errors NV=%.2f VS=%.2f VM=%.2f: VM should be largest", worst[NV], worst[VS], worst[VM])
	}
}

// TestVMFrequencyDegrades: the merged engine loses clock (and throughput) as
// K grows, the Fig. 8 mechanism.
func TestVMFrequencyDegrades(t *testing.T) {
	prof := paperProf(t)
	prev := math.Inf(1)
	for _, k := range []int{2, 5, 10, 15} {
		r, err := BuildAnalytic(Config{Scheme: VM, K: k, ClockGating: true}, prof, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if r.Fmax() >= prev {
			t.Errorf("VM fmax did not degrade at K=%d: %.1f >= %.1f", k, r.Fmax(), prev)
		}
		prev = r.Fmax()
	}
}

func TestThroughputScaling(t *testing.T) {
	prof := paperProf(t)
	vs, err := BuildAnalytic(Config{Scheme: VS, K: 8, ClockGating: true}, prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := BuildAnalytic(Config{Scheme: VM, K: 8, ClockGating: true}, prof, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if vs.ThroughputGbps() < 4*vm.ThroughputGbps() {
		t.Errorf("VS aggregate throughput %.0f should far exceed merged %.0f at K=8",
			vs.ThroughputGbps(), vm.ThroughputGbps())
	}
}

func TestClockGatingAblation(t *testing.T) {
	prof := paperProf(t)
	gated, err := BuildAnalytic(Config{Scheme: VS, K: 8, ClockGating: true}, prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	ungated, err := BuildAnalytic(Config{Scheme: VS, K: 8, ClockGating: false}, prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	bg, _ := gated.ModelPower()
	bu, _ := ungated.ModelPower()
	if bu.Total() <= bg.Total() {
		t.Errorf("ungated power %.2f not above gated %.2f", bu.Total(), bg.Total())
	}
	// Without gating, all K engines burn full dynamic power.
	if ratio := (bu.Total() - bu.Static) / (bg.Total() - bg.Static); ratio < 7 || ratio > 9 {
		t.Errorf("ungated/gated dynamic ratio %.1f, want ≈ 8 at K=8", ratio)
	}
}

// TestBalancedMappingImprovesWorstStage: the memory-balanced map (refs
// [7,8]) must not widen the widest stage, and for the block-heavy merged
// scheme it should raise (or at least preserve) the achievable clock.
func TestBalancedMappingImprovesWorstStage(t *testing.T) {
	prof := paperProf(t)
	for _, sc := range []struct {
		scheme Scheme
		alpha  float64
	}{{VS, 0}, {VM, 0.2}} {
		plain, err := BuildAnalytic(Config{Scheme: sc.scheme, K: 10, ClockGating: true}, prof, sc.alpha)
		if err != nil {
			t.Fatal(err)
		}
		bal, err := BuildAnalytic(Config{Scheme: sc.scheme, K: 10, ClockGating: true, Balanced: true}, prof, sc.alpha)
		if err != nil {
			t.Fatal(err)
		}
		if bal.Placement().MaxBlocksPerStage > plain.Placement().MaxBlocksPerStage {
			t.Errorf("%s: balanced widest stage %d blocks > plain %d",
				sc.scheme, bal.Placement().MaxBlocksPerStage, plain.Placement().MaxBlocksPerStage)
		}
		if bal.Fmax() < plain.Fmax() {
			t.Errorf("%s: balanced fmax %.1f below plain %.1f", sc.scheme, bal.Fmax(), plain.Fmax())
		}
	}
}

// TestBalancedEmpiricalLookupCorrectness: balanced mapping must not change
// forwarding behaviour, only memory placement.
func TestBalancedEmpiricalLookupCorrectness(t *testing.T) {
	set, err := rib.GenerateVirtualSet(3, 300, 0.5, 37)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*ip.Table, 3)
	for i, tbl := range set.Tables {
		refs[i] = tbl.Reference()
	}
	for _, sc := range Schemes() {
		r, err := Build(Config{Scheme: sc, K: 3, ClockGating: true, Balanced: true}, set.Tables)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		rng := rand.New(rand.NewSource(38))
		for i := 0; i < 400; i++ {
			addr := ip.Addr(rng.Uint32())
			vn := rng.Intn(3)
			var got ip.NextHop
			if sc == VM {
				got = pipeline.Lookup(r.Images()[0], pipeline.Request{Addr: addr, VN: vn})
			} else {
				got = pipeline.Lookup(r.Images()[vn], pipeline.Request{Addr: addr})
			}
			if want := refs[vn].Lookup(addr); got != want {
				t.Fatalf("%s balanced: lookup(vn=%d, %s) = %d, want %d", sc, vn, addr, got, want)
			}
		}
	}
}

// TestHybridDistRAM: mapping small stages to distributed RAM must cut
// memory power (no block floor for near-empty stages) without touching
// static or logic power, and record the LUT-RAM demand on the placement.
func TestHybridDistRAM(t *testing.T) {
	prof := paperProf(t)
	plain, err := BuildAnalytic(Config{Scheme: VS, K: 8, ClockGating: true}, prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := BuildAnalytic(Config{Scheme: VS, K: 8, ClockGating: true, DistRAMThreshold: 4096}, prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	bp, _ := plain.ModelPower()
	bh, _ := hybrid.ModelPower()
	if bh.Memory >= bp.Memory {
		t.Errorf("hybrid memory power %.4f not below BRAM-only %.4f", bh.Memory, bp.Memory)
	}
	if bh.Static != bp.Static {
		t.Errorf("hybrid changed static power: %.3f vs %.3f", bh.Static, bp.Static)
	}
	if hybrid.Placement().Used.DistRAMBits == 0 {
		t.Error("hybrid placement records no distributed RAM")
	}
	if plain.Placement().Used.DistRAMBits != 0 {
		t.Error("plain placement records distributed RAM")
	}
	// Fewer BRAM blocks must be placed under hybrid.
	if hybrid.Placement().Used.BRAM18 >= plain.Placement().Used.BRAM18 {
		t.Errorf("hybrid BRAM blocks %d not below plain %d",
			hybrid.Placement().Used.BRAM18, plain.Placement().Used.BRAM18)
	}
}

func TestLatencyNS(t *testing.T) {
	prof := paperProf(t)
	r, err := BuildAnalytic(Config{Scheme: VS, K: 2, ClockGating: true}, prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 28.0 * 1e3 / r.Fmax()
	if got := r.LatencyNS(); math.Abs(got-want) > 1e-9 {
		t.Errorf("LatencyNS = %g, want %g", got, want)
	}
	// ~28 cycles at ~300 MHz ≈ 90-140 ns, the class of figures FPGA
	// lookup pipelines report.
	if r.LatencyNS() < 50 || r.LatencyNS() > 200 {
		t.Errorf("latency %g ns implausible", r.LatencyNS())
	}
}

// TestBuildIndependentOfWorkers: Build builds its tries and compiles its
// images side by side on the sweep pool, so the router — every image's words,
// derived words, Levels and jump table, and the priced design — must be the
// same at one worker and at four, for every scheme.
func TestBuildIndependentOfWorkers(t *testing.T) {
	defer sweep.SetWorkers(0)
	set, err := rib.GenerateVirtualSet(6, 500, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range Schemes() {
		var want *Router
		for _, workers := range []int{1, 4} {
			sweep.SetWorkers(workers)
			r, err := Build(Config{Scheme: sc, K: 6, ClockGating: true}, set.Tables)
			if err != nil {
				t.Fatalf("%s: %v", sc, err)
			}
			if want != nil {
				if !reflect.DeepEqual(r, want) {
					t.Errorf("%s: %d workers build another router than one worker", sc, workers)
				}
				continue
			}
			for i, img := range r.Images() {
				if reflect.ValueOf(img).Elem().FieldByName("jump").Len() == 0 {
					t.Fatalf("%s: image %d has no jump table to compare", sc, i)
				}
			}
			want = r
		}
	}
}
