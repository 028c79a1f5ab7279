// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating the exact rows/series via internal/experiments,
// logged with -v), the ablation benches DESIGN.md calls out, and raw
// performance benchmarks of the substrates.
//
// Run: go test -bench=. -benchmem
package vrpower_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"vrpower"
	"vrpower/internal/core"
	"vrpower/internal/ctrl"
	"vrpower/internal/experiments"
	"vrpower/internal/fpga"
	"vrpower/internal/ip"
	"vrpower/internal/merge"
	"vrpower/internal/netsim"
	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
	"vrpower/internal/report"
	"vrpower/internal/rib"
	"vrpower/internal/scenario"
	"vrpower/internal/sweep"
	"vrpower/internal/traffic"
	"vrpower/internal/trie"
	"vrpower/internal/update"
)

// logOnce renders a figure/table into the benchmark log a single time.
var logged sync.Map

func logOnceF(b *testing.B, key, text string) {
	if _, dup := logged.LoadOrStore(key, true); !dup {
		b.Log("\n" + text)
	}
}

func BenchmarkTableII(b *testing.B) {
	var t *report.Table
	for i := 0; i < b.N; i++ {
		t = experiments.TableII()
	}
	logOnceF(b, "tableII", t.String())
}

func BenchmarkTableIII(b *testing.B) {
	var t *report.Table
	for i := 0; i < b.N; i++ {
		t = experiments.TableIII()
	}
	logOnceF(b, "tableIII", t.String())
}

func BenchmarkTrieCalibration(b *testing.B) {
	var t *report.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.TrieCalibration()
		if err != nil {
			b.Fatal(err)
		}
	}
	logOnceF(b, "triecal", t.String())
}

func BenchmarkFig2(b *testing.B) {
	var f *report.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Fig2()
	}
	logOnceF(b, "fig2", f.String())
}

func BenchmarkFig3(b *testing.B) {
	var f *report.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Fig3()
	}
	logOnceF(b, "fig3", f.String())
}

func BenchmarkFig4(b *testing.B) {
	var ptr, nhi *report.Figure
	var err error
	for i := 0; i < b.N; i++ {
		ptr, nhi, err = experiments.Fig4()
		if err != nil {
			b.Fatal(err)
		}
	}
	logOnceF(b, "fig4", ptr.String()+"\n"+nhi.String())
	// Headline: separate pointer memory at K=30 (Mb).
	sep := ptr.Series[len(ptr.Series)-1]
	b.ReportMetric(sep.Y[len(sep.Y)-1], "sepPtrMb@K30")
}

func benchGradeFigure(b *testing.B, key string, gen func(vrpower.SpeedGrade) (*report.Figure, error)) map[string]*report.Figure {
	out := map[string]*report.Figure{}
	for _, g := range fpga.Grades() {
		var f *report.Figure
		var err error
		for i := 0; i < b.N; i++ {
			f, err = gen(g)
			if err != nil {
				b.Fatal(err)
			}
		}
		logOnceF(b, key+g.String(), f.String())
		out[g.String()] = f
	}
	return out
}

func BenchmarkFig5(b *testing.B) {
	figs := benchGradeFigure(b, "fig5", experiments.Fig5)
	nv := figs["-2"].Series[0]
	b.ReportMetric(nv.Y[len(nv.Y)-1], "NV@K15_W")
	vs := figs["-2"].Series[1]
	b.ReportMetric(vs.Y[len(vs.Y)-1], "VS@K15_W")
}

func BenchmarkFig6(b *testing.B) {
	figs := benchGradeFigure(b, "fig6", experiments.Fig6)
	vs := figs["-2"].Series[0]
	b.ReportMetric(vs.Y[0]-vs.Y[len(vs.Y)-1], "VSdrop_W")
}

func BenchmarkFig7(b *testing.B) {
	figs := benchGradeFigure(b, "fig7", experiments.Fig7)
	worst := 0.0
	for _, f := range figs {
		for _, s := range f.Series {
			for _, y := range s.Y {
				if y < 0 {
					y = -y
				}
				if y > worst {
					worst = y
				}
			}
		}
	}
	b.ReportMetric(worst, "worstErrPct")
}

func BenchmarkFig8(b *testing.B) {
	figs := benchGradeFigure(b, "fig8", experiments.Fig8)
	for _, s := range figs["-2"].Series {
		switch s.Name {
		case "VS":
			b.ReportMetric(s.Y[len(s.Y)-1], "VS@K15_mW/Gbps")
		case "VM(α=20%)":
			b.ReportMetric(s.Y[len(s.Y)-1], "VM20@K15_mW/Gbps")
		}
	}
}

// --- Ablation benches (DESIGN.md Section 5) ---

func analyticRouter(b *testing.B, cfg vrpower.Config, alpha float64) *vrpower.Router {
	b.Helper()
	prof, err := vrpower.PaperProfile()
	if err != nil {
		b.Fatal(err)
	}
	r, err := vrpower.BuildAnalytic(cfg, prof, alpha)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkAblationStageMapping compares pipeline depths: shallower
// pipelines fold more levels per stage (wider memories, slower clock, less
// logic power); 33 stages maps levels one-to-one.
func BenchmarkAblationStageMapping(b *testing.B) {
	for _, stages := range []int{8, 16, 28, 33} {
		b.Run(itoa(stages), func(b *testing.B) {
			var total, fmax float64
			for i := 0; i < b.N; i++ {
				r := analyticRouter(b, vrpower.Config{
					Scheme: vrpower.VS, K: 8, Stages: stages, ClockGating: true,
				}, 0)
				p, err := r.ModelPower()
				if err != nil {
					b.Fatal(err)
				}
				total, fmax = p.Total(), r.Fmax()
			}
			b.ReportMetric(total, "W")
			b.ReportMetric(fmax, "MHz")
		})
	}
}

// BenchmarkAblationBRAMPacking compares 18 Kb vs 36 Kb block packing for
// the merged scheme (Table III's two block models).
func BenchmarkAblationBRAMPacking(b *testing.B) {
	for _, mode := range []fpga.BRAMMode{fpga.BRAM18Mode, fpga.BRAM36Mode} {
		b.Run(mode.String(), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				r := analyticRouter(b, vrpower.Config{
					Scheme: vrpower.VM, K: 8, Mode: mode, ClockGating: true,
				}, 0.2)
				p, err := r.ModelPower()
				if err != nil {
					b.Fatal(err)
				}
				total = p.Total()
			}
			b.ReportMetric(total, "W")
		})
	}
}

// BenchmarkAblationClockGating quantifies Section IV's idle gating: without
// it, every engine burns full-rate dynamic power regardless of duty cycle.
func BenchmarkAblationClockGating(b *testing.B) {
	for _, gating := range []bool{true, false} {
		name := "gated"
		if !gating {
			name = "ungated"
		}
		b.Run(name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				r := analyticRouter(b, vrpower.Config{
					Scheme: vrpower.VS, K: 8, ClockGating: gating,
				}, 0)
				p, err := r.ModelPower()
				if err != nil {
					b.Fatal(err)
				}
				total = p.Total()
			}
			b.ReportMetric(total, "W")
		})
	}
}

// BenchmarkAblationSimExec compares the cycle-loop simulator against the
// batched engine on the same lookup stream.
func BenchmarkAblationSimExec(b *testing.B) {
	set, err := vrpower.GenerateVirtualSet(4, 1000, 0.5, 5)
	if err != nil {
		b.Fatal(err)
	}
	r, err := vrpower.Build(vrpower.Config{Scheme: vrpower.VM, K: 4, ClockGating: true}, set.Tables)
	if err != nil {
		b.Fatal(err)
	}
	img := r.Images()[0]
	gen, err := vrpower.NewTraffic(vrpower.TrafficConfig{
		K: 4, Seed: 6, Addr: vrpower.RoutedAddr, Tables: set.Tables,
	})
	if err != nil {
		b.Fatal(err)
	}
	reqs := gen.Requests(4096)
	// Simulator construction is hoisted and iterations Reset, so the timed
	// loop measures lookups, not NewSim plus stats allocation.
	b.Run("cycleloop", func(b *testing.B) {
		sim := pipeline.NewSim(img)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.Reset()
			if _, _, err := sim.Run(reqs, 1); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
	})
	b.Run("batched", func(b *testing.B) {
		sim := pipeline.NewBatchSim(img)
		res := make([]pipeline.Result, 0, len(reqs))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.Reset()
			var err error
			if res, _, err = sim.RunAppend(res[:0], reqs, 1); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
	})
}

// --- Substrate performance benches ---

// pipelineLookupFixture builds the full-table image and request stream the
// pipeline lookup benches share.
func pipelineLookupFixture(b *testing.B) (*pipeline.Image, []pipeline.Request) {
	b.Helper()
	tbl, err := vrpower.Generate("bench", 3725, 1)
	if err != nil {
		b.Fatal(err)
	}
	r, err := vrpower.Build(vrpower.Config{Scheme: vrpower.VS, K: 1, ClockGating: true}, []*vrpower.Table{tbl})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := vrpower.NewTraffic(vrpower.TrafficConfig{
		K: 1, Seed: 8, Addr: vrpower.RoutedAddr, Tables: []*vrpower.Table{tbl},
	})
	if err != nil {
		b.Fatal(err)
	}
	return r.Images()[0], gen.Requests(8192)
}

// BenchmarkPipelineLookup is the repo's headline lookup metric (ROADMAP
// item 2, gated in CI by `make bench-gate`): the batched, data-oriented
// engine on the paper's full 3725-prefix table. Construction is hoisted and
// iterations Reset, so the timed loop measures lookups; the untraced
// batched path must report 0 allocs/op.
func BenchmarkPipelineLookup(b *testing.B) {
	img, reqs := pipelineLookupFixture(b)
	sim := pipeline.NewBatchSim(img)
	res := make([]pipeline.Result, 0, len(reqs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Reset()
		var err error
		if res, _, err = sim.RunAppend(res[:0], reqs, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

// BenchmarkPipelineLookupScalar is the cycle-accurate oracle on the same
// fixture — the before/after reference for the batched speedup and the
// second bench the CI gate tracks.
func BenchmarkPipelineLookupScalar(b *testing.B) {
	img, reqs := pipelineLookupFixture(b)
	sim := pipeline.NewSim(img)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Reset()
		if _, _, err := sim.Run(reqs, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

// BenchmarkLookupStreamed is the slice runners' use of an engine (gated in
// CI by `make bench-gate`): parity checking on, one input slot per cycle,
// nine cycles in ten carrying a lookup (load 0.9), on the paper's 3725-prefix
// table. "batched" is the engine every runner serves from — a record per
// lookup, a clock tick per idle cycle, settled and drained every
// pipeline.SettleCycles steps; "scalar" is the cycle-stepped oracle it must
// keep ahead of, a Result back per cycle.
func BenchmarkLookupStreamed(b *testing.B) {
	img, reqs := pipelineLookupFixture(b)
	b.Run("batched", func(b *testing.B) {
		sim := pipeline.NewBatchSim(img)
		sim.EnableParityCheck()
		b.ReportAllocs()
		var done int
		count := func(exits []pipeline.Exit) { done += len(exits) }
		for i := 0; i < b.N; i++ {
			sim.Reset()
			for j := range reqs {
				if j%10 == 9 {
					sim.Idle(int64(j))
				} else {
					sim.Inject(reqs[j], int64(j))
				}
				if sim.Full() {
					sim.Drain(count)
				}
			}
			sim.Drain(count)
		}
		b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "lookups/s")
	})
	b.Run("scalar", func(b *testing.B) {
		sim := pipeline.NewSim(img)
		sim.EnableParityCheck()
		b.ReportAllocs()
		var done int
		for i := 0; i < b.N; i++ {
			sim.Reset()
			for j := range reqs {
				req := &reqs[j]
				if j%10 == 9 {
					req = nil
				}
				if _, ok := sim.Inject(req); ok {
					done++
				}
			}
		}
		b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "lookups/s")
	})
}

// BenchmarkServeSlice is the slice loop on its own (gated in CI by `make
// bench-gate`): the benchmark's load_small shape — VS K=4, 400 prefixes per
// network, load=const:0.9, 32-packet queues, series and event log attached —
// through RunScenario, one op per 1024-cycle slice: arrivals, queues, engine
// pushes, settling the exits against the oracle, the meter and the slice's
// telemetry row. Set-up is outside the timer; the engines' construction
// inside it, spread over b.N slices.
func BenchmarkServeSlice(b *testing.B) {
	const k = 4
	set, err := rib.GenerateVirtualSet(k, 400, 0.5, 1)
	if err != nil {
		b.Fatal(err)
	}
	r, err := core.Build(core.Config{Scheme: core.VS, K: k, ClockGating: true}, set.Tables)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := netsim.New(r, set.Tables)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := traffic.New(traffic.Config{K: k, Seed: 2, Addr: traffic.RoutedAddr, Tables: set.Tables})
	if err != nil {
		b.Fatal(err)
	}
	sys.SetTelemetry(&netsim.Telemetry{Series: obs.NewTimeSeries(), Events: obs.NewEventLog(obs.LevelInfo)})
	spec, err := scenario.Parse(fmt.Sprintf("load=const:0.9,cycles=%d,queue=32,seed=11", b.N*1024))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	rep, err := sys.RunScenario(gen, spec)
	if err != nil {
		b.Fatal(err)
	}
	if rep.Mismatches != 0 || rep.SliceCycles != 1024 {
		b.Fatalf("%d mismatches, %d-cycle slices", rep.Mismatches, rep.SliceCycles)
	}
	var delivered int64
	for _, n := range rep.DeliveredPerVN {
		delivered += n
	}
	b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "lookups/s")
}

// referenceFixture is the forward_paper oracle load: the eight 3725-route
// tables of the paper's set-up and routed uniform traffic over them.
func referenceFixture(b *testing.B) ([]*vrpower.Table, []pipeline.Request) {
	b.Helper()
	set, err := vrpower.GenerateVirtualSet(8, 3725, 0.5, 1)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := vrpower.NewTraffic(vrpower.TrafficConfig{
		K: 8, Seed: 2, Addr: vrpower.RoutedAddr, Tables: set.Tables,
	})
	if err != nil {
		b.Fatal(err)
	}
	return set.Tables, gen.Requests(8192)
}

var referenceSink int

// BenchmarkReferenceLookup times the reference LPM (ip.Table) every
// simulated lookup is checked against — 8192 lookups per op, 0 allocs/op.
// Gated by `make bench-gate`: the oracle runs once per packet in every
// netsim runner, so a regression here is a regression of every run.
func BenchmarkReferenceLookup(b *testing.B) {
	tables, reqs := referenceFixture(b)
	refs := make([]*ip.Table, len(tables))
	for i, t := range tables {
		refs[i] = t.Reference()
	}
	b.ReportAllocs()
	b.ResetTimer()
	routed := 0
	for i := 0; i < b.N; i++ {
		for _, q := range reqs {
			if refs[q.VN].Lookup(q.Addr) != ip.NoRoute {
				routed++
			}
		}
	}
	referenceSink = routed
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

// BenchmarkReferenceLookupAll times the same 8192 lookups as
// BenchmarkReferenceLookup the way the netsim verify loops make them: in
// 512-request chunks, each counting-sorted by VN as Forward's shards sort a
// merged engine's chunk, with one Table.LookupAll per network's run —
// grouping included, 0 allocs/op. Gated by `make bench-gate`.
func BenchmarkReferenceLookupAll(b *testing.B) {
	tables, reqs := referenceFixture(b)
	refs := make([]*ip.Table, len(tables))
	for i, t := range tables {
		refs[i] = t.Reference()
	}
	const chunk = 512
	addrs, want := make([]ip.Addr, chunk), make([]ip.NextHop, chunk)
	at := make([]int, len(refs)+1)
	b.ReportAllocs()
	b.ResetTimer()
	routed := 0
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < len(reqs); lo += chunk {
			c := reqs[lo:min(lo+chunk, len(reqs))]
			clear(at)
			for _, q := range c {
				at[q.VN+1]++
			}
			for vn := range refs {
				at[vn+1] += at[vn]
			}
			for _, q := range c {
				addrs[at[q.VN]] = q.Addr
				at[q.VN]++
			}
			start := 0
			for vn, ref := range refs {
				ref.LookupAll(addrs[start:at[vn]], want[start:at[vn]])
				start = at[vn]
			}
			for _, nh := range want[:len(c)] {
				if nh != ip.NoRoute {
					routed++
				}
			}
		}
	}
	referenceSink = routed
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

// BenchmarkReferenceBuild times Table.Reference() — one sort of the routes,
// the per-length arrays and the range index — plus a first Lookup over the
// same eight tables: what netsim.New, every hitless commit and every audit
// over a churned table pay to get a usable oracle.
func BenchmarkReferenceBuild(b *testing.B) {
	tables, reqs := referenceFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range tables {
			referenceSink += int(t.Reference().Lookup(reqs[0].Addr))
		}
	}
}

// imageFixture is the paper's set-up counted and ready to compile, as a
// function that compiles it from the routes: the eight 3725-route tables as
// separate engines plus their K=8 merge — the images of a VS and a VM router.
func imageFixture(b *testing.B) func() []*pipeline.Image {
	b.Helper()
	tables, _ := referenceFixture(b)
	routes := make([]pipeline.Routes, 0, len(tables)+1)
	for i := range tables {
		routes = append(routes, pipeline.NewRoutes(tables[i:i+1]))
	}
	routes = append(routes, pipeline.NewRoutes(tables))
	maps := make([]trie.StageMap, len(routes))
	for i, r := range routes {
		var err error
		if maps[i], err = trie.NewStageMap(core.DefaultStages, len(r.Levels)-1); err != nil {
			b.Fatal(err)
		}
	}
	return func() []*pipeline.Image {
		images := make([]*pipeline.Image, len(routes))
		for i, r := range routes {
			var err error
			if images[i], err = r.Compile(maps[i]); err != nil {
				b.Fatal(err)
			}
		}
		return images
	}
}

var imageSink []*pipeline.Image

// BenchmarkImageCompile times the routes→stage-memory compiler alone (the
// routes counted outside the loop): nine images per op, a write pass each. Gated by `make bench-gate`:
// every scrub, hitless batch, migration and router build pays this, and its
// allocs/op is what the run's GC sees.
func BenchmarkImageCompile(b *testing.B) {
	compile := imageFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imageSink = compile()
	}
}

// BenchmarkImageClone times Image.Clone over the same nine images: what a
// data plane pays to serve a clone of a pristine image, one header each, the
// words being copied only by a first write: nine allocs/op, and more would
// mean clones copy again.
func BenchmarkImageClone(b *testing.B) {
	images := imageFixture(b)()
	clones := make([]*pipeline.Image, len(images))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, img := range images {
			clones[j] = img.Clone()
		}
	}
	imageSink = clones
}

var flatSink *pipeline.Image

// BenchmarkImageFlatten times pipeline.Flatten — a copy of the image with
// every derived word (verdicts, fold flags, visit counts, jump table)
// recomputed from the stored ones — over the same nine images: the
// compiler's last step, and what follows a stage splice. Gated by
// `make bench-gate`.
func BenchmarkImageFlatten(b *testing.B) {
	images := imageFixture(b)()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, img := range images {
			flatSink = pipeline.Flatten(img)
		}
	}
}

var hitlessSink int

var routerSink *core.Router

// BenchmarkBuildMerged times core.Build of the paper's VM router, eight
// 3725-route tables merged into one engine — count pass, pricing and
// compile — with the tables generated outside the timer: forward_paper's
// set-up without its oracles. Gated by `make bench-gate`.
func BenchmarkBuildMerged(b *testing.B) {
	tables, _ := referenceFixture(b)
	cfg := core.Config{Scheme: core.VM, K: 8, ClockGating: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.Build(cfg, tables)
		if err != nil {
			b.Fatal(err)
		}
		routerSink = r
	}
}

// BenchmarkSetupFill times set-up at full-RIB scale: core.Build of a VS
// router over one 300 000-prefix table, then netsim.New, which builds its
// oracle. The table is generated outside the timer. Gated by `make
// bench-gate`.
func BenchmarkSetupFill(b *testing.B) {
	tbl, err := rib.Generate("fill", 300000, 1)
	if err != nil {
		b.Fatal(err)
	}
	tables := []*rib.Table{tbl}
	cfg := core.Config{Scheme: core.VS, K: 1, ClockGating: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.Build(cfg, tables)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := netsim.New(r, tables); err != nil {
			b.Fatal(err)
		}
		routerSink = r
	}
}

// churnFill is the churn table's 100 k row (lookupsim -scheme VS -k 1
// -prefixes 100000: tables at seed 1, traffic at seed 2): one VS engine over
// 100 000 prefixes. runChurnFill runs spec over it and fails on any mismatch
// and on a network whose offered packets are not its delivered plus dropped.
func churnFill(tb testing.TB) (*netsim.System, []*rib.Table) {
	tb.Helper()
	set, err := rib.GenerateVirtualSet(1, 100000, 0.5, 1)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := core.Build(core.Config{Scheme: core.VS, K: 1, ClockGating: true}, set.Tables)
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := netsim.New(r, set.Tables)
	if err != nil {
		tb.Fatal(err)
	}
	return sys, set.Tables
}

func runChurnFill(tb testing.TB, sys *netsim.System, gen *traffic.Generator, spec scenario.Spec) netsim.ScenarioReport {
	tb.Helper()
	rep, err := sys.RunScenario(gen, spec)
	if err != nil {
		tb.Fatal(err)
	}
	if rep.Mismatches != 0 || !rep.Completed || rep.BatchesApplied == 0 {
		tb.Fatalf("%d mismatches, completed %v, %d batches applied", rep.Mismatches, rep.Completed, rep.BatchesApplied)
	}
	for vn, off := range rep.OfferedPerVN {
		if del, drop := rep.DeliveredPerVN[vn], rep.DroppedPerVN[vn]; off != del+drop {
			tb.Fatalf("network %d: %d offered, %d delivered + %d dropped", vn, off, del, drop)
		}
	}
	return rep
}

func churnFillTraffic(tb testing.TB, tables []*rib.Table) *traffic.Generator {
	tb.Helper()
	gen, err := traffic.New(traffic.Config{K: 1, Seed: 2, Addr: traffic.RoutedAddr, Tables: tables})
	if err != nil {
		tb.Fatal(err)
	}
	return gen
}

// BenchmarkChurnFill times the churn table's 100 k row, an op one run of
// load=const:0.5,churn=8x24,seed=11 (make churn-smoke's spec): every batch
// compiles an image of the whole table and serves a clone of it, so a clone
// that copies its words costs an image's bytes a batch. Set-up and traffic
// are outside the timer. Gated by `make bench-gate`.
func BenchmarkChurnFill(b *testing.B) {
	sys, tables := churnFill(b)
	spec, err := scenario.Parse("load=const:0.5,churn=8x24,seed=11")
	if err != nil {
		b.Fatal(err)
	}
	var delivered int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gen := churnFillTraffic(b, tables)
		b.StartTimer()
		rep := runChurnFill(b, sys, gen, spec)
		if got := fmt.Sprintf("%.4f", rep.DeliveredFraction()); got != "0.0039" {
			b.Fatalf("delivered fraction %s, want 0.0039", got)
		}
		delivered += rep.DeliveredPerVN[0]
	}
	b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "lookups/s")
}

// TestChurnFillSmallScale pins BenchmarkChurnFill's run at 1/32 of its length
// (1024 traffic cycles, the same eight batches) by its report's digest, at
// one sweep worker and at eight.
func TestChurnFillSmallScale(t *testing.T) {
	defer sweep.SetWorkers(0)
	sys, tables := churnFill(t)
	spec, err := scenario.Parse("load=const:0.5,churn=8x24,cycles=1024,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		sweep.SetWorkers(workers)
		rep := runChurnFill(t, sys, churnFillTraffic(t, tables), spec)
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%x", sha256.Sum256(js)), "d916f8e18ac31e9760deafd1e6baaf7a9f111afa8fd0bea45eccf72f11ced911"; got != want {
			t.Errorf("%d workers: report digest %s, want %s (delivered %.4f, %d batches)", workers, got, want, rep.DeliveredFraction(), rep.BatchesApplied)
		}
	}
}

// forwardFill is item 21's closed-loop fill shape: one VS engine over
// BenchmarkSetupFill's 300 000-prefix table, and traffic at seed 2 to routed
// addresses. runForwardFill forwards pkts through System.Forward and fails
// on any mismatch, on a packet the engine did not resolve, on energy that
// does not add up (netsim.New's meter checks its axes) and on a delivered
// fraction other than 1.
func forwardFill(tb testing.TB) (*netsim.System, *traffic.Generator) {
	tb.Helper()
	tbl, err := rib.Generate("fill", 300000, 1)
	if err != nil {
		tb.Fatal(err)
	}
	tables := []*rib.Table{tbl}
	r, err := core.Build(core.Config{Scheme: core.VS, K: 1, ClockGating: true}, tables)
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := netsim.New(r, tables)
	if err != nil {
		tb.Fatal(err)
	}
	gen, err := traffic.New(traffic.Config{K: 1, Seed: 2, Addr: traffic.RoutedAddr, Tables: tables})
	if err != nil {
		tb.Fatal(err)
	}
	return sys, gen
}

func runForwardFill(tb testing.TB, sys *netsim.System, pkts []traffic.Packet) netsim.Report {
	tb.Helper()
	rep, err := sys.Forward(pkts)
	if err != nil {
		tb.Fatal(err)
	}
	var lookups int64
	for _, st := range rep.PerEngine {
		lookups += st.Lookups
	}
	if rep.Mismatches != 0 || rep.Packets != len(pkts) || lookups != int64(len(pkts)) || rep.Energy == nil || rep.Energy.Lookups != lookups {
		tb.Fatalf("%d mismatches; %d packets of %d forwarded, %d resolved, energy %+v", rep.Mismatches, rep.Packets, len(pkts), lookups, rep.Energy)
	}
	if got := fmt.Sprintf("%.4f", float64(rep.Packets-rep.NoRoute)/float64(rep.Packets)); got != "1.0000" {
		tb.Fatalf("delivered fraction %s, want 1.0000", got)
	}
	return rep
}

// forwardFillPackets is BenchmarkForwardFill's batch: 2^18 packets.
const forwardFillPackets = 1 << 18

// BenchmarkForwardFill times item 21's closed loop at full-RIB scale, an op
// one System.Forward of 2^18 packets over one VS engine of 300 000 routes
// (the walk leaves the cache here, unlike at the paper's 3 725). Set-up and
// traffic are outside the timer. Gated by `make bench-gate`.
func BenchmarkForwardFill(b *testing.B) {
	sys, gen := forwardFill(b)
	pkts := gen.Batch(forwardFillPackets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runForwardFill(b, sys, pkts)
	}
	b.ReportMetric(float64(b.N)*forwardFillPackets/b.Elapsed().Seconds(), "lookups/s")
}

// TestForwardFillSmallScale pins BenchmarkForwardFill's run at 1/32 of its
// length (2^13 packets) by its report's digest, at one sweep worker and at
// eight.
func TestForwardFillSmallScale(t *testing.T) {
	defer sweep.SetWorkers(0)
	sys, gen := forwardFill(t)
	pkts := gen.Batch(forwardFillPackets / 32)
	for _, workers := range []int{1, 8} {
		sweep.SetWorkers(workers)
		pinDigest(t, workers, runForwardFill(t, sys, pkts), "7d45fe7bf146ad738d8073b25437aae1836a56928196e328c1521e0c816a8c98")
	}
}

// loadFill is item 21's open-loop fill shape: a VS router of eight
// 30 000-route networks, traffic at seed 2 to routed addresses, Zipf over
// the networks.
func loadFill(tb testing.TB) (*netsim.System, []*rib.Table) {
	tb.Helper()
	set, err := rib.GenerateVirtualSet(8, 30000, 0.5, 1)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := core.Build(core.Config{Scheme: core.VS, K: 8, ClockGating: true}, set.Tables)
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := netsim.New(r, set.Tables)
	if err != nil {
		tb.Fatal(err)
	}
	return sys, set.Tables
}

func loadFillTraffic(tb testing.TB, tables []*rib.Table) *traffic.Generator {
	tb.Helper()
	gen, err := traffic.New(traffic.Config{K: 8, Seed: 2, Addr: traffic.RoutedAddr, Tables: tables, Dist: traffic.Zipf})
	if err != nil {
		tb.Fatal(err)
	}
	return gen
}

// runLoadFill runs spec and fails on any mismatch, an incomplete run, a
// network whose offered packets are not its delivered plus dropped, and a
// delivered fraction other than want.
func runLoadFill(tb testing.TB, sys *netsim.System, gen *traffic.Generator, spec scenario.Spec, want string) netsim.ScenarioReport {
	tb.Helper()
	rep, err := sys.RunScenario(gen, spec)
	if err != nil {
		tb.Fatal(err)
	}
	if rep.Mismatches != 0 || !rep.Completed {
		tb.Fatalf("%d mismatches, completed %v", rep.Mismatches, rep.Completed)
	}
	for vn, off := range rep.OfferedPerVN {
		if del, drop := rep.DeliveredPerVN[vn], rep.DroppedPerVN[vn]; off != del+drop {
			tb.Fatalf("network %d: %d offered, %d delivered + %d dropped", vn, off, del, drop)
		}
	}
	if got := fmt.Sprintf("%.4f", rep.DeliveredFraction()); got != want {
		tb.Fatalf("delivered fraction %s, want %s", got, want)
	}
	return rep
}

// BenchmarkLoadFill times item 21's open loop at full-RIB scale, an op one
// run of load=const:0.9 for 65 536 cycles over loadFill's router. Set-up
// and traffic are outside the timer. Gated by `make bench-gate`.
func BenchmarkLoadFill(b *testing.B) {
	sys, tables := loadFill(b)
	spec, err := scenario.Parse("load=const:0.9,cycles=65536")
	if err != nil {
		b.Fatal(err)
	}
	var delivered int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gen := loadFillTraffic(b, tables)
		b.StartTimer()
		rep := runLoadFill(b, sys, gen, spec, "1.0000")
		for _, d := range rep.DeliveredPerVN {
			delivered += d
		}
	}
	b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "lookups/s")
}

// TestLoadFillSmallScale pins BenchmarkLoadFill's run at 1/32 of its length
// (2048 cycles) by its report's digest, at one sweep worker and at eight.
func TestLoadFillSmallScale(t *testing.T) {
	defer sweep.SetWorkers(0)
	sys, tables := loadFill(t)
	spec, err := scenario.Parse("load=const:0.9,cycles=2048")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		sweep.SetWorkers(workers)
		pinDigest(t, workers, runLoadFill(t, sys, loadFillTraffic(t, tables), spec, "1.0000"), "be467ec217a98fffe4a3ca94cd3d65d53e550200d701e40a9b445ada5b06fe2f")
	}
}

// pinDigest fails unless rep's JSON hashes to want.
func pinDigest(t *testing.T, workers int, rep any, want string) {
	t.Helper()
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(js)); got != want {
		t.Errorf("%d workers: report digest %s, want %s", workers, got, want)
	}
}

// TestTrieNodesHoldNoPointers: every slice a trie or a merged trie keeps —
// its nodes, route links and leaf vectors — holds records with no pointer,
// slice, map or string in them, so the garbage collector never scans one.
func TestTrieNodesHoldNoPointers(t *testing.T) {
	var pointerFree func(ty reflect.Type) bool
	pointerFree = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Float32, reflect.Float64:
			return true
		case reflect.Array:
			return pointerFree(ty.Elem())
		case reflect.Struct:
			for i := range ty.NumField() {
				if !pointerFree(ty.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false
	}
	for _, c := range []struct {
		trie   reflect.Type
		slices int // nodes; merged: links, leaf vectors and push scratch too
	}{{reflect.TypeFor[trie.Trie](), 1}, {reflect.TypeFor[merge.Trie](), 4}} {
		n := 0
		for i := range c.trie.NumField() {
			if f := c.trie.Field(i); f.Type.Kind() == reflect.Slice {
				n++
				if !pointerFree(f.Type.Elem()) {
					t.Errorf("%s.%s holds %s, which has a pointer in it", c.trie, f.Name, f.Type.Elem())
				}
			}
		}
		if n != c.slices {
			t.Errorf("%s keeps %d slices, want %d", c.trie, n, c.slices)
		}
	}
	for _, node := range []reflect.Type{reflect.TypeFor[trie.Node](), reflect.TypeFor[merge.Node]()} {
		if !pointerFree(node) {
			t.Errorf("%s has a pointer in it", node)
		}
	}
}

// TestRebuildAllocatesNothing: once a trie and a merged trie have been built
// over the paper's tables, rebuilding them over the same tables — what the
// control plane does for every compile — reuses their slices.
func TestRebuildAllocatesNothing(t *testing.T) {
	set, err := vrpower.GenerateVirtualSet(8, 3725, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := trie.Build(set.Tables[0].Routes)
	m, err := merge.Build(set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(3, func() {
		tr.Rebuild(set.Tables[0].Routes)
		if err := m.Rebuild(set.Tables); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("trie and merged Rebuild allocate %v times, want 0", n)
	}
}

// BenchmarkHitlessPrepare times what the control plane does to get one churn
// batch ready for the data plane, chaos_vs's shape: a VS router of three
// 3725-route tables, a 24-op batch against one of them — coalesce, apply,
// compile from the routes under the pinned map, diff against the
// kept image, the clone the engine will serve — then Abort, so every
// iteration prepares against the same tables. Gated by `make bench-gate`.
func BenchmarkHitlessPrepare(b *testing.B) {
	set, err := vrpower.GenerateVirtualSet(3, 3725, 0.5, 1)
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := ctrl.New(core.Config{Scheme: core.VS, K: 3, ClockGating: true}, set.Tables)
	if err != nil {
		b.Fatal(err)
	}
	ops, err := update.Churn(mgr.Tables()[1], 24, update.ChurnConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := mgr.BeginHitlessUpdate(1, ops)
		if err != nil {
			b.Fatal(err)
		}
		hitlessSink += h.Writes()
		h.Abort()
	}
}

// itoa formats n without strconv. It works in negatives so math.MinInt
// (whose magnitude overflows int) formats correctly too.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if !neg {
		n = -n
	}
	var buf [21]byte // sign + 20 digits covers 64-bit ints
	i := len(buf)
	for n < 0 {
		i--
		buf[i] = byte('0' - n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// BenchmarkAblationBalancedMapping compares the plain fold-into-stage-0
// level mapping against the memory-balanced partition (paper refs [7,8])
// on the block-heavy merged scheme.
func BenchmarkAblationBalancedMapping(b *testing.B) {
	for _, balanced := range []bool{false, true} {
		name := "plain"
		if balanced {
			name = "balanced"
		}
		b.Run(name, func(b *testing.B) {
			var fmax, eff float64
			for i := 0; i < b.N; i++ {
				r := analyticRouter(b, vrpower.Config{
					Scheme: vrpower.VM, K: 12, ClockGating: true, Balanced: balanced,
				}, 0.2)
				p, err := r.ModelPower()
				if err != nil {
					b.Fatal(err)
				}
				fmax = r.Fmax()
				eff = vrpower.MilliwattsPerGbps(p.Total(), r.ThroughputGbps())
			}
			b.ReportMetric(fmax, "MHz")
			b.ReportMetric(eff, "mW/Gbps")
		})
	}
}

// BenchmarkAblationHybridMemory compares BRAM-only stage memories (the
// paper's simplifying assumption in Section V-B) against the hybrid that
// maps small stages to distributed RAM, avoiding near-empty 18 Kb blocks.
func BenchmarkAblationHybridMemory(b *testing.B) {
	for _, thr := range []int64{0, 4096} {
		name := "bram-only"
		if thr > 0 {
			name = "hybrid-4Kb"
		}
		b.Run(name, func(b *testing.B) {
			var mem float64
			for i := 0; i < b.N; i++ {
				r := analyticRouter(b, vrpower.Config{
					Scheme: vrpower.VS, K: 8, ClockGating: true, DistRAMThreshold: thr,
				}, 0)
				p, err := r.ModelPower()
				if err != nil {
					b.Fatal(err)
				}
				mem = p.Memory
			}
			b.ReportMetric(mem*1e3, "memory_mW")
		})
	}
}
