package netsim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/packet"
	"vrpower/internal/pipeline"
	"vrpower/internal/rib"
	"vrpower/internal/scenario"
	"vrpower/internal/sweep"
	"vrpower/internal/traffic"
)

func buildSystem(t *testing.T, sc core.Scheme, k int) (*System, []*rib.Table) {
	t.Helper()
	set, err := rib.GenerateVirtualSet(k, 400, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Build(core.Config{Scheme: sc, K: k, ClockGating: true}, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(r, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	return s, set.Tables
}

func gen(t *testing.T, k int, tables []*rib.Table, n int) []traffic.Packet {
	t.Helper()
	g, err := traffic.New(traffic.Config{K: k, Seed: 13, Addr: traffic.RoutedAddr, Tables: tables})
	if err != nil {
		t.Fatal(err)
	}
	return g.Batch(n)
}

func TestForwardZeroMismatchesAllSchemes(t *testing.T) {
	for _, sc := range core.Schemes() {
		s, tables := buildSystem(t, sc, 4)
		rep, err := s.Forward(gen(t, 4, tables, 3000))
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if rep.Mismatches != 0 {
			t.Errorf("%s: %d mismatches out of %d packets", sc, rep.Mismatches, rep.Packets)
		}
		if rep.Packets != 3000 {
			t.Errorf("%s: packets = %d", sc, rep.Packets)
		}
		// Routed traffic should essentially always match a prefix.
		if rep.NoRoute > rep.Packets/100 {
			t.Errorf("%s: %d no-route results for routed traffic", sc, rep.NoRoute)
		}
	}
}

func TestForwardUniformLoadSplit(t *testing.T) {
	s, tables := buildSystem(t, core.VS, 5)
	rep, err := s.Forward(gen(t, 5, tables, 20000))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.EngineLoad) != 5 {
		t.Fatalf("engine load entries = %d", len(rep.EngineLoad))
	}
	for e, load := range rep.EngineLoad {
		if math.Abs(load-0.2) > 0.02 {
			t.Errorf("engine %d load %.3f, want 0.2 ± 0.02 (Assumption 1)", e, load)
		}
	}
}

func TestForwardMergedSingleEngine(t *testing.T) {
	s, tables := buildSystem(t, core.VM, 3)
	rep, err := s.Forward(gen(t, 3, tables, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.EngineLoad) != 1 {
		t.Fatalf("merged scheme should have 1 engine, got %d", len(rep.EngineLoad))
	}
	if rep.EngineLoad[0] != 1.0 {
		t.Errorf("merged engine load %.2f, want 1.0 (time-shared)", rep.EngineLoad[0])
	}
	if rep.Mismatches != 0 {
		t.Errorf("%d mismatches", rep.Mismatches)
	}
}

func TestForwardRejectsBadVN(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 2)
	if _, err := s.Forward([]traffic.Packet{{VN: 5}}); err == nil {
		t.Error("out-of-range VN accepted")
	}
}

func TestNewValidation(t *testing.T) {
	set, err := rib.GenerateVirtualSet(2, 100, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Build(core.Config{Scheme: core.VS, K: 2, ClockGating: true}, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(r, set.Tables[:1]); err == nil {
		t.Error("table count mismatch accepted")
	}
	// Analytic builds have no engines to simulate.
	prof, err := core.PaperProfile()
	if err != nil {
		t.Fatal(err)
	}
	ra, err := core.BuildAnalytic(core.Config{Scheme: core.VS, K: 2, ClockGating: true}, prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(ra, set.Tables); err == nil {
		t.Error("analytic router accepted for simulation")
	}
}

func TestForwardEmpty(t *testing.T) {
	s, _ := buildSystem(t, core.NV, 2)
	rep, err := s.Forward(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packets != 0 || rep.Mismatches != 0 {
		t.Errorf("empty run report %+v", rep)
	}
}

func TestForwardFramesAllSchemes(t *testing.T) {
	for _, sc := range core.Schemes() {
		s, tables := buildSystem(t, sc, 3)
		g, err := traffic.New(traffic.Config{K: 3, Seed: 21, Addr: traffic.RoutedAddr, Tables: tables})
		if err != nil {
			t.Fatal(err)
		}
		frames, err := g.Frames(2000)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.ForwardFrames(frames)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if rep.Mismatches != 0 {
			t.Errorf("%s: %d lookup mismatches", sc, rep.Mismatches)
		}
		if rep.BadParse != 0 || rep.UnknownVN != 0 {
			t.Errorf("%s: unexpected drops: %+v", sc, rep)
		}
		if rep.Forwarded+rep.NoRoute+rep.TTLExpired != rep.Frames {
			t.Errorf("%s: counters don't sum: %+v", sc, rep)
		}
		if rep.Forwarded < rep.Frames*9/10 {
			t.Errorf("%s: only %d/%d forwarded", sc, rep.Forwarded, rep.Frames)
		}
	}
}

func TestForwardFramesEditsAreValid(t *testing.T) {
	s, tables := buildSystem(t, core.VM, 2)
	g, err := traffic.New(traffic.Config{K: 2, Seed: 22, Addr: traffic.RoutedAddr, Tables: tables})
	if err != nil {
		t.Fatal(err)
	}
	frames, err := g.Frames(500)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot TTLs before forwarding.
	ttls := make([]int, len(frames))
	for i, buf := range frames {
		f, err := packet.Parse(buf)
		if err != nil {
			t.Fatal(err)
		}
		ttls[i] = f.TTL
	}
	rep, err := s.ForwardFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Forwarded == 0 {
		t.Fatal("nothing forwarded")
	}
	// Every forwarded frame must re-parse with a valid checksum and a
	// decremented TTL; next-hop MACs must carry the 0x02FE prefix.
	edited := 0
	for i, buf := range frames {
		f, err := packet.Parse(buf)
		if err != nil {
			t.Fatalf("frame %d unparseable after forwarding: %v", i, err)
		}
		if f.TTL == ttls[i]-1 {
			edited++
			if f.Dst[0] != 0x02 || f.Dst[1] != 0xFE {
				t.Fatalf("frame %d: next-hop MAC %s not synthesised from NHI", i, f.Dst)
			}
		}
	}
	if edited != rep.Forwarded {
		t.Errorf("%d frames edited, report says %d forwarded", edited, rep.Forwarded)
	}
}

// TestForwardFramesIsForward: frames built from a packet batch, every one
// well-formed and with a TTL to spare, run through ForwardFrames exactly as
// the batch runs through Forward — the same report, energy included, and the
// same sampled traces.
func TestForwardFramesIsForward(t *testing.T) {
	for _, sc := range core.Schemes() {
		s, tables := buildSystem(t, sc, 3)
		pkts := gen(t, 3, tables, 3000)
		frames := make([][]byte, len(pkts))
		for i, p := range pkts {
			var err error
			if frames[i], err = packet.Build(packet.MAC{0x02, 0, 0, 0, 0, 1}, packet.MAC{0x02, 0, 0, 0, 0, 2}, p.VN, 0, 0, p.Addr, 64, 40); err != nil {
				t.Fatal(err)
			}
		}
		tel := testTelemetry(0.05, 99)
		s.SetTelemetry(tel)
		rep, err := s.Forward(pkts)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		ftel := testTelemetry(0.05, 99)
		s.SetTelemetry(ftel)
		frep, err := s.ForwardFrames(frames)
		s.SetTelemetry(nil)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if !reflect.DeepEqual(frep.Report, rep) {
			t.Errorf("%s: frame run's report %+v, want Forward's %+v", sc, frep.Report, rep)
		}
		if frep.Forwarded != rep.Packets-rep.NoRoute {
			t.Errorf("%s: %d frames forwarded, want %d", sc, frep.Forwarded, rep.Packets-rep.NoRoute)
		}
		traces, ftraces := tel.Traces.Snapshot(), ftel.Traces.Snapshot()
		if len(traces) == 0 || !reflect.DeepEqual(ftraces, traces) {
			t.Errorf("%s: frame run kept %d traces, Forward %d: want the same, non-empty", sc, len(ftraces), len(traces))
		}
	}
}

// TestForwardFramesDeterministicAcrossWorkers: each shard checks and edits
// the frames of the chunks it sweeps, and the merged engine is split into
// shards like Forward's, so the report and every edited frame must be the same
// at any worker count, for every scheme — with frames forwarded, dropped for
// want of a route and expired.
func TestForwardFramesDeterministicAcrossWorkers(t *testing.T) {
	defer sweep.SetWorkers(0)
	for _, sc := range core.Schemes() {
		s, tables := buildSystem(t, sc, 3)
		var want FrameReport
		var wantFrames [][]byte
		for i, workers := range []int{1, 2, 8} {
			sweep.SetWorkers(workers)
			frames := mixedFrames(t, tables, 6000)
			if sc == core.VM && workers > 1 && pipeline.Shards(len(frames)) < 2 {
				t.Fatalf("%d workers: the merged engine runs unsharded", workers)
			}
			rep, err := s.ForwardFrames(frames)
			if err != nil {
				t.Fatalf("%s: %v", sc, err)
			}
			if i == 0 {
				if rep.Forwarded == 0 || rep.NoRoute == 0 || rep.TTLExpired == 0 || rep.Mismatches != 0 {
					t.Fatalf("%s: %+v: want frames forwarded, unrouted and expired, no mismatch", sc, rep)
				}
				want, wantFrames = rep, frames
				continue
			}
			if !reflect.DeepEqual(rep, want) {
				t.Errorf("%s: workers=%d report %+v, want %+v", sc, workers, rep, want)
			}
			if !reflect.DeepEqual(frames, wantFrames) {
				t.Errorf("%s: workers=%d: edited frames differ from -j1's", sc, workers)
			}
		}
	}
}

// mixedFrames is n frames over routed traffic, every fifth with a uniformly
// drawn destination and every seventh rebuilt with a TTL of 1.
func mixedFrames(t *testing.T, tables []*rib.Table, n int) [][]byte {
	t.Helper()
	routed, err := traffic.New(traffic.Config{K: len(tables), Seed: 24, Addr: traffic.RoutedAddr, Tables: tables})
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := traffic.New(traffic.Config{K: len(tables), Seed: 25, Addr: traffic.UniformAddr})
	if err != nil {
		t.Fatal(err)
	}
	frames, err := routed.Frames(n)
	if err != nil {
		t.Fatal(err)
	}
	stray, err := uniform.Frames(n / 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stray {
		frames[5*i] = stray[i]
	}
	for i := 0; i < n; i += 7 {
		f, err := packet.Parse(frames[i])
		if err != nil {
			t.Fatal(err)
		}
		if frames[i], err = packet.Build(f.Dst, f.Src, f.VNID, f.Priority, f.SrcIP, f.DstIP, 1, f.TotalLen-packet.IPv4HeaderLen); err != nil {
			t.Fatal(err)
		}
	}
	return frames
}

func TestForwardFramesDropCauses(t *testing.T) {
	s, tables := buildSystem(t, core.VS, 2)
	g, err := traffic.New(traffic.Config{K: 2, Seed: 23, Addr: traffic.RoutedAddr, Tables: tables})
	if err != nil {
		t.Fatal(err)
	}
	frames, err := g.Frames(10)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt frame 0 (bad checksum), retag frame 1 with an unknown VNID.
	frames[0][packet.EthHeaderLen+packet.VLANTagLen+16] ^= 0xFF
	frames[1][14] = 0x0F
	frames[1][15] = 0xFF // VID 4095 >> K
	rep, err := s.ForwardFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BadParse != 1 {
		t.Errorf("BadParse = %d, want 1", rep.BadParse)
	}
	if rep.UnknownVN != 1 {
		t.Errorf("UnknownVN = %d, want 1", rep.UnknownVN)
	}
	if rep.Forwarded != 8 {
		t.Errorf("Forwarded = %d, want 8 (%+v)", rep.Forwarded, rep)
	}
}

// TestLoadTestValidation: an offered load outside [0,1] or an empty ingress
// queue is refused by the spec grammar before it reaches the runner.
func TestLoadTestValidation(t *testing.T) {
	for _, bad := range []string{"load=const:-0.1", "load=const:1.5", "load=const:0.5,queue=0"} {
		if _, err := scenario.Parse(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// loadRun builds a fresh K-network router over its own tables and offers it
// the given constant per-network load for 20 000 cycles.
func loadRun(t *testing.T, sc core.Scheme, k, prefixes int, seed int64, load float64, queue int) ScenarioReport {
	t.Helper()
	set, err := rib.GenerateVirtualSet(k, prefixes, 0.5, seed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Build(core.Config{Scheme: sc, K: k, ClockGating: true}, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(r, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	return runSpec(t, sys, seed+1, fmt.Sprintf("load=const:%g,cycles=20000,queue=%d", load, queue))
}

// TestLoadSharingLimitation reproduces the Section IV-C merged drawback:
// below the shared capacity both schemes deliver everything; past it, the
// merged engine drops while the separate engines still keep up.
func TestLoadSharingLimitation(t *testing.T) {
	run := func(sc core.Scheme, load float64) ScenarioReport {
		return loadRun(t, sc, 4, 300, 32, load, 64)
	}
	// Light load (10% per VN -> 40% aggregate): both deliver ~everything.
	lightVS := run(core.VS, 0.10)
	if f := lightVS.DeliveredFraction(); f < 0.99 {
		t.Errorf("VS at light load delivered %.3f, want ~1", f)
	}
	lightVM := run(core.VM, 0.10)
	if f := lightVM.DeliveredFraction(); f < 0.99 {
		t.Errorf("VM at light load delivered %.3f, want ~1", f)
	}

	// Heavy load (60% per VN -> 2.4x the merged engine's capacity): the
	// separate scheme still absorbs it (each engine sees only 0.6), the
	// merged one cannot exceed 1/2.4 ≈ 0.42 of the offered traffic.
	heavyVS := run(core.VS, 0.60)
	if f := heavyVS.DeliveredFraction(); f < 0.99 {
		t.Errorf("VS at heavy load delivered %.3f, want ~1 (dedicated engines)", f)
	}
	heavyVM := run(core.VM, 0.60)
	if f := heavyVM.DeliveredFraction(); f > 0.50 || f < 0.35 {
		t.Errorf("VM at heavy load delivered %.3f, want ≈ 1/(K·load) = 0.42", f)
	}
	var drops int64
	for _, d := range heavyVM.DroppedPerVN {
		drops += d
	}
	if drops == 0 {
		t.Error("VM at heavy load dropped nothing")
	}
	// Queueing delay must blow up at saturation relative to light load.
	if heavyVM.MeanDelayCycles < 2*lightVM.MeanDelayCycles {
		t.Errorf("VM saturation delay %.1f not well above light-load delay", heavyVM.MeanDelayCycles)
	}
}

// TestLoadTestFairSaturation: the merged engine's round-robin ingress must
// split its capacity evenly across networks when all are overloaded.
func TestLoadTestFairSaturation(t *testing.T) {
	rep := loadRun(t, core.VM, 4, 200, 51, 0.8, 32)
	var min, max int64 = 1 << 62, 0
	for _, d := range rep.DeliveredPerVN {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if min == 0 || float64(max-min)/float64(max) > 0.02 {
		t.Errorf("saturated merged delivery unfair: min %d, max %d", min, max)
	}
}

// bytesPerCall is what run allocates a call, in bytes, averaged over a few
// calls after a warm-up one (which builds the reference tables' lazy index).
func bytesPerCall(run func()) float64 {
	run()
	const calls = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / calls
}

// TestForwardAllocsPerPacket pins that a closed-loop run stages no
// per-engine copy of its batch: what Forward allocates per packet — the
// growth from 4 096 to 65 536 packets, so the report, the meters and the
// fan-out cancel out — is nothing on the merged engine, which reads the
// batch in place, and at most the 4-byte batch index on per-network ones.
// ForwardFrames may add to what parsing allocates per frame only the 8-byte
// slot of the parsed frame and that index.
func TestForwardAllocsPerPacket(t *testing.T) {
	const small, large = 4096, 65536
	const slack = 0.5 // bytes a packet: the runtime's own allocations
	perPacket := func(cost func(n int) float64) float64 {
		return (cost(large) - cost(small)) / (large - small)
	}
	parse := perPacket(func(n int) float64 {
		frames := framesOf(t, 3, nil, n)
		return bytesPerCall(func() {
			for _, buf := range frames {
				if _, err := packet.Parse(buf); err != nil {
					t.Fatal(err)
				}
			}
		})
	})
	defer sweep.SetWorkers(0)
	for _, sc := range core.Schemes() {
		s, tables := buildSystem(t, sc, 3)
		index := 4.0 // bytes a packet of the per-network schemes' batch index
		if sc == core.VM {
			index = 0
		}
		for _, workers := range []int{1, 8} {
			sweep.SetWorkers(workers)
			fwd := perPacket(func(n int) float64 {
				pkts := gen(t, 3, tables, n)
				return bytesPerCall(func() {
					if _, err := s.Forward(pkts); err != nil {
						t.Fatal(err)
					}
				})
			})
			frm := perPacket(func(n int) float64 {
				frames := framesOf(t, 3, tables, n)
				return bytesPerCall(func() {
					if _, err := s.ForwardFrames(frames); err != nil {
						t.Fatal(err)
					}
				})
			})
			t.Logf("%s workers=%d: Forward %.2f B a packet; ForwardFrames %.2f B a frame, parsing %.2f", sc, workers, fwd, frm, parse)
			if fwd > index+slack {
				t.Errorf("%s workers=%d: Forward allocates %.2f B a packet, want at most %.0f", sc, workers, fwd, index)
			}
			if frm > parse+8+index+slack {
				t.Errorf("%s workers=%d: ForwardFrames allocates %.2f B a frame, parsing %.2f: want at most %.0f more", sc, workers, frm, parse, 8+index)
			}
		}
	}
}

// framesOf generates n frames over k networks, at routed addresses when
// tables are given.
func framesOf(t *testing.T, k int, tables []*rib.Table, n int) [][]byte {
	t.Helper()
	cfg := traffic.Config{K: k, Seed: 19}
	if tables != nil {
		cfg.Addr, cfg.Tables = traffic.RoutedAddr, tables
	}
	g, err := traffic.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := g.Frames(n)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}
