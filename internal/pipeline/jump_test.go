package pipeline

// Tests of the jump table over the image's upper trie levels (flat.go)
// and of the two lanes it splits the sweep into (batch.go): the table against
// the chain walk slot by slot, the jump lane against the walked lane alone on
// clean and corrupt images, upsets in the stages the table stands for under a
// streaming engine, and the corners of the depth rule.

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vrpower/internal/energy"
	"vrpower/internal/ip"
	"vrpower/internal/obs"
	"vrpower/internal/power"
	"vrpower/internal/rib"
	"vrpower/internal/sweep"
	"vrpower/internal/trie"
)

// jumpFixture is one compiled image large enough to have a jump table.
type jumpFixture struct {
	name string
	k    int
	img  *Image
}

// jumpFixtures compiles single-network and merged tables under the plain
// maps (one level a stage; six levels folded into stage 0) and under balanced
// ones, which put several levels into stages in the middle of the pipe.
func jumpFixtures(t *testing.T) []jumpFixture {
	t.Helper()
	balanced := func(nodes []int) trie.StageMap {
		weights := make([]int64, len(nodes))
		for l, n := range nodes {
			weights[l] = int64(n)
		}
		sm, err := trie.NewBalancedStageMap(12, weights)
		if err != nil {
			t.Fatal(err)
		}
		return sm
	}

	uni := NewRoutes([]*rib.Table{genTable(t, 600, 4)})
	var nodes []int
	for _, l := range uni.Levels {
		nodes = append(nodes, l.Nodes)
	}
	uniBalanced, err := uni.Compile(balanced(nodes))
	if err != nil {
		t.Fatal(err)
	}

	set, err := rib.GenerateVirtualSet(3, 500, 0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	merged := NewRoutes(set.Tables)
	nodes = nodes[:0]
	for _, l := range merged.Levels {
		nodes = append(nodes, l.Nodes)
	}
	mergedBalanced, err := merged.Compile(balanced(nodes))
	if err != nil {
		t.Fatal(err)
	}

	folded, _ := compileSet(t, 2, 400, 28, 5)
	return []jumpFixture{
		{"uni/plain", 1, compileSingle(t, genTable(t, 400, 3), 28)},
		{"uni/balanced", 1, uniBalanced},
		{"merged/plain", 3, compileMerged(t, 3, 500, 7, 28)},
		{"merged/balanced", 3, mergedBalanced},
		{"merged/folded", 2, folded},
	}
}

// corruptions are the damaged variants of an image the tests run beside the
// clean one. Each strikes words in the stages the image's jump table stands
// for (and, the flips, anywhere else too). An in-range pointer to the wrong
// word can close a loop inside a folded stage, which the chain walk and the
// scalar engine never come out of — only the sweep, with its fixed trip count,
// does — so wild marks damage that only the sweep may meet unchecked, and
// inParity damage the check does not stop either.
var corruptions = []struct {
	name           string
	wild, inParity bool
	apply          func(rng *rand.Rand, img *Image, covered int)
}{
	{name: "clean", apply: func(*rand.Rand, *Image, int) {}},
	{name: "flips", wild: true, apply: func(rng *rand.Rand, img *Image, covered int) {
		// Upsets with stale parity, half of them in covered stages.
		for i := 0; i < 60; i++ {
			s, idx, bit, _ := img.Locate(rng.Int63n(img.DataBits()))
			if i%2 == 0 {
				s = rng.Intn(covered)
				idx = uint32(rng.Intn(img.StageLen(s)))
			}
			if s > 0 || idx > 0 { // not the root: checked, no lookup would get past it
				img.FlipBit(s, idx, bit)
			}
		}
	}},
	{name: "escapes", inParity: true, apply: func(rng *rand.Rand, img *Image, covered int) {
		// Pointers past every stage's range, below the root.
		for s := 0; s < covered; s++ {
			for i := 1; i < img.StageLen(s); i++ {
				if !img.Entry(s, uint32(i)).Leaf && rng.Intn(6) == 0 {
					poke(img, s, uint32(i), func(e *Entry) {
						e.Child[rng.Intn(2)] = 1<<29 + uint32(rng.Intn(1024))
						e.Parity = e.DataParity()
					})
				}
			}
		}
	}},
	{name: "strays", wild: true, inParity: true, apply: func(rng *rand.Rand, img *Image, covered int) {
		// Pointers to some other word of the child's stage, of the right
		// level or not; the last one struck points at noJump's own value.
		lastS, lastI := -1, uint32(0)
		for s := 0; s < covered; s++ {
			for i := 1; i < img.StageLen(s); i++ {
				if !img.Entry(s, uint32(i)).Leaf && rng.Intn(6) == 0 {
					poke(img, s, uint32(i), func(e *Entry) {
						to := img.StageLen(img.Map.Stage(e.Level + 1))
						e.Child[rng.Intn(2)] = uint32(rng.Intn(to))
						e.Parity = e.DataParity()
					})
					lastS, lastI = s, uint32(i)
				}
			}
		}
		poke(img, lastS, lastI, func(e *Entry) {
			e.Child = [2]uint32{noJump, noJump}
			e.Parity = e.DataParity()
		})
	}},
}

// TestJumpDepthRule pins the table's depth on the fixtures to the rule: the
// first level of a stage, at most maxJumpBits, no more slots than the image has
// entries, and the deepest level that is all three.
func TestJumpDepthRule(t *testing.T) {
	for _, fx := range jumpFixtures(t) {
		img := fx.img
		if img.jump == nil {
			t.Fatalf("%s: no jump table on a %d-entry image", fx.name, img.Words())
		}
		want := 0
		for l := 1; l <= maxJumpBits && 1<<l <= img.Words(); l++ {
			if img.Map.Stage(l) != img.Map.Stage(l-1) {
				want = l
			}
		}
		if got := 32 - int(img.jumpShift); got != want || img.jumpStage != img.Map.Stage(want) || len(img.jump) != 1<<want {
			t.Errorf("%s: table of %d slots over %d bits into stage %d, want %d bits into stage %d",
				fx.name, len(img.jump), got, img.jumpStage, want, img.Map.Stage(want))
		}
	}
}

// TestJumpTableMatchesWalk is the table against the chain walk: every slot
// holds the entry at which slot.walk, taken with the check on through the
// stages below jumpStage, enters jumpStage for that bit pattern, and noJump
// exactly where that walk ends or faults on the way.
func TestJumpTableMatchesWalk(t *testing.T) {
	for _, fx := range jumpFixtures(t) {
		for ci, c := range corruptions {
			if c.wild && c.inParity {
				continue // the walk may not come back from those; the lanes test has them
			}
			img := fx.img.Clone()
			c.apply(rand.New(rand.NewSource(int64(ci))), img, img.jumpStage)
			flat := Flatten(img)
			if !flat.Equal(img) {
				t.Fatalf("%s/%s: the image's derived words are not what Flatten derives", fx.name, c.name)
			}
			if flat.jump == nil {
				t.Fatalf("%s/%s: no jump table", fx.name, c.name)
			}
			jumps := 0
			for p, got := range flat.jump {
				w := chain{addr: uint32(p) << flat.jumpShift, newUntil: -1}
				ended, _, _ := w.walk(flat, true, flat.jumpStage-1, nil)
				want := w.idx
				if ended {
					want = noJump
				} else {
					jumps++
				}
				if got != want {
					t.Fatalf("%s/%s: jump[%#x] = %#x, the walk says %#x (ended %v in stage %d)",
						fx.name, c.name, p, got, want, ended, w.stage)
				}
			}
			if jumps == 0 || jumps == len(flat.jump) {
				t.Errorf("%s/%s: %d of %d slots jump; want some of each kind", fx.name, c.name, jumps, len(flat.jump))
			}
		}
	}
}

// withoutJump makes b serve the words of its image without the jump table:
// every flight takes the walked lane, as before there was a table.
func withoutJump(b *BatchSim) *BatchSim {
	img := b.cur.Clone()
	img.jump, img.jumpStage = nil, 0
	b.cur = img
	return b
}

// streamAll pushes reqs through b one per cycle, every tenth cycle idle,
// draining when the engine is full and once the pipe has emptied.
func streamAll(b *BatchSim, reqs []Request) ([]Exit, Stats) {
	var exits []Exit
	for i, r := range reqs {
		if i%10 == 9 {
			b.Idle(int64(2 * i))
		}
		if b.Full() {
			exits = drainAll(b, exits)
		}
		b.Inject(r, int64(2*i+1))
		if b.Full() {
			exits = drainAll(b, exits)
		}
	}
	for s := 0; s < b.nStages; s++ {
		b.Idle(-1)
	}
	return drainAll(b, exits), b.Stats()
}

// TestJumpLanesMatchWalkedLane runs every fixture, clean and corrupt, parity
// check off and on, through an engine with the jump table and one without:
// Run (back to back and gapped), RunSharded and a streamed run must agree on
// every result, every Stats cell and the meter the results charge. Both lanes
// must have had flights, or the comparison shows nothing.
func TestJumpLanesMatchWalkedLane(t *testing.T) {
	for _, fx := range jumpFixtures(t) {
		model, err := energy.NewModel(power.SystemDesign{
			FMHz: 250, Devices: 1,
			Engines: []power.EngineDesign{{StageBits: stageBitsOf(fx.img), Utilization: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		// charge is chargeMeter with the foreign VNs of randReqs billed to VN 0.
		charge := func(results []Result) *energy.Meter {
			billed := slices.Clone(results)
			for i := range billed {
				if billed[i].VN < 0 || billed[i].VN >= fx.k {
					billed[i].VN = 0
				}
			}
			return chargeMeter(model, fx.k, billed)
		}
		for ci, c := range corruptions {
			for _, parity := range []bool{false, true} {
				name := fx.name + "/" + c.name
				if parity {
					name += "/checked"
				}
				img := fx.img.Clone()
				rng := rand.New(rand.NewSource(int64(100 + ci)))
				c.apply(rng, img, img.jumpStage)
				engines := func() (with, without *BatchSim) {
					with, without = NewBatchSim(img), withoutJump(NewBatchSim(img))
					if parity {
						with.EnableParityCheck()
						without.EnableParityCheck()
					}
					return with, without
				}
				traceEvery := 53
				if c.wild && (c.inParity || !parity) {
					traceEvery = 0 // traced lookups take the chain walk
				}
				reqs := randReqs(rng, 2600, fx.k, traceEvery)
				reqs[7].VN = math.MaxInt // beyond the engines' 32 bits: no route, as any VN the leaf lacks

				with, without := engines()
				served := with.cur
				if served.jump == nil || without.cur.jump != nil {
					t.Fatalf("%s: engines not set up with and without a table", name)
				}
				jumpers := 0
				for _, r := range reqs {
					if served.jump[uint32(r.Addr)>>served.jumpShift] != noJump {
						jumpers++
					}
				}
				if jumpers == 0 || jumpers == len(reqs) {
					t.Fatalf("%s: %d of %d requests jump; want flights in both lanes", name, jumpers, len(reqs))
				}

				for _, gap := range []int{1, 3} {
					got, gotSt, err := with.Run(reqs, gap)
					if err != nil {
						t.Fatal(err)
					}
					want, wantSt, err := without.Run(reqs, gap)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Run (gap %d) results differ with and without the table", name, gap)
					}
					if !reflect.DeepEqual(gotSt, wantSt) {
						t.Fatalf("%s: Run (gap %d) stats differ:\nwith    %+v\nwithout %+v", name, gap, gotSt, wantSt)
					}
					if !reflect.DeepEqual(charge(got), charge(want)) {
						t.Fatalf("%s: Run (gap %d) meters differ", name, gap)
					}
				}

				sweep.SetWorkers(2)
				with, without = engines()
				got, gotSt := runSharded(t, with, reqs)
				want, wantSt := runSharded(t, without, reqs)
				sweep.SetWorkers(0)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotSt, wantSt) {
					t.Fatalf("%s: RunSharded differs with and without the table:\nwith    %+v\nwithout %+v", name, gotSt, wantSt)
				}

				with, without = engines()
				gotX, gotSt := streamAll(with, reqs)
				wantX, wantSt := streamAll(without, reqs)
				if !reflect.DeepEqual(gotX, wantX) {
					t.Fatalf("%s: streamed exits differ with and without the table", name)
				}
				if !reflect.DeepEqual(gotSt, wantSt) {
					t.Fatalf("%s: streamed stats differ:\nwith    %+v\nwithout %+v", name, gotSt, wantSt)
				}
				if len(gotX) != len(reqs) {
					t.Fatalf("%s: %d exits for %d lookups", name, len(gotX), len(reqs))
				}
			}
		}
	}
}

// TestJumpTableUpsetsMidStream strikes the stages the table stands for under
// a streaming engine, in lockstep with the scalar one: the child pointer a
// busy path follows out of stage 0, then the stored parity of a word in the last
// covered stage on another. The struck image's table drops the struck
// patterns at once — every exit equals the scalar engine's, faults in the
// struck stages included — while a neighbour serving its own clone keeps its
// table and its answers, and a clean reinstall jumps again.
func TestJumpTableUpsetsMidStream(t *testing.T) {
	pristine, routed := compileSet(t, 2, 400, 28, 5)
	for _, every := range drainCadences {
		for _, eachStats := range []bool{false, true} {
			img := pristine.Clone()
			neighbour := NewBatchSim(pristine.Clone())
			p := newPair(t, img, true, every)
			p.eachStats = eachStats
			if img.jump == nil {
				t.Fatal("the fixture has no jump table")
			}
			slotOf := func(img *Image, a ip.Addr) uint32 { return img.jump[uint32(a)>>img.jumpShift] }

			// Two busy paths that part at the root.
			first, _ := deepPath(t, img, routed, img.jumpStage+1)
			var other []ip.Addr
			for _, a := range routed {
				if a>>31 != first.Addr>>31 {
					other = append(other, a)
				}
			}
			second, at2 := deepPath(t, img, other, img.jumpStage+1)
			if slotOf(img, first.Addr) == noJump || slotOf(img, second.Addr) == noJump {
				t.Fatal("the deep paths do not jump on the clean image")
			}
			rng := rand.New(rand.NewSource(11))
			traffic := func(n int) {
				for i := 0; i < n; i++ {
					r := Request{Addr: routed[rng.Intn(len(routed))], VN: rng.Intn(2), Trace: i%9 == 0}
					switch i % 3 {
					case 0:
						r.Addr = first.Addr
					case 1:
						r.Addr = second.Addr
					}
					p.inject(&r)
				}
			}

			traffic(50)
			// The pointer first follows out of stage 0: stale parity there.
			var v0 obs.StageVisit
			for _, v := range tracedVisits(t, img, first.Addr) {
				if v.Stage == 0 {
					v0 = v
				}
			}
			if v0.Entry == 0 {
				t.Fatal("stage 0 holds the root alone: the fixture should fold levels into it")
			}
			level := img.Entry(0, v0.Entry).Level
			p.batched.Patch(func() { img.FlipBit(0, v0.Entry, 18*first.Addr.Bit(level)) })
			if slotOf(img, first.Addr) != noJump || slotOf(img, second.Addr) == noJump {
				t.Fatal("the struck image's table does not drop the struck path alone")
			}
			traffic(50)

			// The stored parity of second's word in the last covered stage.
			v := at2[img.jumpStage-1]
			p.batched.Patch(func() { poke(img, v.Stage, v.Entry, func(e *Entry) { e.Parity ^= 1 }) })
			if slotOf(img, second.Addr) != noJump {
				t.Fatal("the table still jumps over a stale-parity word")
			}
			if !Flatten(img).Equal(img) {
				t.Fatal("the struck image's derived words are not what Flatten derives")
			}
			traffic(50)

			if !neighbour.cur.Equal(pristine) {
				t.Fatal("the neighbour's clone changed")
			}
			probes := []Request{first, second, {Addr: first.Addr, VN: 1}, {Addr: second.Addr, VN: 1}}
			got, _ := streamAll(neighbour, probes)
			want, _ := streamAll(NewBatchSim(pristine), probes)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("the neighbour's exits changed:\ngot  %+v\nwant %+v", got, want)
			}

			// A clean reinstall serves a full table again.
			p.load(pristine.Clone(), true)
			if f := p.batched.cur; f.jump == nil || slotOf(f, first.Addr) == noJump || slotOf(f, second.Addr) == noJump {
				t.Fatal("the reinstalled engine does not jump")
			}
			traffic(30)
			p.finish()

			struck := map[int]int{}
			for _, r := range p.out {
				if r.Faulted {
					struck[r.LastStage]++
				}
			}
			if struck[0] == 0 || struck[v.Stage] == 0 || len(struck) != 2 {
				t.Fatalf("faults by stage %v; want some in stage 0 and stage %d only — weaken the test", struck, v.Stage)
			}
		}
	}
}

// TestJumpTableCorners: the images the depth rule and the builder meet at
// their edges, each held to the scalar engine.
func TestJumpTableCorners(t *testing.T) {
	compile := func(routes []ip.Route, stages int) *Image {
		img, err := Compile([]*rib.Table{{Routes: routes}}, stages)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	diff := func(img *Image, k int, extra ...Request) []Result {
		rng := rand.New(rand.NewSource(5))
		reqs := append(randReqs(rng, 1500, k, 41), extra...)
		scalar, batched := NewSim(img), NewBatchSim(img)
		diffRun(t, scalar, batched, reqs, 1)
		res, _, err := NewBatchSim(img).Run(extra, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	t.Run("default route only", func(t *testing.T) {
		img := compile([]ip.Route{{Prefix: ip.Prefix{}, NextHop: 5}}, 28)
		if img.jump != nil || img.jumpStage != 0 {
			t.Fatalf("a one-entry image has a %d-slot table into stage %d", len(img.jump), img.jumpStage)
		}
		if res := diff(img, 1, Request{Addr: 0xC0000201}); res[0].NHI != 5 || res[0].LastStage != 0 {
			t.Errorf("default route resolved to %+v", res[0])
		}
	})

	t.Run("leaf above the table's depth", func(t *testing.T) {
		short, _ := ip.PrefixFrom(0xC0000000, 3)
		routes := []ip.Route{{Prefix: short, NextHop: 9}}
		for _, r := range genTable(t, 400, 6).Routes {
			if r.Prefix.Addr&ip.Mask(3) != short.Addr {
				routes = append(routes, r)
			}
		}
		img := compile(routes, 28)
		if img.jump == nil || 32-img.jumpShift <= 3 {
			t.Fatalf("table over %d bits; want one deeper than the /3", 32-int(img.jumpShift))
		}
		lo, hi := uint32(short.Addr)>>img.jumpShift, uint32(short.Addr|^ip.Mask(3))>>img.jumpShift
		for p := lo; p <= hi; p++ {
			if img.jump[p] != noJump {
				t.Fatalf("jump[%#x] = %d under a /3 leaf", p, img.jump[p])
			}
		}
		res := diff(img, 1, Request{Addr: 0xC8010203}, Request{Addr: 0xDFFFFFFF})
		for _, r := range res {
			if r.NHI != 9 || r.LastStage != img.Map.Stage(3) || r.LastStage >= img.jumpStage {
				t.Errorf("lookup under the /3 resolved to %+v", r)
			}
		}
	})

	t.Run("empty stages", func(t *testing.T) {
		// A shallow trie leaves the deep stages empty; the table must stop
		// above them.
		var routes []ip.Route
		for i := 0; i < 256; i += 2 {
			p, _ := ip.PrefixFrom(ip.Addr(i)<<24, 8)
			routes = append(routes, ip.Route{Prefix: p, NextHop: ip.NextHop(1 + i%7)})
		}
		img := compile(routes, 28)
		if img.jump == nil || img.StageLen(img.jumpStage) == 0 {
			t.Fatalf("table into stage %d of a trie 8 levels deep", img.jumpStage)
		}
		diff(img, 1)

		// A covered stage that lost its memory: every walk that gets there
		// faults, so no pattern jumps past it.
		entries := allEntries(img)
		entries[img.jumpStage-1] = nil
		hole, err := NewImage(img.K, img.Map, entries)
		if err != nil {
			t.Fatal(err)
		}
		img = hole
		if hole.jump != nil {
			for p, idx := range hole.jump {
				if idx != noJump {
					t.Fatalf("jump[%#x] = %d across an empty stage", p, idx)
				}
			}
		}
		diff(img, 1)
	})

	t.Run("merged leaves and foreign VNs", func(t *testing.T) {
		img := compileMerged(t, 3, 500, 7, 28)
		if img.jump == nil {
			t.Fatal("no jump table")
		}
		a := ip.Addr(0x0A000001)
		res := diff(img, 3, Request{Addr: a, VN: -1}, Request{Addr: a, VN: 3}, Request{Addr: a, VN: math.MaxInt}, Request{Addr: a, VN: 2})
		for _, r := range res[:3] {
			if r.NHI != ip.NoRoute || r.Faulted || r.LastStage != res[3].LastStage {
				t.Errorf("VN %d: %+v; want no route, unfaulted, in the stage VN 2 ends in (%d)", r.VN, r, res[3].LastStage)
			}
		}
	})
}
