package pipeline

// Tests of the compile's cut into parts (compile.go) and of the jump table's
// per-part rebuild (flat.go): a compile run inline and on the sweep pool at
// any worker count writes the same words, each part's jump walks read only
// its own words, and an upset patched one part at a time leaves the table a
// fresh build would make.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vrpower/internal/ip"
	"vrpower/internal/rib"
	"vrpower/internal/sweep"
	"vrpower/internal/trie"
)

// partRoutes returns n canonical routes drawn by rng: top bits from tops,
// lengths from lens, next hops 1–200.
func partRoutes(rng *rand.Rand, n int, tops []uint32, lens []int) []ip.Route {
	out := make([]ip.Route, n)
	for i := range out {
		addr := ip.Addr(tops[rng.Intn(len(tops))]<<(32-partBits) | rng.Uint32()>>partBits)
		out[i] = ip.Route{Prefix: ip.MustPrefix(addr, lens[rng.Intn(len(lens))]), NextHop: ip.NextHop(1 + rng.Intn(200))}
	}
	return out
}

// partSets are the table sets the decomposition is held on: generated
// tables at K = 1, 3 and 8, and drawn ones with every short prefix, routes
// of exactly /4, parts left empty, every route in one part, and /32s. Each
// holds more than partsInline routes, so its parts fan out on a pool.
func partSets(t *testing.T) map[string][]*rib.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(55))
	var short []ip.Route
	for l := range partBits {
		for p := 0; p < 1<<l; p++ {
			short = append(short, ip.Route{Prefix: ip.MustPrefix(ip.Addr(p)<<(32-l), l), NextHop: ip.NextHop(10 + l)})
		}
	}
	every := make([]uint32, parts)
	for p := range every {
		every[p] = uint32(p)
	}
	table := func(routes ...[]ip.Route) *rib.Table {
		tbl := &rib.Table{Name: "t"}
		for _, r := range routes {
			tbl.Routes = append(tbl.Routes, r...)
		}
		tbl.Sort()
		tbl.Routes = slices.CompactFunc(tbl.Routes, func(a, b ip.Route) bool { return a.Prefix == b.Prefix })
		return tbl
	}
	sets := map[string][]*rib.Table{
		"K=1": {genTable(t, 6000, 55)},
		"short+/4": {
			table(short, partRoutes(rng, 16, every, []int{4}), partRoutes(rng, 3000, every, []int{8, 16, 24})),
			table(short[:3], partRoutes(rng, 2000, []uint32{1, 3, 12}, []int{4, 5, 6, 20})),
		},
		"empty parts": {table(partRoutes(rng, 3000, []uint32{2, 9, 15}, []int{12, 24}), short[7:9])},
		"one part":    {table(partRoutes(rng, 5000, []uint32{5}, []int{4, 10, 16, 22, 24}))},
		"/32s":        {table(partRoutes(rng, 2500, every, []int{32}), partRoutes(rng, 200, every, []int{16}))},
		"/0 and /4 only": {
			table(short[:1], partRoutes(rng, 2100, []uint32{0}, []int{32}), partRoutes(rng, 12, every, []int{4})),
		},
	}
	for _, k := range []int{3, 8} {
		set, err := rib.GenerateVirtualSet(k, 3725/(k/3+1), 0.5, int64(k))
		if err != nil {
			t.Fatal(err)
		}
		sets[fmt.Sprintf("K=%d", k)] = set.Tables
	}
	return sets
}

// TestCompilePartsAnyWorkers: a compile whose parts run inline (one worker)
// and on the sweep pool (two and eight) writes the same image word for word
// with the same Levels, under plain, balanced and folded maps; and the image
// is the breadth-first oracle's.
func TestCompilePartsAnyWorkers(t *testing.T) {
	defer sweep.SetWorkers(0)
	for name, tables := range partSets(t) {
		routes := 0
		for _, tbl := range tables {
			routes += len(tbl.Routes)
		}
		if routes < partsInline {
			t.Fatalf("%s: %d routes run inline at any worker count", name, routes)
		}
		r := NewRoutes(tables)
		height := len(r.Levels) - 1
		weights := make([]int64, len(r.Levels))
		for l, lv := range r.Levels {
			weights[l] = int64(lv.Nodes)
		}
		maps := map[string]func() (trie.StageMap, error){
			"plain":    func() (trie.StageMap, error) { return trie.NewStageMap(28, height) },
			"balanced": func() (trie.StageMap, error) { return trie.NewBalancedStageMap(12, weights) },
			"folded":   func() (trie.StageMap, error) { return trie.NewStageMap(8, height) },
		}
		for mname, mapFor := range maps {
			sm, err := mapFor()
			if err != nil {
				t.Fatal(err)
			}
			var want *Image
			for _, workers := range []int{1, 2, 8} {
				sweep.SetWorkers(workers)
				r := NewRoutes(tables)
				img, err := r.Compile(sm)
				if err != nil {
					t.Fatalf("%s/%s at %d workers: %v", name, mname, workers, err)
				}
				if want == nil {
					want = img
					continue
				}
				if !slices.Equal(img.Levels, want.Levels) || !img.Equal(want) {
					t.Errorf("%s/%s: the image at %d workers differs from the inline one", name, mname, workers)
				}
			}
			if !Flatten(want).Equal(want) {
				t.Errorf("%s/%s: the derived words the parts wrote are not what Flatten derives", name, mname)
			}
		}
		compileCase{28, tables}.check(t)
	}
}

// withSpans returns a clone of img whose jump table keeps its spans, built
// afresh from the words: what the first upset patched into a clone leaves.
func withSpans(img *Image) *Image {
	c := img.Clone()
	c.ownJump()
	return c
}

// TestJumpPartsReadOwnWords: on a compiled image each part's jump walks read
// only its own words — at every level below partBits the parts' spans are
// disjoint and in part order — so an upset there rebuilds one part's slots.
func TestJumpPartsReadOwnWords(t *testing.T) {
	for _, fx := range append(jumpFixtures(t), jumpFixture{"K=1/3725", 1, compileSingle(t, genTable(t, 3725, 1), 28)}) {
		img := withSpans(fx.img)
		depth := 32 - int(img.jumpShift)
		if depth <= partBits {
			t.Fatalf("%s: a %d-bit table has no parts", fx.name, depth)
		}
		span := img.jumpSpan()
		w := len(span) / parts
		for l := partBits; l < depth; l++ {
			prev := -1
			for p := range parts {
				lo, hi := span[p*w+2*(l-partBits)], span[p*w+2*(l-partBits)+1]
				if lo > hi {
					continue // the part has no word at this level
				}
				if int(lo) <= prev {
					t.Fatalf("%s: level %d: part %d reads from entry %d, the parts before it up to %d", fx.name, l, p, lo, prev)
				}
				prev = int(hi)
			}
		}
	}
}

// TestJumpPatchMatchesBuild: after each of many upsets — child pointers and
// leaf vectors in the stages the jump table stands for, and anywhere — into
// a clone of a compiled image, the table patched one part at a time, and
// its spans, are what a fresh build of the words makes.
func TestJumpPatchMatchesBuild(t *testing.T) {
	for fi, fx := range append(jumpFixtures(t), jumpFixture{"K=1/3725", 1, compileSingle(t, genTable(t, 3725, 1), 28)}) {
		rng := rand.New(rand.NewSource(int64(fi)))
		img := fx.img.Clone()
		top := int64(0) // the data bits of the stages below jumpStage
		for s := 0; s < img.jumpStage; s++ {
			top += img.stages[s].bits
		}
		for n := range 300 {
			off := rng.Int63n(top)
			if n%4 == 3 {
				off = rng.Int63n(img.DataBits())
			}
			s, i, bit, ok := img.Locate(off)
			if !ok || !img.FlipBit(s, i, bit) {
				t.Fatalf("%s: upset %d at bit %d did not land", fx.name, n, off)
			}
			fresh := withSpans(Flatten(img))
			if span := img.jumpSpan(); !slices.Equal(img.jump, fresh.jump) || span != nil && !slices.Equal(span, fresh.jumpSpan()) {
				t.Fatalf("%s: after upset %d (stage %d entry %d bit %d) the patched table differs from a fresh build", fx.name, n, s, i, bit)
			}
		}
		if img.jumpSpan() == nil {
			t.Errorf("%s: no upset patched the table part by part", fx.name)
		}
		if !Flatten(fx.img).Equal(fx.img) {
			t.Fatalf("%s: the upsets reached the pristine image", fx.name)
		}
	}
}
