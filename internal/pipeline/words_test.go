package pipeline

// Test helpers over the image's words — views of whole stages, and a writer
// for the arbitrary words tests put where upsets only flip bits — and the
// tests of the words themselves: derived ones against Flatten, views against
// what NewImage was given, a clone's arrays against its source's.

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

	"vrpower/internal/ip"
	"vrpower/internal/trie"
)

// entriesOf returns the views of stage s's entries.
func entriesOf(img *Image, s int) []Entry {
	out := make([]Entry, img.StageLen(s))
	for i := range out {
		out[i] = img.Entry(s, uint32(i))
	}
	return out
}

// allEntries returns the views of every entry, by stage.
func allEntries(img *Image) [][]Entry {
	out := make([][]Entry, img.Stages())
	for s := range out {
		out[s] = entriesOf(img, s)
	}
	return out
}

// dataBitsOf is dataBits on a view.
func dataBitsOf(e Entry) int {
	if e.Leaf {
		return len(e.NHI) * nhiBits
	}
	return 2 * ptrBits
}

// poke rewrites entry (s, i) through its view — child pointers, next hops (in
// place: the view aliases them), the stored parity bit — and re-derives what
// depends on it, as FlipBit does. Kind, level and vector length stay.
func poke(img *Image, s int, i uint32, write func(e *Entry)) {
	img.own(s)
	img.ownSlab()
	e := img.Entry(s, i)
	write(&e)
	st := &img.stages[s]
	if !e.Leaf {
		st.child[i] = e.Child
	}
	st.meta[i] = st.meta[i]&^metaParity | uint16(e.Parity&1)<<9
	img.patch(s, i)
}

// corruptedByView lists the entries whose stored parity is not the parity of
// the data their view shows: what Corrupted scanned for when it recomputed.
func corruptedByView(img *Image) (stages []int, indices []uint32) {
	for s, entries := range allEntries(img) {
		for i, e := range entries {
			if e.Parity != e.DataParity() {
				stages, indices = append(stages, s), append(indices, uint32(i))
			}
		}
	}
	return stages, indices
}

// TestDerivedWordsFollowFlips: FlipBit keeps the derived words true one entry
// at a time; Flatten derives them all from scratch. After any run of upsets —
// any stage, leaves and internal nodes, stages the jump table stands for, the
// same entry struck again (the same bit, which heals it, or another, which
// restores parity over changed data) — the two must agree on every word, and
// the verdict bits Corrupted reads must be the entries whose data no longer
// match their stored parity.
func TestDerivedWordsFollowFlips(t *testing.T) {
	for _, fx := range jumpFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			img := fx.img.Clone()
			if img.jump == nil {
				t.Fatal("fixture has no jump table")
			}
			rng := rand.New(rand.NewSource(17))
			type coord struct {
				s   int
				i   uint32
				bit int
			}
			var hits []coord
			struck := map[[2]int]bool{}
			kinds := map[bool]int{}
			covered := 0
			check := func(n int) {
				t.Helper()
				if flat := Flatten(img); !flat.Equal(img) {
					t.Fatalf("after %d flips the image's derived words are not what Flatten derives", n)
				}
				gs, gi := img.Corrupted()
				ws, wi := corruptedByView(img)
				if !slices.Equal(gs, ws) || !slices.Equal(gi, wi) {
					t.Fatalf("after %d flips Corrupted reads %v %v, the views say %v %v", n, gs, gi, ws, wi)
				}
			}
			for n := 1; n <= 240; n++ {
				var c coord
				switch {
				case n%6 == 0: // the same entry and bit again: heals it
					c = hits[rng.Intn(len(hits))]
				case n%6 == 3: // the same entry, any bit: the two-upsets corner
					c = hits[rng.Intn(len(hits))]
					c.bit = rng.Intn(64)
				case n%4 == 1: // a stage the jump table stands for
					c.s = rng.Intn(img.jumpStage)
					c.i, c.bit = uint32(rng.Intn(img.StageLen(c.s))), rng.Intn(64)
				default:
					c.s, c.i, c.bit, _ = img.Locate(rng.Int63n(img.DataBits()))
				}
				if !img.FlipBit(c.s, c.i, c.bit) {
					t.Fatalf("FlipBit(%d, %d, %d) out of range", c.s, c.i, c.bit)
				}
				hits = append(hits, c)
				struck[[2]int{c.s, int(c.i)}] = true
				kinds[img.Entry(c.s, c.i).Leaf]++
				if c.s < img.jumpStage {
					covered++
				}
				if n%20 == 0 {
					check(n)
				}
			}
			if kinds[true] == 0 || kinds[false] == 0 || covered == 0 || len(struck) == len(hits) {
				t.Fatalf("flips: %d on leaves, %d on internal nodes, %d under the jump table, %d entries in %d — weaken the test",
					kinds[true], kinds[false], covered, len(struck), len(hits))
			}
			if s, _ := img.Corrupted(); len(s) == 0 || len(s) >= len(struck) {
				t.Fatalf("%d corrupted words of %d struck; want some healed and some not", len(s), len(struck))
			}
			if s, _ := fx.img.Corrupted(); len(s) != 0 {
				t.Fatal("the flips reached the clone's source")
			}
		})
	}
}

// TestNewImageViewRoundTrip: what NewImage is given is what Entry shows,
// whatever it is — leaf vectors shorter and longer than K, none at all, a word
// of another level than its stage's, pointers into nowhere, parity bits that
// do not match — and the derived words are Flatten's.
func TestNewImageViewRoundTrip(t *testing.T) {
	sm, err := trie.NewStageMap(3, 4) // levels 0-2 fold into stage 0
	if err != nil {
		t.Fatal(err)
	}
	in := [][]Entry{
		{
			{Level: 0, Child: [2]uint32{1, 2}},
			{Level: 1, Child: [2]uint32{3, 1 << 29}, Parity: 1},
			{Leaf: true, Level: 1, NHI: []ip.NextHop{7, 8, 9, 10, 11}},
			{Level: 2, Child: [2]uint32{0, 1}},
			{Level: 31, Child: [2]uint32{noJump, 0}},
		},
		{
			{Leaf: true, Level: 3, NHI: []ip.NextHop{4}, Parity: 1},
			{Leaf: true, Level: 63},
			{Level: 0, Child: [2]uint32{5, 5}},
		},
		nil,
	}
	for s := range in {
		for i := range in[s] {
			if i%2 == 0 {
				in[s][i].Parity = in[s][i].DataParity()
			}
		}
	}
	img, err := NewImage(2, sm, in)
	if err != nil {
		t.Fatal(err)
	}
	if img.Words() != 8 || img.Stages() != 3 || img.StageLen(2) != 0 {
		t.Fatalf("%d words in %d stages, last of %d", img.Words(), img.Stages(), img.StageLen(2))
	}
	bits := int64(0)
	for s := range in {
		for i, want := range in[s] {
			got := img.Entry(s, uint32(i))
			if got.Leaf != want.Leaf || got.Level != want.Level || got.Child != want.Child || got.Parity != want.Parity ||
				!slices.Equal(got.NHI, want.NHI) || cap(got.NHI) != len(want.NHI) {
				t.Errorf("stage %d entry %d: view %+v, put in %+v", s, i, got, want)
			}
			if img.ParityStale(s, uint32(i)) != (want.Parity != want.DataParity()) {
				t.Errorf("stage %d entry %d: verdict %v for %+v", s, i, img.ParityStale(s, uint32(i)), want)
			}
			bits += int64(dataBitsOf(want))
		}
	}
	if img.DataBits() != bits {
		t.Errorf("DataBits = %d, the entries' sum to %d", img.DataBits(), bits)
	}
	if got := img.stages[0].visits; got != 32 {
		t.Errorf("stage 0 holds levels 0 to 31 and makes %d visits", got)
	}
	if flat := Flatten(img); !flat.Equal(img) {
		t.Error("NewImage's derived words are not what Flatten derives")
	}
	again, err := NewImage(2, sm, allEntries(img))
	if err != nil || !again.Equal(img) {
		t.Errorf("an image rebuilt from its own views differs (err %v)", err)
	}

	for name, bad := range map[string][][]Entry{
		"stage count":      in[:2],
		"leaf with child":  {{{Leaf: true, Child: [2]uint32{0, 1}}}, nil, nil},
		"internal level":   {{{Level: 32}}, nil, nil},
		"leaf level":       {{{Leaf: true, Level: 64}}, nil, nil},
		"negative level":   {{{Level: -1}}, nil, nil},
		"negative, a leaf": {{{Leaf: true, Level: -1}}, nil, nil},
	} {
		if _, err := NewImage(2, sm, bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCloneCopiesOnWrite: a clone shares its source's stage headers, every
// stage's words, the slab and the jump table until either side writes; a
// write then copies only what it touches — the stage it lands in, the slab
// when it writes a leaf's vector, the jump table when the stage is one the
// table stands for — and nothing it writes, stored or derived, reaches the
// other side or any image the two were cloned from.
func TestCloneCopiesOnWrite(t *testing.T) {
	scribble := func(img *Image) {
		for s := range img.stages {
			img.own(s)
			st := &img.stages[s]
			for i := range st.meta {
				st.meta[i] = ^st.meta[i]
				st.child[i] = [2]uint32{^st.child[i][0], ^st.child[i][1]}
			}
			st.visits += 7
			st.bits++
		}
		img.ownSlab()
		for i := range img.nhi {
			img.nhi[i] = ^img.nhi[i]
		}
		img.ownJump()
		for i := range img.jump {
			img.jump[i] = ^img.jump[i]
		}
	}
	// shares reports, per stage (empty ones count as shared), then for the
	// slab and the jump table, whether a and b read the same array.
	shares := func(a, b *Image) (stages []bool, slab, jump bool) {
		for s := range a.stages {
			x, y := &a.stages[s], &b.stages[s]
			stages = append(stages, len(x.meta) == 0 ||
				unsafe.SliceData(x.meta) == unsafe.SliceData(y.meta) && unsafe.SliceData(x.child) == unsafe.SliceData(y.child))
		}
		return stages, unsafe.SliceData(a.nhi) == unsafe.SliceData(b.nhi), unsafe.SliceData(a.jump) == unsafe.SliceData(b.jump)
	}
	// expect fails unless exactly the stage copied (-1: none), and the slab
	// and jump table as given, are a's own.
	expect := func(name string, a, b *Image, copied int, slab, jump bool) {
		t.Helper()
		stages, sharedSlab, sharedJump := shares(a, b)
		for s, same := range stages {
			if same == (s == copied) && len(a.stages[s].meta) > 0 {
				t.Errorf("%s: stage %d shared %v, want a copy of stage %d only", name, s, same, copied)
			}
		}
		if sharedSlab == slab || sharedJump == jump {
			t.Errorf("%s: slab shared %v, jump table shared %v; want copies %v, %v", name, sharedSlab, sharedJump, slab, jump)
		}
	}
	for _, fx := range jumpFixtures(t)[2:4] {
		pristine, want := Flatten(fx.img), Flatten(fx.img)
		if pristine.jump == nil || len(pristine.nhi) == 0 {
			t.Fatal("fixture lacks a jump table or a slab")
		}
		src := pristine.Clone()
		clone := src.Clone()
		expect(fx.name+": clone", clone, src, -1, false, false)
		expect(fx.name+": source", src, pristine, -1, false, false)
		if !clone.Equal(src) {
			t.Fatalf("%s: clone differs from its source", fx.name)
		}
		// A leaf below the jump table's stages, then an internal node of a
		// stage it stands for.
		leafS, leafI, nodeS, nodeI := -1, uint32(0), -1, uint32(0)
		for s := range clone.stages {
			for i, m := range clone.stages[s].meta {
				switch {
				case leafS < 0 && m&metaLeaf != 0 && s >= clone.jumpStage:
					leafS, leafI = s, uint32(i)
				case nodeS < 0 && m&metaLeaf == 0 && s < clone.jumpStage:
					nodeS, nodeI = s, uint32(i)
				}
			}
		}
		if leafS < 0 || nodeS < 0 {
			t.Fatalf("%s: no leaf at or past stage %d, or no internal node before it", fx.name, clone.jumpStage)
		}
		clone.FlipBit(leafS, leafI, 3)
		expect(fx.name+": a leaf's upset", clone, src, leafS, true, false)
		clone = src.Clone()
		clone.FlipBit(nodeS, nodeI, 3)
		expect(fx.name+": a top node's upset", clone, src, nodeS, false, true)

		scribble(clone)
		if !src.Equal(want) || !pristine.Equal(want) {
			t.Errorf("%s: writing the clone changed its source", fx.name)
		}
		clone = src.Clone()
		scribble(src)
		if !clone.Equal(want) || !pristine.Equal(want) {
			t.Errorf("%s: writing the source changed its clone", fx.name)
		}
	}
}

// TestSpliceCopiesWords: a splice shows head's entries in its first stages and
// tail's in the rest, with derived words a fresh Flatten agrees with, and owns
// every word: strike them all and neither source changes.
func TestSpliceCopiesWords(t *testing.T) {
	oldTbl, newTbl := genTables(t)
	tail, head := compilePinned(t, oldTbl), compilePinned(t, newTbl)
	tail.FlipBit(20, 0, 1) // a stale word on either side of the cut rides along
	head.FlipBit(1, 0, 1)
	wantTail, wantHead := tail.Clone(), head.Clone()
	for _, n := range []int{0, 1, tail.Stages() / 2, tail.Stages()} {
		sp := Splice(head, tail, n)
		for s, entries := range allEntries(sp) {
			from := tail
			if s < n {
				from = head
			}
			if !reflect.DeepEqual(entries, entriesOf(from, s)) {
				t.Fatalf("n=%d: stage %d is not its source's", n, s)
			}
		}
		if !Flatten(sp).Equal(sp) {
			t.Fatalf("n=%d: derived words are not what Flatten derives", n)
		}
		want := 0
		if 1 < n {
			want++ // head's stale word
		}
		if 20 >= n {
			want++ // tail's
		}
		if s, _ := sp.Corrupted(); len(s) != want {
			t.Fatalf("n=%d: %d stale words, want %d", n, len(s), want)
		}
		for s := 0; s < sp.Stages(); s++ {
			for i := 0; i < sp.StageLen(s); i++ {
				sp.FlipBit(s, uint32(i), 5)
			}
		}
		if !tail.Equal(wantTail) || !head.Equal(wantHead) {
			t.Fatalf("n=%d: writing the splice changed a source", n)
		}
	}
}

// TestEqualComparesEveryWord: Equal, what tests hold images to, tells apart
// two images that differ in any one word, stored or derived, or in the map
// and counts they were compiled with.
func TestEqualComparesEveryWord(t *testing.T) {
	fx := jumpFixtures(t)[2]
	for name, write := range map[string]func(img *Image){
		"K":          func(img *Image) { img.K++ },
		"map":        func(img *Image) { img.Map = trie.StageMap{Stages: img.Map.Stages} },
		"levels":     func(img *Image) { img.Levels[len(img.Levels)-1].Nodes++ },
		"meta":       func(img *Image) { st := &img.stages[len(img.stages)-1]; st.meta[len(st.meta)-1] ^= metaParity },
		"child":      func(img *Image) { img.stages[0].child[0][1]++ },
		"visits":     func(img *Image) { img.stages[len(img.stages)-1].visits++ },
		"bits":       func(img *Image) { img.stages[len(img.stages)-1].bits++ },
		"nhi":        func(img *Image) { img.nhi[len(img.nhi)-1]++ },
		"jump":       func(img *Image) { img.jump[len(img.jump)-1]++ },
		"jump stage": func(img *Image) { img.jumpStage++ },
		"jump depth": func(img *Image) { img.jumpShift++ },
	} {
		a, b := Flatten(fx.img), Flatten(fx.img)
		if !a.Equal(b) {
			t.Fatalf("%s: two copies of one image differ", name)
		}
		write(b)
		if a.Equal(b) || b.Equal(a) {
			t.Errorf("%s: Equal misses a changed word", name)
		}
	}
}

// locateScan is Locate as a scan of every entry before the offset: the
// reference the stage search is held to.
func locateScan(img *Image, off int64) (stage int, index uint32, bit int, ok bool) {
	if off < 0 {
		return 0, 0, 0, false
	}
	for s := range img.stages {
		st := &img.stages[s]
		for i, m := range st.meta {
			n := int64(dataBits(m, st.child[i]))
			if off < n {
				return s, uint32(i), int(off), true
			}
			off -= n
		}
	}
	return 0, 0, 0, false
}

// TestLocateMatchesScan: Locate, a search over the stages' data bits and then
// a scan of one stage, names the word a scan of the whole image names at
// offset — every one of hand-made images with leaf vectors of any length (none
// at all included) and empty stages; the ends of every stage and a sixteenth
// of the rest of compiled ones, where each stage's bits come from the
// compile's counts — and DataBits is the words' sum.
func TestLocateMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var images []*Image
	for n := 0; n < 20; n++ {
		stages := 1 + rng.Intn(5)
		sm, err := trie.NewStageMap(stages, 4)
		if err != nil {
			t.Fatal(err)
		}
		entries := make([][]Entry, stages)
		for s := range entries {
			for i := rng.Intn(7); i > 0; i-- { // a third of stages stay empty
				e := Entry{Level: rng.Intn(32), Child: [2]uint32{rng.Uint32(), rng.Uint32()}}
				if rng.Intn(2) == 0 {
					e = Entry{Leaf: true, Level: rng.Intn(33), NHI: make([]ip.NextHop, rng.Intn(6))}
				}
				entries[s] = append(entries[s], e)
			}
		}
		img, err := NewImage(3, sm, entries)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, img)
	}
	hand := len(images)
	for _, fx := range jumpFixtures(t) {
		images = append(images, fx.img)
	}
	for n, img := range images {
		var total int64
		var offs []int64 // every offset of a hand-made image; of a compiled one each stage's ends and a sample
		for s := range img.stages {
			offs = append(offs, total-1, total)
			total += img.stages[s].sumBits()
		}
		if img.DataBits() != total {
			t.Fatalf("image %d: DataBits %d, its words hold %d", n, img.DataBits(), total)
		}
		offs = append(offs, -2, -1, total-1, total, total+1)
		for off := int64(0); off < total; off++ {
			if n < hand || rng.Intn(16) == 0 {
				offs = append(offs, off)
			}
		}
		for _, off := range offs {
			s, i, b, ok := img.Locate(off)
			ws, wi, wb, wok := locateScan(img, off)
			if s != ws || i != wi || b != wb || ok != wok {
				t.Fatalf("image %d offset %d of %d: Locate (%d, %d, %d, %v), the scan (%d, %d, %d, %v)", n, off, total, s, i, b, ok, ws, wi, wb, wok)
			}
		}
	}
}

// TestUpsetCopiesOneStage: an upset in a clone copies the words of the stage
// it strikes, and the slab or the jump table only when it writes them (a
// leaf's vector; a stage the table stands for) — not the image. Counted with
// the collector off, as TestCompileAllocatesOnlyItsImage counts a compile.
func TestUpsetCopiesOneStage(t *testing.T) {
	pristine := compileSingle(t, genTable(t, 20000, 31), 28)
	if pristine.jump == nil {
		t.Fatal("fixture has no jump table")
	}
	whole := 10 * int64(pristine.Words())
	headers := int64(len(pristine.stages)) * int64(unsafe.Sizeof(stage{}))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(29))
	kinds := map[string]int{}
	for n := 0; n < 64; n++ {
		s, i, b, _ := pristine.Locate(rng.Int63n(pristine.DataBits()))
		if n%8 == 0 { // a stage the jump table stands for
			s = rng.Intn(pristine.jumpStage)
			i = uint32(rng.Intn(pristine.StageLen(s)))
		}
		need := 10*int64(pristine.StageLen(s)) + headers
		kind := "internal"
		if pristine.stages[s].meta[i]&metaLeaf != 0 {
			need += 2 * int64(len(pristine.nhi))
			kind = "leaf"
		}
		if s < pristine.jumpStage {
			need += 4 * int64(len(pristine.jump))
			kind += " under the jump table"
		}
		kinds[kind]++
		got := int64(math.MaxInt64)
		for range 3 { // the least of three: what else the runtime allocates only adds
			c := pristine.Clone()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c.FlipBit(s, i, b)
			runtime.ReadMemStats(&after)
			got = min(got, int64(after.TotalAlloc-before.TotalAlloc))
		}
		// Allocation size classes round small arrays up by at most an
		// eighth, large ones to whole 8 KiB pages.
		if bound := need + need/8 + 3*8<<10; got > bound {
			t.Errorf("upset %d at (%d, %d), a %s: %d B copied, want at most %d (the image's words are %d B)", n, s, i, kind, got, bound, whole)
		}
	}
	if len(kinds) < 3 {
		t.Fatalf("upsets struck only %v", kinds)
	}
	if s, _ := pristine.Corrupted(); len(s) != 0 {
		t.Fatal("upsets in clones reached their source")
	}
}
