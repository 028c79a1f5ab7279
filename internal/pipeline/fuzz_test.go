package pipeline

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"vrpower/internal/ip"
	"vrpower/internal/merge"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

// FuzzBatchedLookup compiles a random small table from the fuzzed seed and
// asserts, for random addresses and VNs (including out-of-range VNs), that
// the batched engine, the scalar cycle-accurate oracle and the trie agree.
// When the corrupt knob is set the image takes a parity-stale bit flip and
// both engines run with parity checking: results must still match each
// other exactly (Faulted included), and every non-faulted lookup must still
// match the trie — drop, never misforward. The out-of-range knob instead
// corrupts a child pointer past every stage's address range (parity
// re-stamped, so only the address decoder can catch it).
func FuzzBatchedLookup(f *testing.F) {
	for _, c := range batchedLookupCorpus {
		f.Add(c.seed, c.addrSeed, c.corrupt, c.outOfRange)
	}
	f.Fuzz(func(t *testing.T, seed int64, addrSeed uint32, corrupt, outOfRange bool) {
		batchedLookupCase(t, seed, addrSeed, corrupt, outOfRange)
	})
}

// batchedLookupCorpus seeds FuzzBatchedLookup. The images of seeds 1 and 13
// are large enough to have a jump table (TestFuzzCorporaReachJumpLane), so the
// fuzzer starts from inputs on both sweep lanes.
var batchedLookupCorpus = []struct {
	seed                int64
	addrSeed            uint32
	corrupt, outOfRange bool
}{
	{1, 0x12345678, false, false},
	{7, 0xdeadbeef, true, false},
	{13, 0, false, true},
	{42, 0xffffffff, true, true},
}

// batchedLookupCase is FuzzBatchedLookup's body; it reports whether the
// batched engine's image had a jump table.
func batchedLookupCase(t *testing.T, seed int64, addrSeed uint32, corrupt, outOfRange bool) (jumps bool) {
	rng := rand.New(rand.NewSource(seed))
	k := 1 + rng.Intn(3)
	prefixes := 20 + rng.Intn(180)
	stages := []int{4, 8, 16, 28}[rng.Intn(4)]

	// Compile a random small table set (merged when K > 1).
	set, err := rib.GenerateVirtualSet(k, prefixes, 0.3+0.4*rng.Float64(), seed)
	if err != nil {
		t.Skip() // degenerate generator parameters
	}
	img, err := Compile(set.Tables, stages)
	if err != nil {
		t.Fatal(err)
	}
	var oracle func(vn int, addr ip.Addr) ip.NextHop
	if k == 1 {
		tr := trie.Build(set.Tables[0].Routes)
		oracle = func(_ int, addr ip.Addr) ip.NextHop { return tr.Lookup(addr) }
	} else {
		m, err := merge.Build(set.Tables)
		if err != nil {
			t.Fatal(err)
		}
		oracle = m.Lookup
	}

	parity := false
	if corrupt {
		// An SEU with stale parity: detectable, so both engines run
		// checked and the walk never follows the corrupt word's data.
		s, idx, bit, ok := img.Locate(rng.Int63n(img.DataBits()))
		if !ok {
			t.Fatal("Locate failed in range")
		}
		img.FlipBit(s, idx, bit)
		parity = true
	}
	if outOfRange {
		// A clean-parity pointer escape: caught by the address range
		// check alone. The target is far beyond any stage memory, so the
		// walk faults instead of cycling.
	strike:
		for s, entries := range allEntries(img) {
			for i := range entries {
				if !entries[i].Leaf {
					poke(img, s, uint32(i), func(e *Entry) {
						e.Child[rng.Intn(2)] = 1<<29 + uint32(rng.Intn(1024))
						e.Parity = e.DataParity()
					})
					break strike
				}
			}
		}
	}

	scalar, batched := NewSim(img), NewBatchSim(img)
	if parity {
		scalar.EnableParityCheck()
		batched.EnableParityCheck()
	}

	arng := rand.New(rand.NewSource(int64(addrSeed)))
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{Addr: ip.Addr(arng.Uint32()), VN: arng.Intn(k+3) - 1}
	}
	want, wantSt, err := scalar.Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, gotSt, err := batched.Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].NHI != want[i].NHI || got[i].Faulted != want[i].Faulted ||
			got[i].EnterCycle != want[i].EnterCycle || got[i].ExitCycle != want[i].ExitCycle {
			t.Fatalf("req %d (%s vn=%d): batched %+v, scalar %+v",
				i, reqs[i].Addr, reqs[i].VN, got[i], want[i])
		}
		// Non-faulted lookups with a valid VN must match the trie; a
		// fault must drop (NoRoute), never misforward.
		if want[i].Faulted {
			if got[i].NHI != ip.NoRoute {
				t.Fatalf("req %d: faulted lookup forwarded NHI %d", i, got[i].NHI)
			}
			continue
		}
		if vn := reqs[i].VN; vn >= 0 && vn < k && !corrupt && !outOfRange {
			if ref := oracle(vn, reqs[i].Addr); got[i].NHI != ref {
				t.Fatalf("req %d (%s vn=%d): engines say %d, trie says %d",
					i, reqs[i].Addr, vn, got[i].NHI, ref)
			}
		}
	}
	if gotSt.Faults != wantSt.Faults || gotSt.Cycles != wantSt.Cycles || gotSt.Lookups != wantSt.Lookups {
		t.Fatalf("stats diverge: batched %+v, scalar %+v", gotSt, wantSt)
	}
	return img.jump != nil
}

// TestFuzzCorporaReachJumpLane asserts that the seed corpora of both engine
// fuzzers hold inputs whose images have a jump table — so neither fuzzer
// starts, or stays, on the walked lane alone.
func TestFuzzCorporaReachJumpLane(t *testing.T) {
	batched, streamed := 0, 0
	for _, c := range batchedLookupCorpus {
		if batchedLookupCase(t, c.seed, c.addrSeed, c.corrupt, c.outOfRange) {
			batched++
		}
	}
	for _, c := range streamCorpus {
		if lockstep(t, c.seed, c.ops, c.seed%2 == 0, 7) {
			streamed++
		}
	}
	if batched == 0 || streamed == 0 {
		t.Errorf("corpus images with a jump table: %d of FuzzBatchedLookup's, %d of FuzzStreamVsSim's; want some of each", batched, streamed)
	}
}

// FuzzCloneWrites runs a decoded sequence of Clone, FlipBit, setEntry and
// Flatten over three images, cloned at first from two pristine compiles, and
// after every step holds each image to a reference kept as deep copies under
// the same steps, and each pristine source to what it was: a write to one
// image, whatever it shares with which, reaches no other.
func FuzzCloneWrites(f *testing.F) {
	a, _ := compileSet(f, 2, 400, 28, 5)
	b, _ := compileSet(f, 1, 300, 8, 3)
	srcs := []*Image{a, b}
	for _, seed := range [][]byte{
		{1, 0, 0, 0, 0, 0, 1, 1, 9, 9, 9, 9, 0, 2, 1, 0, 0, 0},
		{2, 1, 3, 7, 0, 0, 0, 1, 2, 0, 0, 0, 1, 2, 5, 5, 5, 5, 3, 2, 0, 0, 0, 0},
		{4, 2, 1, 0, 0, 0, 2, 2, 4, 1, 200, 3, 1, 2, 77, 1, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0},
		{1, 0, 255, 255, 255, 255, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 3, 0, 1, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		cloneWritesCase(t, srcs, ops)
	})
}

// deepCopy returns an image that shares nothing with img but its stage map.
func deepCopy(img *Image) *Image {
	out := &Image{K: img.K, Map: img.Map, Levels: slices.Clone(img.Levels), stages: slices.Clone(img.stages),
		nhi: slices.Clone(img.nhi), jump: slices.Clone(img.jump), jumpStage: img.jumpStage, jumpShift: img.jumpShift,
		slabOwned: true, jumpOwned: true}
	for s := range out.stages {
		st := &out.stages[s]
		st.meta, st.child, st.owned = slices.Clone(st.meta), slices.Clone(st.child), true
	}
	return out
}

// cloneWritesCase is FuzzCloneWrites' body. Each step is six bytes: the op
// (Clone into another slot, FlipBit at a located offset, setEntry of a made-
// up word, Flatten, or a fresh clone of a source), the slot, and four bytes
// of arguments.
func cloneWritesCase(t *testing.T, srcs []*Image, ops []byte) {
	want := make([]*Image, len(srcs))
	for i, src := range srcs {
		want[i] = deepCopy(src)
	}
	imgs := []*Image{srcs[0].Clone(), srcs[0].Clone(), srcs[1].Clone()}
	refs := []*Image{deepCopy(srcs[0]), deepCopy(srcs[0]), deepCopy(srcs[1])}
	for step := 0; len(ops) >= 6 && step < 64; step, ops = step+1, ops[6:] {
		slot, arg := int(ops[1])%len(imgs), binary.LittleEndian.Uint32(ops[2:6])
		img, ref := imgs[slot], refs[slot]
		switch ops[0] % 5 {
		case 0: // Clone into the next slot
			to := (slot + 1 + int(arg)%2) % len(imgs)
			imgs[to], refs[to] = img.Clone(), deepCopy(ref)
		case 1: // an upset
			if img.DataBits() == 0 {
				continue
			}
			s, i, bit, _ := img.Locate(int64(arg) % img.DataBits())
			if img.FlipBit(s, i, bit) != ref.FlipBit(s, i, bit) {
				t.Fatalf("step %d: FlipBit(%d, %d, %d) differs from the reference's", step, s, i, bit)
			}
		case 2: // a made-up word, a leaf's vector of any length
			s := int(arg) % img.Stages()
			if img.StageLen(s) == 0 {
				continue
			}
			i := int(arg>>8) % img.StageLen(s)
			e := Entry{Level: int(arg>>16) % 32, Child: [2]uint32{arg, arg >> 3}, Parity: uint8(arg >> 24 & 1)}
			if arg>>25&1 != 0 {
				e = Entry{Leaf: true, Level: int(arg>>16) % 64, NHI: make([]ip.NextHop, arg>>26&7), Parity: e.Parity}
				for j := range e.NHI {
					e.NHI[j] = ip.NextHop(arg>>uint(j) + uint32(j))
				}
			}
			img.setEntry(s, i, &e)
			ref.setEntry(s, i, &e)
		case 3:
			imgs[slot], refs[slot] = Flatten(img), deepCopy(Flatten(ref))
		case 4: // a fresh clone of a source
			src := int(arg) % len(srcs)
			imgs[slot], refs[slot] = srcs[src].Clone(), deepCopy(srcs[src])
		}
		for j := range imgs {
			if !imgs[j].Equal(refs[j]) {
				t.Fatalf("step %d (op %d on slot %d): image %d differs from its reference", step, ops[0]%5, slot, j)
			}
		}
		for j, src := range srcs {
			if !src.Equal(want[j]) {
				t.Fatalf("step %d (op %d on slot %d): pristine source %d was written", step, ops[0]%5, slot, j)
			}
		}
	}
}
