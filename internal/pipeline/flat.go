package pipeline

import "vrpower/internal/ip"

// Flat image: the struct-of-arrays compile of an Image that the production
// engine (BatchSim) reads. The pointer-rich Entry records (≈56 bytes each,
// with the NHI vector behind a slice header and the parity bit recomputed on
// every checked access) are flattened once into contiguous per-stage word
// slices:
//
//   - meta:  one uint16 per entry packing the trie level, the leaf flag,
//     the precomputed parity verdict and the fold flag (child level maps to
//     this same stage) — everything the walk branches on.
//   - child: one [2]uint32 per entry. Internal nodes store the two child
//     indices; leaves reuse the pair as {offset into the NHI slab, vector
//     length}.
//   - nhi:   all leaf next-hop vectors, back to back, in stage-then-index
//     order (stride K for compiled images).
//   - jump:  derived from the three above, one uint32 per pattern of the top
//     address bits: where that pattern's walk enters the first stage below the
//     table (FlatImage.jump), so the sweep skips the top-of-trie words every
//     lookup would re-read.
//
// A stage access then touches two small parallel slices instead of a wide
// struct, and the parity comparison — a popcount loop over the NHI vector in
// the scalar path — collapses to a single precomputed bit.
//
// Ownership follows the image's: a flat image is a pure function of its
// Image's words. Each Image builds its flat form at most once (sharedFlat)
// and every engine serving that Image reads the same one; an engine whose
// image takes an upset stops sharing and re-derives the struck entry in a
// copy of its own (BatchSim.Patch), so a fault on one engine never reaches
// the flat form its neighbours read. The jump table follows the words it is
// derived from: built with them, never written on a shared form, rebuilt on an
// engine's own copy whenever a patched entry lies in a stage it stands for.
//
// Internal nodes store the precomputed shift amount 31-level (≤ 31, so the
// hot loop's address-bit extract masks with 0x1F and the compiler can prove
// the shift in range — no masking cmov). Leaves store the raw level; they
// never shift.
const (
	metaLevelMask uint16 = 0x3F   // trie level (leaves) / 31-level shift (internal)
	metaShiftMask uint16 = 0x1F   // internal-node shift amount, provably < 32
	metaLeaf      uint16 = 1 << 6 // entry resolves the lookup
	metaParityBad uint16 = 1 << 7 // stored parity ≠ data parity at Flatten time
	metaFold      uint16 = 1 << 8 // child level maps to this same stage
)

// flatStage is one stage memory in struct-of-arrays form. visits is the
// number of trie levels folded into the stage — the uniform step count every
// unresolved flight performs while in it (the StageMap's contiguity, pinned
// by TestStageMapContiguity, guarantees the levels form one run) — which
// lets the batched sweep drive the intra-stage walk with a fixed trip count
// instead of a per-entry fold branch.
type flatStage struct {
	meta   []uint16
	child  [][2]uint32
	visits int
}

// FlatImage is the data-oriented form of a compiled Image. One that is
// shared (Image.sharedFlat) is never written; an engine patches only a flat
// image it built for itself.
type FlatImage struct {
	stages []flatStage
	nhi    []ip.NextHop

	// jump is the jump table over the address's top 32-jumpShift bits, a pure
	// function of the words of stages below jumpStage: jump[addr>>jumpShift] is
	// the entry at which addr's walk enters stage jumpStage, or noJump where
	// that walk does not get there the plain way — it ends at a leaf, leaves a
	// stage's index range, or meets a stale-parity word (whether or not the
	// engine checks: a walk from stage 0 gives the right verdict either way)
	// or a word of another level than the walk's step. Nil on an image too
	// small to have one.
	jump      []uint32
	jumpStage int
	jumpShift uint8
}

// noJump marks a jump-table slot whose addresses are walked from stage 0. As
// an entry index it is out of every stage's range, so a (corrupt) pointer of
// this value loses nothing by being walked.
const noJump = ^uint32(0)

// maxJumpBits bounds the jump table at 2^16 slots (256 KB): fewer than 1 % of
// routed lookups on allocation-block-shaped tables end above trie level 16,
// and a deeper table outgrows the cache that makes it cheaper than the walk.
const maxJumpBits = 16

// sharedFlat returns the flat form every engine over img reads, flattening
// on first use. Of two first users racing, the loser keeps its own (equal)
// form and later users share the winner's.
func (img *Image) sharedFlat() *FlatImage {
	if f := img.flat.Load(); f != nil {
		return f
	}
	f := Flatten(img)
	img.flat.CompareAndSwap(nil, f)
	return f
}

// Flatten builds a new flat form of img as it is now. The source image is
// not retained; mutating it afterwards (FlipBit) does not affect the result.
func Flatten(img *Image) *FlatImage {
	f := &FlatImage{stages: make([]flatStage, len(img.Stages))}
	words := 0
	for s := range img.Stages {
		for i := range img.Stages[s].Entries {
			if img.Stages[s].Entries[i].Leaf {
				words += len(img.Stages[s].Entries[i].NHI)
			}
		}
	}
	f.nhi = make([]ip.NextHop, 0, words)
	for s := range img.Stages {
		entries := img.Stages[s].Entries
		fs := flatStage{
			meta:  make([]uint16, len(entries)),
			child: make([][2]uint32, len(entries)),
			// At least one visit even for an empty stage, so a flight
			// arriving there trips the same out-of-range fault the scalar
			// engine raises.
			visits: 1,
		}
		lo, hi := -1, -1
		for i := range entries {
			l := entries[i].Level
			if lo == -1 || l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
		if lo != -1 {
			fs.visits = hi - lo + 1
		}
		f.stages[s] = fs
		for i := range entries {
			if n := len(entries[i].NHI); entries[i].Leaf {
				// Reserve the leaf's slab slot; derive fills it.
				fs.child[i] = [2]uint32{uint32(len(f.nhi)), uint32(n)}
				f.nhi = f.nhi[:len(f.nhi)+n]
			}
			f.derive(img, s, uint32(i))
		}
	}
	// The table's depth is a rule on the image, not a setting: the first level
	// of the deepest stage that keeps it within maxJumpBits and gives it no
	// more slots than the image has entries — so it costs a fraction of the
	// image to build and to hold, and an image too small for the rule has none.
	// Whole stages only: the sweep's level-major trip count per stage stays
	// uniform, and a jumper enters its stage as a walked flight does.
	entries := img.Words()
	for s, level := 0, 0; s < len(f.stages) && level <= maxJumpBits && 1<<level <= entries; s++ {
		f.jumpStage, f.jumpShift = s, uint8(32-level)
		level += f.stages[s].visits
	}
	if f.jumpStage > 0 {
		f.jump = make([]uint32, 1<<(32-f.jumpShift))
		f.buildJump()
	}
	return f
}

// buildJump fills the jump table from the words of stages below jumpStage as
// they are now: Flatten's last step, and the patch of an own flat image's
// table after an upset in one of those stages. It takes every top-bits
// pattern through the steps the sweep would — visits steps per stage, level by
// level — widening the table in place from one slot (the root) to two per
// slot of the level above, so it terminates on any words: a corrupt pointer
// cannot make it cycle.
func (f *FlatImage) buildJump() {
	t := f.jump
	t[0] = 0 // every walk enters stage 0 at entry 0
	level := 0
	for s := 0; s < f.jumpStage; s++ {
		meta, child := f.stages[s].meta, f.stages[s].child
		for v := 0; v < f.stages[s].visits; v++ {
			for p := 1<<level - 1; p >= 0; p-- {
				kids := [2]uint32{noJump, noJump}
				// A slot already noJump is out of range here, as every wild
				// pointer. The level test keeps a pointer that landed, in
				// range, on a word of another level out of the table: the bit
				// that word consumes is not this step's.
				if idx := t[p]; uint64(idx) < uint64(len(meta)) {
					if m := meta[idx]; m&(metaLeaf|metaParityBad) == 0 && m&metaShiftMask == uint16(31-level) {
						kids = child[idx]
					}
				}
				t[2*p], t[2*p+1] = kids[0], kids[1]
			}
			level++
		}
	}
}

// derive writes entry (s, i)'s words from img: the meta word, and the child
// pair of an internal node or the slab words of a leaf (whose slab slot was
// laid out by Flatten). It is both Flatten's per-entry step and the patch
// that follows an upset, which changes data bits but never an entry's kind,
// level or vector length.
func (f *FlatImage) derive(img *Image, s int, i uint32) {
	if s < 0 || s >= len(f.stages) || int(i) >= len(f.stages[s].meta) {
		return
	}
	fs := &f.stages[s]
	e := &img.Stages[s].Entries[i]
	var m uint16
	if e.Parity != e.DataParity() {
		m |= metaParityBad
	}
	if e.Leaf {
		m |= metaLeaf | uint16(e.Level)&metaLevelMask
		copy(f.nhi[fs.child[i][0]:], e.NHI)
	} else {
		// Internal nodes consume one address bit; levels beyond 31
		// cannot have children in a 32-bit trie.
		m |= uint16(31-e.Level) & metaShiftMask
		fs.child[i] = e.Child
		if img.Map.Stage(e.Level+1) == s {
			m |= metaFold
		}
	}
	fs.meta[i] = m
}
