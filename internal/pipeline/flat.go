package pipeline

import (
	"math/bits"
	"slices"

	"vrpower/internal/trie"
)

// The derived words of an image: per entry the stale-parity verdict and the
// fold flag, per stage the visit count, per image the per-level counts, the
// jump table and its depth. Flatten recomputes all of them from the stored
// words; patch keeps them true after one stored word changed.

// noJump marks a jump-table slot whose addresses are walked from stage 0. As
// an entry index it is out of every stage's range, so a (corrupt) pointer of
// this value loses nothing by being walked.
const noJump = ^uint32(0)

// maxJumpBits bounds the jump table at 2^16 slots (256 KB): fewer than 1 % of
// routed lookups on allocation-block-shaped tables end above trie level 16,
// and a deeper table outgrows the cache that makes it cheaper than the walk.
const maxJumpBits = 16

// Flatten returns a copy of img with every derived word recomputed from the
// stored ones; img is not written. On an image whose derived words were kept
// as its stored ones changed — every image this package hands out — the copy
// equals its source, which is what tests hold incremental maintenance to.
func Flatten(img *Image) *Image {
	out := img.Clone()
	out.derive()
	return out
}

// derive recomputes, in place, every derived word from the stored ones: what
// follows a stage splice or a hand-made image, and what the compiler, which
// writes the per-entry and per-stage ones and counts the levels as it goes,
// is held to.
func (img *Image) derive() {
	img.ownAll()
	var levels [metaLevelMask + 1]trie.Level
	height := -1
	for s := range img.stages {
		st := &img.stages[s]
		child := st.child[:len(st.meta)]
		lo, hi := int(metaLevelMask), -1
		for i, m := range st.meta {
			m = img.derived(s, m, child[i])
			st.meta[i] = m
			l := levelOf(m)
			lo, hi, height = min(lo, l), max(hi, l), max(height, l)
			levels[l].Nodes++
			if m&metaLeaf != 0 {
				levels[l].Leaves++
			} else {
				levels[l].Internal++
			}
		}
		// At least one visit even for an empty stage, so a flight arriving
		// there trips the same out-of-range fault the scalar engine raises.
		st.visits = max(hi-lo+1, 1)
		st.bits = st.sumBits()
	}
	img.Levels = slices.Clone(levels[:height+1])
	img.deriveJump()
}

// deriveJump sets the jump table's depth and builds it, from the words and
// the visit counts.
func (img *Image) deriveJump() {
	// The table's depth is a rule on the image, not a setting: the first level
	// of the deepest stage that keeps it within maxJumpBits and gives it no
	// more slots than the image has entries — so it costs a fraction of the
	// image to build and to hold, and an image too small for the rule has none.
	// Whole stages only: the sweep's level-major trip count per stage stays
	// uniform, and a jumper enters its stage as a walked flight does.
	img.jump, img.jumpStage, img.jumpShift = nil, 0, 0
	entries := img.Words()
	for s, level := 0, 0; s < len(img.stages) && level <= maxJumpBits && 1<<level <= entries; s++ {
		img.jumpStage, img.jumpShift = s, uint8(32-level)
		level += img.stages[s].visits
	}
	if img.jumpStage > 0 {
		img.jump, img.jumpOwned = make([]uint32, 1<<(32-img.jumpShift)), true
		img.buildJump()
	}
}

// levelOf is the trie level a meta word stores.
func levelOf(m uint16) int {
	if m&metaLeaf != 0 {
		return int(m & metaLevelMask)
	}
	return 31 - int(m&metaShiftMask)
}

// dataParity is Entry.DataParity on the words: the even-parity bit over the
// data of an entry with meta word m and pair c, a leaf's data being the
// next-hop vector the pair names. Sim does not use it — it recomputes parity
// through the view — so the two are held to each other.
func (img *Image) dataParity(m uint16, c [2]uint32) uint16 {
	x := c[0] ^ c[1]
	if m&metaLeaf != 0 {
		x = 1
		for _, nh := range img.nhi[c[0] : c[0]+c[1]] {
			x ^= uint32(nh)
		}
	}
	return uint16(bits.OnesCount32(x) & 1)
}

// derived returns the meta word m of an entry of stage s with pair c, its
// verdict and fold bits recomputed.
func (img *Image) derived(s int, m uint16, c [2]uint32) uint16 {
	m &^= metaParityBad | metaFold
	if m&metaLeaf == 0 && img.Map.Stage(levelOf(m)+1) == s {
		m |= metaFold
	}
	return m | (m>>9^img.dataParity(m, c))&1<<7
}

// patch re-derives what depends on entry (s, i)'s data after it changed (an
// upset changes data bits, never an entry's kind, level or vector length):
// the entry's verdict — recomputed, not toggled: a second upset can restore
// parity — and the jump table when the entry is in a stage the table stands
// for, so the very next walk sees an upset in the top of the trie.
func (img *Image) patch(s int, i uint32) {
	st := &img.stages[s]
	st.meta[i] = img.derived(s, st.meta[i], st.child[i])
	if s < img.jumpStage {
		img.ownJump()
		img.buildJump()
	}
}

// buildJump fills the jump table from the words of stages below jumpStage as
// they are now. It takes every top-bits pattern through the steps the sweep
// would — visits steps per stage, level by level — widening the table in
// place from one slot (the root) to two per slot of the level above, so it
// terminates on any words: a corrupt pointer cannot make it cycle.
func (img *Image) buildJump() {
	t := img.jump
	t[0] = 0 // every walk enters stage 0 at entry 0
	level := 0
	for s := 0; s < img.jumpStage; s++ {
		meta, child := img.stages[s].meta, img.stages[s].child
		for v := 0; v < img.stages[s].visits; v++ {
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
