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
	img.sizeJump()
	if img.jump != nil {
		img.buildJump()
	}
}

// sizeJump sets the jump table's depth from the visit counts and the entry
// count, and gives the image a table of that depth, its slots unwritten.
func (img *Image) sizeJump() {
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
	}
}

// jumpSpan is the jump table's spans, kept in its array past the slots by
// a table deeper than partBits that patch has written: per part and per
// level from partBits down, the least and the greatest index the walks of
// the part's top bits read there (widen), which patch rebuilds the parts
// by. A compiled image keeps none, nor does Flatten's copy; they are not
// compared (Equal).
func (img *Image) jumpSpan() []uint32 {
	if span := img.jump[len(img.jump):cap(img.jump)]; len(span) == img.spanLen() {
		return span
	}
	return nil
}

// spanLen is the spans' length for a table of img's depth.
func (img *Image) spanLen() int {
	return parts * 2 * max(32-int(img.jumpShift)-partBits, 0)
}

// buildJump fills the jump table from the words of stages below jumpStage as
// they are now, and its spans where it keeps them: a table at most partBits
// deep at once, a deeper one the slots of each part's top bits from that
// part's entry at level partBits.
func (img *Image) buildJump() {
	if img.spanLen() == 0 {
		img.jump[0] = 0 // every walk enters stage 0 at entry 0
		img.widen(img.jump, nil, 0, 32-int(img.jumpShift))
		return
	}
	roots := img.jumpRoots()
	for p := range parts {
		img.jumpPart(p, roots[p])
	}
}

// jumpRoots returns, per part, the entry the walk of its top bits reaches at
// level partBits (noJump where it does not).
func (img *Image) jumpRoots() (roots [parts]uint32) {
	img.widen(roots[:], nil, 0, partBits)
	return roots
}

// jumpPart fills the slots of part p's top bits, and the part's spans if
// the table keeps them, from root, its entry at level partBits.
func (img *Image) jumpPart(p int, root uint32) {
	n := len(img.jump) / parts
	t := img.jump[p*n : (p+1)*n]
	t[0] = root
	var span []uint32
	if all := img.jumpSpan(); len(all) > 0 {
		w := len(all) / parts
		span = all[p*w : (p+1)*w]
	}
	img.widen(t, span, partBits, 32-int(img.jumpShift))
}

// widen takes the walks through the steps the sweep would — visits steps
// per stage, level by level — from level from, where t[0] holds the entry
// the walk has reached, to level to, widening t in place from one slot to
// two per slot of the level above, so it terminates on any words: a corrupt
// pointer cannot make it cycle. When span is not nil it gets, per level,
// the least and the greatest index in range the walks read there: which
// words of the level the slots depend on.
func (img *Image) widen(t, span []uint32, from, to int) {
	level := 0
	for s := 0; s < img.jumpStage && level < to; s++ {
		meta, child := img.stages[s].meta, img.stages[s].child
		for v := 0; v < img.stages[s].visits && level < to; v, level = v+1, level+1 {
			if level < from {
				continue
			}
			lo, hi := noJump, uint32(0)
			for p := 1<<(level-from) - 1; p >= 0; p-- {
				kids := [2]uint32{noJump, noJump}
				// A slot already noJump is out of range here, as every wild
				// pointer. The level test keeps a pointer that landed, in
				// range, on a word of another level out of the table: the bit
				// that word consumes is not this step's.
				if idx := t[p]; uint64(idx) < uint64(len(meta)) {
					lo, hi = min(lo, idx), max(hi, idx)
					if m := meta[idx]; m&(metaLeaf|metaParityBad) == 0 && m&metaShiftMask == uint16(31-level) {
						kids = child[idx]
					}
				}
				t[2*p], t[2*p+1] = kids[0], kids[1]
			}
			if span != nil {
				span[2*(level-from)], span[2*(level-from)+1] = lo, hi
			}
		}
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
// parity — and, when the entry is an internal node in a stage the jump table
// stands for, the table, so the very next walk sees an upset in the top of
// the trie. (A leaf's data never moves a slot: the walks stop there.) An
// entry of the top rebuilds the whole table; one below it rebuilds the
// slots of each part whose walks read it, by the part's span at the entry's
// level — one part on a compiled image, more where a corrupt pointer has
// taken a part's walks into another's words.
func (img *Image) patch(s int, i uint32) {
	st := &img.stages[s]
	m := img.derived(s, st.meta[i], st.child[i])
	st.meta[i] = m
	if s >= img.jumpStage || m&metaLeaf != 0 {
		return
	}
	if img.ownJump() {
		return // built whole, spans and all
	}
	l, span := levelOf(m), img.jumpSpan()
	if l < partBits || len(span) == 0 {
		img.buildJump()
		return
	}
	if l >= 32-int(img.jumpShift) {
		return // read at no step: no walk gets there before jumpStage
	}
	roots, w := img.jumpRoots(), len(span)/parts
	for p := range parts {
		if at := span[p*w+2*(l-partBits):]; at[0] <= i && i <= at[1] {
			img.jumpPart(p, roots[p])
		}
	}
}
