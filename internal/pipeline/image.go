// Package pipeline implements the linear pipelined IP lookup engine of
// Section V-D: each trie level is mapped onto a pipeline stage with an
// independently accessible memory, a packet traverses the stages like a trie
// walk, and the last stage emits the next-hop information (NHI). The package
// provides a compiler from sorted route lists to stage memory images, a
// cycle-accurate simulator with clock-gating activity counters (Sim, the
// oracle), and the engine every runner serves from (BatchSim).
package pipeline

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"sync/atomic"

	"vrpower/internal/ip"
	"vrpower/internal/obs"
	"vrpower/internal/trie"
)

// An image is its stage-memory words, in the form the engine reads them. Per
// stage, two parallel slices:
//
//   - meta:  one uint16 per entry: the trie level, the leaf flag and the
//     stored parity bit, plus two derived bits — the stale-parity verdict and
//     the fold flag — so that everything the walk branches on is in one word
//     and the parity check is a bit test.
//   - child: one [2]uint32 per entry: an internal node's two child indices, or
//     a leaf's {offset into the NHI slab, vector length}.
//
// and per image one NHI slab — all leaf vectors back to back, in stage-then-
// index order — and the derived jump table (flat.go). A compile lays the
// stages' slices out as runs of one array each, so a compiled image is five
// allocations with its per-level counts.
//
// Stored words are what a table compiles to and what an upset strikes; derived
// words are a function of them (Flatten, from scratch). Whoever writes a stored
// word re-derives what depends on it: FlipBit one entry at a time, Splice
// afresh. Engines read an image's words in place, all engines over it the same
// ones, so an image that may be written is served by its writer alone: the
// owner of a compiled image keeps it pristine and hands out clones. A clone
// shares its source's stage headers and words until either side writes, and
// then copies only what the write touches: a writer first calls own(s) for
// the stage it writes, ownSlab before it writes or appends to a leaf vector,
// ownJump before it rebuilds the jump table.
//
// Internal nodes store the precomputed shift amount 31-level (≤ 31, so the
// hot loop's address-bit extract masks with 0x1F and the compiler can prove
// the shift in range — no masking cmov). Leaves store the raw level; they
// never shift.
const (
	metaLevelMask uint16 = 0x3F   // trie level (leaves) / 31-level shift (internal)
	metaShiftMask uint16 = 0x1F   // internal-node shift amount, provably < 32
	metaLeaf      uint16 = 1 << 6 // entry resolves the lookup
	metaParityBad uint16 = 1 << 7 // derived: stored parity ≠ data parity
	metaFold      uint16 = 1 << 8 // derived: child level maps to this same stage
	metaParity    uint16 = 1 << 9 // the stored parity bit

	// metaKind is what identifies a word besides its data: two words that
	// agree in it and in their data are the same word to an update.
	metaKind = metaLevelMask | metaLeaf

	// An internal node's flippable data: two PtrBits-wide child pointers
	// (DefaultLayout widths; a leaf's is NHIBits per next hop).
	ptrBits = 18
	nhiBits = 8
)

// stage is one stage memory. visits is the number of trie levels folded into
// the stage — the uniform step count every unresolved flight performs while in
// it (the StageMap's contiguity, pinned by TestStageMapContiguity, guarantees
// the levels form one run) — which lets the batched sweep drive the
// intra-stage walk with a fixed trip count instead of a per-entry fold branch.
// bits is the stage's flippable data bits, what Locate searches by. Both are
// derived; an upset changes neither. owned says the image whose headers these
// are may write meta and child in place; it means nothing while the headers
// are shared (Image.shared).
type stage struct {
	meta   []uint16
	child  [][2]uint32
	visits int
	bits   int64
	owned  bool
}

// Image is a compiled pipeline memory image.
type Image struct {
	// K is the number of virtual networks (NHI vector width).
	K int
	// Map is the level→stage mapping used at compile time.
	Map trie.StageMap
	// Levels counts, per trie level, the internal nodes and leaves the image
	// holds: what its memory is priced from, through Map. Derived (an upset
	// changes no entry's kind or level); compile counts them in its first walk.
	Levels []trie.Level

	stages []stage
	nhi    []ip.NextHop

	// jump is the jump table over the address's top 32-jumpShift bits, a pure
	// function of the words of stages below jumpStage: jump[addr>>jumpShift] is
	// the entry at which addr's walk enters stage jumpStage, or noJump where
	// that walk does not get there the plain way — it ends at a leaf, leaves a
	// stage's index range, or meets a stale-parity word (whether or not the
	// engine checks: a walk from stage 0 gives the right verdict either way)
	// or a word of another level than the walk's step. Nil on an image too
	// small to have one. Past its length, the table's array holds the
	// spans (jumpSpan). Derived.
	jump      []uint32
	jumpStage int
	jumpShift uint8

	// shared is set on both sides of a Clone while they may share stage
	// headers; the first write clears it, giving the writer headers of its own
	// with no stage owned. Atomic: clones of one source are taken
	// concurrently. slabOwned and jumpOwned say the image may write its slab
	// and jump table in place; like stage.owned they mean nothing while
	// shared.
	shared               atomic.Bool
	slabOwned, jumpOwned bool
}

// Entry is the view of one stage-memory word that the scalar oracle, the HDL
// backend and hand-made test images use: either an internal node holding two
// child indices into the next stage's memory, or a leaf holding the NHI
// vector.
type Entry struct {
	Leaf bool
	// Level is the trie node level this entry belongs to; with folded
	// shallow levels a stage may hold entries of several levels.
	Level int
	// Child indexes the two children ({0, 0} on a leaf). For entries whose
	// level maps to the same stage (folding) the index is within this stage;
	// otherwise it is within the next stage.
	Child [2]uint32
	// NHI is the per-VN next-hop vector of a leaf (length K on compiled
	// images). A view's NHI aliases the image's words, capped to its own.
	NHI []ip.NextHop
	// Parity is the stored even-parity bit over the entry's data bits,
	// computed at compile time the way a BRAM parity column would be. An SEU
	// bit flip (Image.FlipBit) leaves it stale, which is what per-stage parity
	// checking keys on to detect corruption.
	Parity uint8
}

// DataParity computes the even-parity bit over the entry's data bits.
func (e *Entry) DataParity() uint8 {
	x := e.Child[0] ^ e.Child[1]
	if e.Leaf {
		x ^= 1
	}
	for _, nh := range e.NHI {
		x ^= uint32(nh)
	}
	return uint8(bits.OnesCount32(x) & 1)
}

// Image-build instrumentation (surfaced by the cmd tools' -stats flag and
// /metrics): how many images were compiled from routes, how many were cloned
// from an already-compiled one, and how many stages a written clone copied.
var (
	obsImagesCompiled = obs.NewCounter("pipeline.images_compiled")
	obsImagesCloned   = obs.NewCounter("pipeline.images_cloned")
	obsImageCopies    = obs.NewCounter("pipeline.image_copies")
)

// newImage returns an image of lens[s] zero words in stage s, over an empty
// slab with room for words next hops. It owns everything; its derived words
// are zero until whoever writes the stored ones derives them.
func newImage(k int, sm trie.StageMap, lens []int, words int) *Image {
	total := 0
	for _, n := range lens {
		total += n
	}
	img := &Image{
		K: k, Map: sm,
		stages:    make([]stage, len(lens)),
		nhi:       make([]ip.NextHop, 0, words),
		slabOwned: true,
	}
	meta, child := make([]uint16, total), make([][2]uint32, total)
	off := 0
	for s, n := range lens {
		// Capacity cut to length: a stage never grows into its neighbour.
		img.stages[s] = stage{meta: meta[off : off+n : off+n], child: child[off : off+n : off+n], visits: 1, owned: true}
		off += n
	}
	return img
}

// NewImage builds an image from hand-made entries, entries[s] becoming stage
// s — the constructor of test fixtures; tables compile. Entries are stored as
// given, stale Parity included; a leaf's Child is not stored and must be zero.
func NewImage(k int, sm trie.StageMap, entries [][]Entry) (*Image, error) {
	if len(entries) != sm.Stages {
		return nil, fmt.Errorf("pipeline: %d stages of entries for a %d-stage map", len(entries), sm.Stages)
	}
	lens, words := make([]int, len(entries)), 0
	for s := range entries {
		lens[s] = len(entries[s])
		for i := range entries[s] {
			e := &entries[s][i]
			switch {
			case e.Leaf && e.Child != [2]uint32{}:
				return nil, fmt.Errorf("pipeline: stage %d entry %d: leaf with child pointers %v", s, i, e.Child)
			case e.Level < 0 || e.Leaf && e.Level > int(metaLevelMask) || !e.Leaf && e.Level > int(metaShiftMask):
				return nil, fmt.Errorf("pipeline: stage %d entry %d: level %d out of range", s, i, e.Level)
			case e.Leaf:
				words += len(e.NHI)
			}
		}
	}
	img := newImage(k, sm, lens, words)
	for s := range entries {
		for i := range entries[s] {
			img.setEntry(s, i, &entries[s][i])
		}
	}
	img.derive()
	return img, nil
}

// setEntry stores e's words as entry (s, i), a leaf's vector at the end of
// the slab, and keeps the stage's data bits true; the other derived words are
// left for derive.
func (img *Image) setEntry(s, i int, e *Entry) {
	img.own(s)
	st := &img.stages[s]
	st.bits -= int64(dataBits(st.meta[i], st.child[i]))
	m := uint16(e.Parity&1) << 9
	if e.Leaf {
		img.ownSlab()
		m |= metaLeaf | uint16(e.Level)
		st.child[i] = [2]uint32{uint32(len(img.nhi)), uint32(len(e.NHI))}
		img.nhi = append(img.nhi, e.NHI...)
	} else {
		m |= uint16(31 - e.Level)
		st.child[i] = e.Child
	}
	st.meta[i] = m
	st.bits += int64(dataBits(m, st.child[i]))
}

// Stages returns the number of pipeline stages.
func (img *Image) Stages() int { return len(img.stages) }

// StageLen returns the number of entries in stage s's memory.
func (img *Image) StageLen(s int) int { return len(img.stages[s].meta) }

// Entry returns the view of entry (s, i).
func (img *Image) Entry(s int, i uint32) (e Entry) {
	img.stages[s].view(&e, img.nhi, i)
	return e
}

// view makes e the view of the stage's entry i, slab being its image's. (It
// fills e in place and stays under the inliner's budget: the scalar oracle
// takes one per memory access.)
func (st *stage) view(e *Entry, slab []ip.NextHop, i uint32) {
	m, c := st.meta[i], st.child[i]
	e.Parity = uint8(m >> 9 & 1)
	if e.Leaf = m&metaLeaf != 0; e.Leaf {
		e.Level, e.Child, e.NHI = int(m&metaLevelMask), [2]uint32{}, slab[c[0]:][:c[1]:c[1]]
	} else {
		e.Level, e.Child, e.NHI = 31-int(m&metaShiftMask), c, nil
	}
}

// Clone returns a copy of the image that shares every stage with its source
// until either writes one. The owner of a compiled image keeps it pristine and
// hands clones to whatever may write them — fault injection, a data plane
// under it — so a clone is a header, and a write copies the stage it lands in.
func (img *Image) Clone() *Image {
	img.shared.Store(true)
	out := &Image{
		K: img.K, Map: img.Map, Levels: img.Levels, stages: img.stages, nhi: img.nhi,
		jump: img.jump, jumpStage: img.jumpStage, jumpShift: img.jumpShift,
	}
	out.shared.Store(true)
	obsImagesCloned.Inc()
	return out
}

// ownHeaders gives img stage headers of its own if a clone may share them,
// none of their stages, slab or jump table owned yet.
func (img *Image) ownHeaders() {
	if !img.shared.Load() {
		return
	}
	img.stages = slices.Clone(img.stages)
	for s := range img.stages {
		img.stages[s].owned = false
	}
	img.slabOwned, img.jumpOwned = false, false
	img.shared.Store(false)
}

// own gives img its own copy of stage s's words, which no other image reads,
// before the write that calls it. The other stages stay shared.
func (img *Image) own(s int) {
	img.ownHeaders()
	if st := &img.stages[s]; !st.owned {
		st.meta, st.child, st.owned = slices.Clone(st.meta), slices.Clone(st.child), true
		obsImageCopies.Inc()
	}
}

// ownSlab gives img its own copy of the NHI slab, before a leaf's vector is
// written or appended to.
func (img *Image) ownSlab() {
	img.ownHeaders()
	if !img.slabOwned {
		img.nhi, img.slabOwned = slices.Clone(img.nhi), true
	}
}

// ownJump gives img a jump table of its own, with room for spans, before
// patch rebuilds some of its slots: a copy of its source's where that kept
// spans, else one built afresh from the words, which it reports.
func (img *Image) ownJump() (built bool) {
	img.ownHeaders()
	if img.jumpOwned {
		return false
	}
	src, span := img.jump, img.jumpSpan()
	buf := make([]uint32, len(src)+img.spanLen())
	img.jump, img.jumpOwned = buf[:len(src)], true
	if len(span) == 0 {
		img.buildJump()
		return true
	}
	copy(buf, src)
	copy(buf[len(src):], span)
	return false
}

// ownAll gives img its own copy of every stage it shares, laid out as a
// compile lays them (one array each for meta and child words), and of the
// slab: what derive, which rewrites every stage, calls.
func (img *Image) ownAll() {
	img.ownHeaders()
	n, copied := 0, int64(0)
	for _, st := range img.stages {
		if !st.owned {
			n += len(st.meta)
		}
	}
	meta, child := make([]uint16, 0, n), make([][2]uint32, 0, n)
	for s := range img.stages {
		if st := &img.stages[s]; !st.owned {
			at := len(meta)
			meta, child = append(meta, st.meta...), append(child, st.child...)
			st.meta, st.child, st.owned = meta[at:len(meta):len(meta)], child[at:len(child):len(child)], true
			copied++
		}
	}
	obsImageCopies.Add(copied)
	img.ownSlab()
}

// Splice returns the image a reload of head that got n stages far leaves in a
// memory that held tail: head's words in stages [0, n), tail's in the rest.
// Every word is a copy — leaf vectors in the new image's own slab — so what
// strikes the splice reaches neither source, and every derived word follows.
func Splice(head, tail *Image, n int) *Image {
	src := func(s int) *Image {
		if s < n {
			return head
		}
		return tail
	}
	lens := make([]int, len(tail.stages))
	for s := range lens {
		lens[s] = len(src(s).stages[s].meta)
	}
	out := newImage(tail.K, tail.Map, lens, len(head.nhi)+len(tail.nhi))
	for s := range out.stages {
		from, st := src(s), &out.stages[s]
		copy(st.meta, from.stages[s].meta)
		for i, c := range from.stages[s].child {
			if st.meta[i]&metaLeaf != 0 {
				off := uint32(len(out.nhi))
				out.nhi = append(out.nhi, from.nhi[c[0]:c[0]+c[1]]...)
				c[0] = off
			}
			st.child[i] = c
		}
	}
	out.derive()
	return out
}

// DataBits returns the total flippable data bits across all stages — the
// exposure area an SEU rate per bit-cycle multiplies.
func (img *Image) DataBits() int64 {
	var total int64
	for s := range img.stages {
		total += img.stages[s].bits
	}
	return total
}

// dataBits returns the number of flippable data bits an entry occupies under
// the paper's memory layout: two PtrBits-wide child pointers for an internal
// node, NHIBits a next hop for a leaf (DefaultLayout widths).
func dataBits(m uint16, c [2]uint32) int {
	if m&metaLeaf != 0 {
		return int(c[1]) * nhiBits
	}
	return 2 * ptrBits
}

// sumBits is the stage's data bits, from its words.
func (st *stage) sumBits() (n int64) {
	for i, m := range st.meta {
		n += int64(dataBits(m, st.child[i]))
	}
	return n
}

// Words returns the total stage-memory word (entry) count — the reload cost
// of a full image scrub.
func (img *Image) Words() (n int) {
	for s := range img.stages {
		n += len(img.stages[s].meta)
	}
	return n
}

// Locate maps a flat bit offset in [0, DataBits()) onto the (stage, index,
// bit-within-entry) coordinates FlipBit takes: the stage whose data bits hold
// the offset, then the entry within it, scanned for from the stage's nearer
// end. It reports false when off is out of range.
func (img *Image) Locate(off int64) (stage int, index uint32, bit int, ok bool) {
	if off < 0 {
		return 0, 0, 0, false
	}
	for s := range img.stages {
		st := &img.stages[s]
		if off >= st.bits {
			off -= st.bits
			continue
		}
		meta, child := st.meta, st.child[:len(st.meta)]
		if off < st.bits/2 {
			for i, m := range meta {
				n := int64(dataBits(m, child[i]))
				if off < n {
					return s, uint32(i), int(off), true
				}
				off -= n
			}
		}
		// From the end: r is the bits from off to the end of entry i.
		r := st.bits - off
		for i := len(meta) - 1; i >= 0; i-- {
			n := int64(dataBits(meta[i], child[i]))
			if r <= n {
				return s, uint32(i), int(n - r), true
			}
			r -= n
		}
	}
	return 0, 0, 0, false
}

// FlipBit flips one data bit of entry (stage, index), modelling a single-
// event upset in that stage's BRAM: bit b of an internal node toggles child
// pointer b/18 at position b%18; bit b of a leaf toggles next hop b/8 at
// position b%8. bit is reduced modulo the entry's data width. The stored
// parity bit is deliberately left stale — that staleness is the detectable
// signature of the upset — and the derived words follow. It reports false
// when the coordinates are out of range (e.g. an upset scheduled against an
// image that has since shrunk). An engine serving the image is told first
// (BatchSim.Patch).
func (img *Image) FlipBit(stage int, index uint32, bit int) bool {
	if stage < 0 || stage >= len(img.stages) || int(index) >= len(img.stages[stage].meta) {
		return false
	}
	st := &img.stages[stage]
	n := dataBits(st.meta[index], st.child[index])
	if n == 0 {
		return false
	}
	bit = ((bit % n) + n) % n
	img.own(stage)
	st = &img.stages[stage]
	if st.meta[index]&metaLeaf != 0 {
		img.ownSlab()
		img.nhi[int(st.child[index][0])+bit/nhiBits] ^= 1 << (bit % nhiBits)
	} else {
		st.child[index][bit/ptrBits] ^= 1 << (bit % ptrBits)
	}
	img.patch(stage, index)
	return true
}

// Corrupted returns the coordinates of words whose stored parity no longer
// matches their data — the ground-truth view a verifying test (or an offline
// readback scrub) gets.
func (img *Image) Corrupted() (stages []int, indices []uint32) {
	for s := range img.stages {
		for i, m := range img.stages[s].meta {
			if m&metaParityBad != 0 {
				stages = append(stages, s)
				indices = append(indices, uint32(i))
			}
		}
	}
	return stages, indices
}

// ParityStale reports whether entry (s, i)'s stored parity no longer matches
// its data: what a readback of the word finds.
func (img *Image) ParityStale(s int, i uint32) bool {
	return img.stages[s].meta[i]&metaParityBad != 0
}

// DiffStage calls differ, in index order, with every index of stage s at
// which img and other do not hold the same word: a different kind or level,
// other child pointers, another next-hop vector — or no word at all on one
// side, when the stages differ in length. Parity is not compared: it follows
// the data.
func (img *Image) DiffStage(other *Image, s int, differ func(i uint32)) {
	a, b := &img.stages[s], &other.stages[s]
	n, m := len(a.meta), len(b.meta)
	if m < n {
		n, m = m, n
	}
	for i := 0; i < n; i++ {
		ca, cb := a.child[i], b.child[i]
		same := (a.meta[i]^b.meta[i])&metaKind == 0
		if same && a.meta[i]&metaLeaf != 0 {
			same = slices.Equal(img.nhi[ca[0]:ca[0]+ca[1]], other.nhi[cb[0]:cb[0]+cb[1]])
		} else if same {
			same = ca == cb
		}
		if !same {
			differ(uint32(i))
		}
	}
	for i := n; i < m; i++ {
		differ(uint32(i))
	}
}

// Equal reports whether img and o hold the same words: K, stage map and
// per-level counts, every stage's meta and child words, visit count and data
// bits, the NHI slab, and the jump table with its depth (not the spans patch
// keeps, which a compile does not write). Which stages either
// shares with a clone is not compared.
func (img *Image) Equal(o *Image) bool {
	same := img.K == o.K && reflect.DeepEqual(img.Map, o.Map) && slices.Equal(img.Levels, o.Levels) &&
		slices.Equal(img.nhi, o.nhi) && slices.Equal(img.jump, o.jump) && img.jumpStage == o.jumpStage &&
		img.jumpShift == o.jumpShift && len(img.stages) == len(o.stages)
	for s := 0; same && s < len(img.stages); s++ {
		a, b := &img.stages[s], &o.stages[s]
		same = slices.Equal(a.meta, b.meta) && slices.Equal(a.child, b.child) && a.visits == b.visits && a.bits == b.bits
	}
	return same
}
