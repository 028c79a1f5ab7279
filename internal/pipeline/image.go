// Package pipeline implements the linear pipelined IP lookup engine of
// Section V-D: each trie level is mapped onto a pipeline stage with an
// independently accessible memory, a packet traverses the stages like a trie
// walk, and the last stage emits the next-hop information (NHI). The package
// provides a compiler from (merged) tries to stage memory images, a
// cycle-accurate simulator with clock-gating activity counters (Sim, the
// oracle), and the flat-image engine every runner serves from (BatchSim).
package pipeline

import (
	"fmt"
	"sync/atomic"

	"vrpower/internal/ip"
	"vrpower/internal/merge"
	"vrpower/internal/obs"
	"vrpower/internal/trie"
)

// Entry is one stage-memory word: either an internal node holding two child
// indices into the next stage's memory, or a leaf holding the NHI vector.
type Entry struct {
	Leaf bool
	// Level is the trie node level this entry belongs to; with folded
	// shallow levels a stage may hold entries of several levels.
	Level int
	// Child indexes the two children. For entries whose level maps to the
	// same stage (folding) the index is within this stage; otherwise it is
	// within the next stage.
	Child [2]uint32
	// NHI is the per-VN next-hop vector of a leaf (length K).
	NHI []ip.NextHop
	// Parity is the even-parity bit over the entry's data bits, computed at
	// compile time the way a BRAM parity column would be. An SEU bit flip
	// (Image.FlipBit) leaves it stale, which is what per-stage parity
	// checking keys on to detect corruption.
	Parity uint8
}

// DataBits returns the number of flippable data bits the entry occupies
// under the paper's memory layout: two PtrBits-wide child pointers for an
// internal node, K NHIBits-wide next hops for a leaf (DefaultLayout widths).
func (e *Entry) DataBits() int {
	if e.Leaf {
		return len(e.NHI) * 8
	}
	return 2 * 18
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
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return uint8(x & 1)
}

// StageMem is the memory of one pipeline stage.
type StageMem struct {
	Entries []Entry
}

// Image is a compiled pipeline memory image.
type Image struct {
	// Stage memories, one per pipeline stage.
	Stages []StageMem
	// K is the number of virtual networks (NHI vector width).
	K int
	// Map is the level→stage mapping used at compile time.
	Map trie.StageMap
	// flat caches the image's struct-of-arrays form, built the first time an
	// engine serves the image and shared by every engine that does (see
	// sharedFlat). A clone starts without one and FlipBit drops it, so a
	// cached form never outlives the words it was built from; code that
	// writes Entries directly must do so before the image is first served.
	flat atomic.Pointer[FlatImage]
}

// node abstracts trie.Node and merge.Node for compilation.
type node interface {
	leaf() bool
	child(b int) node
	// appendNHI appends the leaf's next-hop vector to slab.
	appendNHI(slab []ip.NextHop) []ip.NextHop
}

type uniNode struct{ n *trie.Node }

func (u uniNode) leaf() bool { return u.n.IsLeaf() }
func (u uniNode) child(b int) node {
	if u.n.Child[b] == nil {
		return nil
	}
	return uniNode{u.n.Child[b]}
}
func (u uniNode) appendNHI(slab []ip.NextHop) []ip.NextHop { return append(slab, u.n.NextHop) }

type mergedNode struct{ n *merge.Node }

func (m mergedNode) leaf() bool { return m.n.IsLeaf() }
func (m mergedNode) child(b int) node {
	if m.n.Child[b] == nil {
		return nil
	}
	return mergedNode{m.n.Child[b]}
}
func (m mergedNode) appendNHI(slab []ip.NextHop) []ip.NextHop { return append(slab, m.n.NHI...) }

// Compile maps a leaf-pushed single-network trie onto stages pipeline
// stages with the plain fold-into-stage-0 level mapping. Leaf pushing is
// required: only then does every lookup terminate at a leaf, which is what
// lets the hardware resolve the NHI in the last touched stage.
func Compile(tr *trie.Trie, stages int) (*Image, error) {
	if !tr.LeafPushed() {
		return nil, fmt.Errorf("pipeline: trie must be leaf-pushed before compilation")
	}
	sm, err := trie.NewStageMap(stages, tr.Stats().Height)
	if err != nil {
		return nil, err
	}
	return compile(uniNode{tr.Root()}, 1, sm)
}

// CompileMapped is Compile with an explicit level→stage mapping, e.g. a
// memory-balanced one from trie.NewBalancedStageMap.
func CompileMapped(tr *trie.Trie, sm trie.StageMap) (*Image, error) {
	if !tr.LeafPushed() {
		return nil, fmt.Errorf("pipeline: trie must be leaf-pushed before compilation")
	}
	return compile(uniNode{tr.Root()}, 1, sm)
}

// CompileMerged maps a leaf-pushed merged trie onto stages pipeline stages
// with the plain level mapping.
func CompileMerged(m *merge.Trie, stages int) (*Image, error) {
	if !m.LeafPushed() {
		return nil, fmt.Errorf("pipeline: merged trie must be leaf-pushed before compilation")
	}
	sm, err := trie.NewStageMap(stages, m.Stats().Height)
	if err != nil {
		return nil, err
	}
	return compile(mergedNode{m.Root()}, m.K(), sm)
}

// CompileMergedMapped is CompileMerged with an explicit level→stage mapping.
func CompileMergedMapped(m *merge.Trie, sm trie.StageMap) (*Image, error) {
	if !m.LeafPushed() {
		return nil, fmt.Errorf("pipeline: merged trie must be leaf-pushed before compilation")
	}
	return compile(mergedNode{m.Root()}, m.K(), sm)
}

// Image-build instrumentation (surfaced by the cmd tools' -stats flag and
// /metrics): how many images were compiled from a trie and how many were
// copied from an already-compiled one.
var (
	obsImagesCompiled = obs.NewCounter("pipeline.images_compiled")
	obsImagesCloned   = obs.NewCounter("pipeline.images_cloned")
)

// compile lays the trie out breadth-first, one pass: a node's index within
// its stage is assigned when the node is enqueued and recorded in its
// parent's queue slot, and since nodes leave the queue in the order they
// entered it, replaying the queue emits every stage's entries in index
// order. All leaves' NHI vectors share one slab (see nhiView).
func compile(root node, k int, sm trie.StageMap) (*Image, error) {
	type placed struct {
		n     node
		level int
		child [2]uint32
	}
	queue := make([]placed, 1, countNodes(root))
	queue[0].n = root
	next := make([]uint32, sm.Stages) // next free index per stage
	next[sm.Stage(0)] = 1
	leaves := 0
	for head := 0; head < len(queue); head++ {
		n, level := queue[head].n, queue[head].level
		if n.leaf() {
			leaves++
			continue
		}
		s := sm.Stage(level + 1)
		for b := 0; b < 2; b++ {
			c := n.child(b)
			if c == nil {
				return nil, fmt.Errorf("pipeline: internal node with missing child at level %d (trie not fully leaf-pushed?)", level)
			}
			queue[head].child[b] = next[s]
			next[s]++
			queue = append(queue, placed{n: c, level: level + 1})
		}
	}

	img := &Image{Stages: make([]StageMem, sm.Stages), K: k, Map: sm}
	for s, n := range next {
		if n > 0 {
			img.Stages[s].Entries = make([]Entry, 0, n)
		}
	}
	slab := make([]ip.NextHop, 0, leaves*k)
	for i := range queue {
		p := &queue[i]
		e := Entry{Level: p.level, Child: p.child}
		if p.n.leaf() {
			e.Leaf = true
			off := len(slab)
			slab = p.n.appendNHI(slab)
			e.NHI = nhiView(slab, off)
		}
		e.Parity = e.DataParity()
		st := &img.Stages[sm.Stage(p.level)]
		st.Entries = append(st.Entries, e)
	}
	obsImagesCompiled.Inc()
	return img, nil
}

// countNodes sizes compile's queue. A missing child counts as nothing;
// compile reports it when its walk gets there.
func countNodes(n node) int {
	if n == nil {
		return 0
	}
	if n.leaf() {
		return 1
	}
	return 1 + countNodes(n.child(0)) + countNodes(n.child(1))
}

// nhiView returns slab[off:] as one leaf's NHI vector. Its capacity is cut
// to its length, so an append through the view reallocates instead of
// growing into the next leaf's words; a write through it (FlipBit) stays
// inside its own words.
func nhiView(slab []ip.NextHop, off int) []ip.NextHop {
	return slab[off:len(slab):len(slab)]
}

// Clone returns a deep copy of the image (the stage map is shared; it is
// immutable): one entry array per stage and one next-hop slab, so the copy
// shares no mutable word with its source. The owner of a compiled image
// keeps it pristine and hands clones to whatever may write to them — fault
// injection, shadow-bank updates, a data plane under either.
func (img *Image) Clone() *Image {
	out := &Image{Stages: make([]StageMem, len(img.Stages)), K: img.K, Map: img.Map}
	words := 0
	for s := range img.Stages {
		for i := range img.Stages[s].Entries {
			words += len(img.Stages[s].Entries[i].NHI)
		}
	}
	slab := make([]ip.NextHop, 0, words)
	for s := range img.Stages {
		if len(img.Stages[s].Entries) == 0 {
			continue
		}
		entries := make([]Entry, len(img.Stages[s].Entries))
		copy(entries, img.Stages[s].Entries)
		for i := range entries {
			if entries[i].NHI != nil {
				off := len(slab)
				slab = append(slab, entries[i].NHI...)
				entries[i].NHI = nhiView(slab, off)
			}
		}
		out.Stages[s].Entries = entries
	}
	obsImagesCloned.Inc()
	return out
}

// DataBits returns the total flippable data bits across all stages — the
// exposure area an SEU rate per bit-cycle multiplies.
func (img *Image) DataBits() int64 {
	var total int64
	for s := range img.Stages {
		for i := range img.Stages[s].Entries {
			total += int64(img.Stages[s].Entries[i].DataBits())
		}
	}
	return total
}

// Words returns the total stage-memory word (entry) count — the reload cost
// of a full image scrub.
func (img *Image) Words() int {
	n := 0
	for _, s := range img.Stages {
		n += len(s.Entries)
	}
	return n
}

// Locate maps a flat bit offset in [0, DataBits()) onto the (stage, index,
// bit-within-entry) coordinates FlipBit takes. It reports false when off is
// out of range.
func (img *Image) Locate(off int64) (stage int, index uint32, bit int, ok bool) {
	if off < 0 {
		return 0, 0, 0, false
	}
	for s := range img.Stages {
		for i := range img.Stages[s].Entries {
			n := int64(img.Stages[s].Entries[i].DataBits())
			if off < n {
				return s, uint32(i), int(off), true
			}
			off -= n
		}
	}
	return 0, 0, 0, false
}

// FlipBit flips one data bit of entry (stage, index), modelling a single-
// event upset in that stage's BRAM: bit b of an internal node toggles child
// pointer b/18 at position b%18; bit b of a leaf toggles next hop b/8 at
// position b%8. bit is reduced modulo the entry's data width. The stored
// Parity is deliberately left stale — that staleness is the detectable
// signature of the upset. It reports false when the coordinates are out of
// range (e.g. an upset scheduled against an image that has since shrunk).
func (img *Image) FlipBit(stage int, index uint32, bit int) bool {
	if stage < 0 || stage >= len(img.Stages) {
		return false
	}
	entries := img.Stages[stage].Entries
	if int(index) >= len(entries) {
		return false
	}
	e := &entries[index]
	n := e.DataBits()
	if n == 0 {
		return false
	}
	bit = ((bit % n) + n) % n
	if e.Leaf {
		e.NHI[bit/8] ^= ip.NextHop(1) << (bit % 8)
	} else {
		e.Child[bit/18] ^= 1 << (bit % 18)
	}
	// Engines already serving the image keep the flat form they hold and
	// patch a copy of their own (BatchSim.Patch); later ones flatten afresh.
	img.flat.Store(nil)
	return true
}

// Corrupted scans every entry's parity and returns the coordinates of words
// whose stored parity no longer matches their data — the ground-truth view a
// verifying test (or an offline readback scrub) gets.
func (img *Image) Corrupted() (stages []int, indices []uint32) {
	for s := range img.Stages {
		for i := range img.Stages[s].Entries {
			e := &img.Stages[s].Entries[i]
			if e.Parity != e.DataParity() {
				stages = append(stages, s)
				indices = append(indices, uint32(i))
			}
		}
	}
	return stages, indices
}

// MemLayout sizes stage memories in bits. PtrBits is the width of one child
// pointer (the paper reads 18-bit-wide data, Section V-B); NHIBits is the
// width of one network's next-hop entry.
//
// IndirectNHI selects the alternative leaf layout of the DESIGN.md ablation:
// instead of storing the K-wide NHI vector inline at every leaf (the
// paper's Section V-D layout), each leaf stores a PtrBits-wide index into a
// shared table of distinct vectors. When many leaves share the same vector
// (high-overlap merges), indirection trades one extra memory for much
// smaller leaf entries.
type MemLayout struct {
	PtrBits     int
	NHIBits     int
	IndirectNHI bool
}

// DefaultLayout matches the paper's 18-bit read width with byte-wide NHI.
func DefaultLayout() MemLayout { return MemLayout{PtrBits: 18, NHIBits: 8} }

// EntryBits returns the storage cost of one entry for a K-network image:
// internal nodes store two child pointers, leaves store the K-wide NHI
// vector (Section V-D) or an index into the shared vector table.
func (l MemLayout) EntryBits(e Entry, k int) int64 {
	if e.Leaf {
		if l.IndirectNHI {
			return int64(l.PtrBits)
		}
		return int64(k) * int64(l.NHIBits)
	}
	return 2 * int64(l.PtrBits)
}

// NHITableBits returns the size of the shared distinct-vector table used by
// the indirect layout (0 for the inline layout).
func (l MemLayout) NHITableBits(img *Image) int64 {
	if !l.IndirectNHI {
		return 0
	}
	distinct := make(map[string]bool)
	var key []byte
	for s := range img.Stages {
		for _, e := range img.Stages[s].Entries {
			if !e.Leaf {
				continue
			}
			key = key[:0]
			for _, nh := range e.NHI {
				key = append(key, byte(nh), byte(nh>>8))
			}
			distinct[string(key)] = true
		}
	}
	return int64(len(distinct)) * int64(img.K) * int64(l.NHIBits)
}

// StageBits returns the memory size of stage s in bits. With the indirect
// layout the shared vector table is charged to the last stage, where the
// hardware resolves the final NHI.
func (l MemLayout) StageBits(img *Image, s int) int64 {
	var bits int64
	for _, e := range img.Stages[s].Entries {
		bits += l.EntryBits(e, img.K)
	}
	if s == len(img.Stages)-1 {
		bits += l.NHITableBits(img)
	}
	return bits
}

// AllStageBits returns per-stage memory sizes for the whole image, the
// M_{i,j} vector the power models consume.
func (l MemLayout) AllStageBits(img *Image) []int64 {
	out := make([]int64, len(img.Stages))
	for s := range img.Stages {
		out[s] = l.StageBits(img, s)
	}
	return out
}

// PointerAndNHIBits splits the image's memory into pointer bits (internal
// nodes) and NHI bits (leaf entries plus any shared vector table), the two
// panels of Fig. 4.
func (l MemLayout) PointerAndNHIBits(img *Image) (ptr, nhi int64) {
	for s := range img.Stages {
		for _, e := range img.Stages[s].Entries {
			if e.Leaf {
				nhi += l.EntryBits(e, img.K)
			} else {
				ptr += l.EntryBits(e, img.K)
			}
		}
	}
	nhi += l.NHITableBits(img)
	return ptr, nhi
}
