package pipeline

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"vrpower/internal/ip"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

// Routes is a compile's input: K tables (a network's own, or the K of a
// merged engine) in prefix order, and Levels, the per-level counts of the
// leaf-pushed trie over their union, which an image of them is priced from
// and laid out by. The tables must not change until it has compiled.
type Routes struct {
	tables []*rib.Table
	Levels []trie.Level
}

// NewRoutes readies tables for a compile. A table out of prefix order,
// holding a prefix twice or a length outside [0,32] is sorted on a copy that
// keeps a prefix's last route, as an insert does, and no bad length, as the
// reference LPM does. A count pass over the union then gives Levels as
// trie.Trie.Insert counts them: a prefix gives each node on its path below
// the level it shares with the last prefix its first child, and the shared
// node too when the last prefix ended there. Zero tables do not compile.
func NewRoutes(tables []*rib.Table) Routes {
	if len(tables) == 0 {
		return Routes{}
	}
	r := Routes{tables: tables}
	for vn, tbl := range tables {
		if sorted := inOrder(tbl.Routes); sorted != nil {
			if &r.tables[0] == &tables[0] {
				r.tables = slices.Clone(tables)
			}
			r.tables[vn] = &rib.Table{Name: tbl.Name, Routes: sorted}
		}
	}
	var internal [maxLevels - 1]int
	atBuf, keyBuf := [64]int{}, [64]uint64{}
	for u := rib.NewUnion(r.tables, atBuf[:0], keyBuf[:0]); u.Next(); {
		l := u.Shared
		if l < u.Last.Len {
			l++ // it has a child already, on the last prefix's path
		}
		for ; l < u.Q.Len; l++ {
			internal[l]++
		}
	}
	r.Levels = trie.PushedLevels(internal[:])
	return r
}

// inOrder returns nil when routes are in prefix order with no prefix twice
// and every length in [0,32], else the copy that is.
func inOrder(routes []ip.Route) []ip.Route {
	bad := func(r ip.Route) bool { return r.Prefix.Len < 0 || r.Prefix.Len > 32 }
	for i, r := range routes {
		if bad(r) || i > 0 && rib.Key(routes[i-1].Prefix) >= rib.Key(r.Prefix) {
			out := slices.DeleteFunc(slices.Clone(routes), bad)
			slices.Reverse(out) // sorted stably, a prefix's last route comes first
			slices.SortStableFunc(out, func(a, b ip.Route) int { return cmp.Compare(rib.Key(a.Prefix), rib.Key(b.Prefix)) })
			return slices.CompactFunc(out, func(a, b ip.Route) bool { return a.Prefix == b.Prefix })
		}
	}
	return nil
}

// Compile is the compile of tables under the plain fold onto stages stages.
func Compile(tables []*rib.Table, stages int) (*Image, error) {
	r := NewRoutes(tables)
	sm, err := trie.NewStageMap(stages, len(r.Levels)-1)
	if err != nil {
		return nil, err
	}
	return r.Compile(sm)
}

// maxLevels bounds a trie over 32-bit addresses: the root and one level a bit.
const maxLevels = 33

// Compile writes the leaf-pushed trie over r's routes into stage words
// under sm in one pass over their union in prefix order, the trie's
// preorder, building no trie. The counts size every stage once and place
// each level: its nodes from off[l] in their stage, its leaves' vectors from
// slab[l]. Preorder meets a level's nodes in the breadth-first order of the
// image, so a node's children are reserved as the next two of the level
// below when it gains its first, and a missing child is the leaf pushing
// would make, carrying the vector the node hands down. Parity, fold bits,
// visits and the stages' data bits (from the counts) are written with the
// words; only the jump table is derived after.
func (r Routes) Compile(sm trie.StageMap) (*Image, error) {
	if r.Levels == nil {
		return nil, fmt.Errorf("pipeline: compile of zero tables")
	}
	k := len(r.tables)
	w := writer{k: k, vecs: make([]ip.NextHop, maxLevels*k)}
	lens, leaves := make([]int, sm.Stages), 0
	for level, lv := range r.Levels {
		s := sm.Stage(level)
		w.off[level], w.slab[level] = uint32(lens[s]), uint32(leaves*k)
		lens[s] += lv.Nodes
		leaves += lv.Leaves
	}
	w.img = newImage(k, sm, lens, leaves*k)
	w.img.nhi = w.img.nhi[:leaves*k]
	w.img.Levels = r.Levels
	for level, lv := range r.Levels {
		s := sm.Stage(level)
		w.stage[level] = &w.img.stages[s]
		if level > 0 && sm.Stage(level-1) == s {
			w.stage[level].visits++ // one more level of the stage's run
		}
		w.stage[level].bits += int64(lv.Internal*2*ptrBits + lv.Leaves*k*nhiBits)
		w.meta[level] = uint16(31 - level)
		if sm.Stage(level+1) == s {
			w.meta[level] |= metaFold
		}
	}
	w.sweep(r.tables)
	for level, lv := range r.Levels {
		if w.placed[level] != uint32(lv.Nodes) || w.leaves[level] != uint32(lv.Leaves) {
			return nil, fmt.Errorf("pipeline: level %d holds %d nodes and %d leaves, its counts say %d and %d", level, w.placed[level], w.leaves[level], lv.Nodes, lv.Leaves)
		}
	}
	w.img.deriveJump()
	obsImagesCompiled.Inc()
	return w.img, nil
}

// writer is one compile's pass. Per level: where its nodes start in their
// stage (off) and its vectors in the slab (slab), its nodes placed (written
// or reserved) and leaves written, its stage and internal meta word; and of
// the path's node there, its entry (at), its children (kids, a bit each),
// the first of its reserved pair (first), and the level whose scratch vector
// (vecs, K next hops a level) it hands down (from), that vector's XOR kept
// (xor) for leaf parity.
type writer struct {
	img  *Image
	k    int
	vecs []ip.NextHop

	off, slab, placed, leaves [maxLevels]uint32
	stage                     [maxLevels]*stage
	meta                      [maxLevels]uint16

	at, first, xor [maxLevels]uint32
	kids, from     [maxLevels]uint8
}

// sweep writes the trie a prefix of the union at a time: it leaves the
// path's nodes below the level the prefix shares with the last, descends to
// it and overlays its routes on the vector it inherits.
func (w *writer) sweep(tables []*rib.Table) {
	atBuf, keyBuf := [64]int{}, [64]uint64{}
	w.placed[0], w.at[0] = 1, w.off[0]
	u := rib.NewUnion(tables, atBuf[:0], keyBuf[:0])
	for u.Next() {
		for l := u.Last.Len; l > u.Shared; l-- {
			w.leave(l)
		}
		for l := u.Shared; l < u.Q.Len; l++ {
			w.descend(l, u.Q.Bit(l))
		}
		vec, x := w.vec(u.Q.Len), uint32(0)
		copy(vec, w.vec(int(w.from[u.Q.Len])))
		for vn := range vec {
			if nh, ok := u.NextHop(vn); ok {
				vec[vn] = nh
			}
			x ^= uint32(vec[vn])
		}
		w.from[u.Q.Len], w.xor[u.Q.Len] = uint8(u.Q.Len), x
	}
	for l := u.Q.Len; l >= 0; l-- {
		w.leave(l)
	}
}

// vec is level l's scratch vector.
func (w *writer) vec(l int) []ip.NextHop { return w.vecs[l*w.k : (l+1)*w.k] }

// descend moves the path from its node of level l to child b, writing the
// node's internal word when this is its first child and the leaf of a missing
// child 0 when b is 1.
func (w *writer) descend(l, b int) {
	if w.kids[l] == 0 {
		c := [2]uint32{w.off[l+1] + w.placed[l+1], 0}
		c[1] = c[0] + 1
		w.placed[l+1] += 2
		m, st := w.meta[l], w.stage[l]
		st.meta[w.at[l]], st.child[w.at[l]] = m|w.img.dataParity(m, c)<<9, c
		w.first[l] = c[0]
	}
	if b == 1 && w.kids[l]&1 == 0 {
		w.leaf(l+1, w.first[l], w.from[l])
	}
	w.kids[l] |= 1 << b
	w.at[l+1], w.kids[l+1], w.from[l+1] = w.first[l]+uint32(b), 0, w.from[l]
}

// leave takes the path's node of level l off it: one with no children is a
// leaf, one with no child 1 gets that leaf.
func (w *writer) leave(l int) {
	switch w.kids[l] {
	case 0:
		w.leaf(l, w.at[l], w.from[l])
	case 1:
		w.leaf(l+1, w.first[l]+1, w.from[l])
	}
}

// leaf writes a leaf carrying level from's vector as entry i of level l's
// stage, its vector the next of the level's in the slab.
func (w *writer) leaf(l int, i uint32, from uint8) {
	off := w.slab[l] + w.leaves[l]*uint32(w.k)
	w.leaves[l]++
	copy(w.img.nhi[off:off+uint32(w.k)], w.vec(int(from)))
	m, c, st := metaLeaf|uint16(l), [2]uint32{off, uint32(w.k)}, w.stage[l]
	st.meta[i], st.child[i] = m|uint16(bits.OnesCount32(1^w.xor[from])&1)<<9, c
}
