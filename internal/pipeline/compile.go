package pipeline

import (
	"fmt"

	"vrpower/internal/ip"
	"vrpower/internal/merge"
	"vrpower/internal/trie"
)

// Compile maps a single-network trie onto stages pipeline stages with the
// plain fold-into-stage-0 level mapping. The image is the trie's leaf-pushed
// form, pushed or not: every lookup terminates at a leaf, which is what lets
// the hardware resolve the NHI in the last touched stage.
func Compile(tr *trie.Trie, stages int) (*Image, error) {
	return fromTrie(tr, func(height int) (trie.StageMap, error) { return trie.NewStageMap(stages, height) })
}

// CompileMapped is Compile with an explicit level→stage mapping, e.g. a
// memory-balanced one from trie.NewBalancedStageMap.
func CompileMapped(tr *trie.Trie, sm trie.StageMap) (*Image, error) {
	return fromTrie(tr, func(int) (trie.StageMap, error) { return sm, nil })
}

func fromTrie(tr *trie.Trie, mapFor func(height int) (trie.StageMap, error)) (*Image, error) {
	return compile(tr, 1, tr.Levels(), mapFor)
}

// CompileMerged maps a merged trie onto stages pipeline stages with the plain
// level mapping; like Compile, the image is its leaf-pushed form.
func CompileMerged(m *merge.Trie, stages int) (*Image, error) {
	return fromMerged(m, func(height int) (trie.StageMap, error) { return trie.NewStageMap(stages, height) })
}

// CompileMergedMapped is CompileMerged with an explicit level→stage mapping.
func CompileMergedMapped(m *merge.Trie, sm trie.StageMap) (*Image, error) {
	return fromMerged(m, func(int) (trie.StageMap, error) { return sm, nil })
}

func fromMerged(m *merge.Trie, mapFor func(height int) (trie.StageMap, error)) (*Image, error) {
	return compile(m, m.K(), m.Levels(), mapFor)
}

// walkable is a trie as the compile walks it, by node id from the root, node
// 0: Kids returns a node's children (0 for none, both none: a leaf); Inherit
// returns the k-wide next-hop vector a node hands its subtree, given the one
// it inherits and a scratch vector to write it in.
type walkable interface {
	Kids(id trie.NodeID) [2]trie.NodeID
	Inherit(id trie.NodeID, in, scratch []ip.NextHop) []ip.NextHop
}

// maxLevels bounds a trie over 32-bit addresses: the root and one level a bit.
const maxLevels = 33

// compile writes the leaf-pushed form of trie src — levels, its per-level
// counts, from the trie's Levels — straight into stage words in one
// depth-first pass. The counts give the trie's height, for a map (mapFor)
// that depends on it, every stage's size, so each slice is made once, and
// where each level starts: level l's nodes follow its stage's earlier
// levels' from off[l], its leaves' vectors follow the earlier levels' in the
// slab from slab[l]. A preorder walk meets each level's nodes in the
// breadth-first order the image lays them out in, so a node is written at
// its level's offset plus the nodes of the level already placed, its
// children reserved as the next two of the level below. A node with one
// child gets, for the missing one, the leaf pushing would make: a leaf
// carrying the vector the node hands down. Derived bits are written with
// the words — compiled parity is good, the writer knows which stage the
// children go to, and the levels a stage holds are its visits — and only the
// jump table is left to derive.
func compile(src walkable, k int, levels []trie.Level, mapFor func(height int) (trie.StageMap, error)) (*Image, error) {
	if levels == nil {
		return nil, fmt.Errorf("pipeline: compile of a trie with no root (a zero value, not built)")
	}
	height := len(levels) - 1
	sm, err := mapFor(height)
	if err != nil {
		return nil, err
	}
	w := writer{k: k, src: src, vecs: make([]ip.NextHop, (maxLevels+1)*k)}
	lens, leaves := make([]int, sm.Stages), 0
	for level, lv := range levels {
		s := sm.Stage(level)
		w.off[level], w.slab[level] = uint32(lens[s]), uint32(leaves*k)
		lens[s] += lv.Nodes
		leaves += lv.Leaves
	}
	w.img = newImage(k, sm, lens, leaves*k)
	w.img.nhi = w.img.nhi[:leaves*k]
	w.img.Levels = levels
	for level := range levels {
		s := sm.Stage(level)
		w.stage[level] = &w.img.stages[s]
		if level > 0 && sm.Stage(level-1) == s {
			w.stage[level].visits++ // one more level of the stage's run
		}
		w.meta[level] = uint16(31 - level)
		if sm.Stage(level+1) == s {
			w.meta[level] |= metaFold
		}
	}
	w.placed[0] = 1
	w.node(0, 0, w.off[0], w.vecs[:k])
	for level, lv := range levels {
		if w.placed[level] != uint32(lv.Nodes) || w.leaves[level] != uint32(lv.Leaves) {
			return nil, fmt.Errorf("pipeline: level %d holds %d nodes and %d leaves, its counts say %d and %d", level, w.placed[level], w.leaves[level], lv.Nodes, lv.Leaves)
		}
	}
	w.img.deriveJump()
	obsImagesCompiled.Inc()
	return w.img, nil
}

// writer is one compile's depth-first pass: per level, where its nodes start
// in their stage (off) and its leaf vectors in the slab (slab), how many of
// its nodes are placed (placed: written or reserved by their parent) and
// leaves written (leaves), its stage and its internal nodes' meta word; and
// one scratch vector per level for the vector a node hands down.
type writer struct {
	img  *Image
	k    int
	src  walkable
	vecs []ip.NextHop

	off, slab, placed, leaves [maxLevels]uint32
	stage                     [maxLevels]*stage
	meta                      [maxLevels]uint16
}

// node writes node id, which inherits in, as entry i of its level's stage,
// then its subtree.
func (w *writer) node(id trie.NodeID, level int, i uint32, in []ip.NextHop) {
	vec := w.src.Inherit(id, in, w.vecs[(level+1)*w.k:(level+2)*w.k])
	ch := w.src.Kids(id)
	if ch == [2]trie.NodeID{} {
		w.leaf(level, i, vec)
		return
	}
	c := [2]uint32{w.off[level+1] + w.placed[level+1], 0}
	c[1] = c[0] + 1
	w.placed[level+1] += 2
	m, st := w.meta[level], w.stage[level]
	st.meta[i], st.child[i] = m|w.img.dataParity(m, c)<<9, c
	for b, child := range ch {
		if child == 0 {
			w.leaf(level+1, c[b], vec)
		} else {
			w.node(child, level+1, c[b], vec)
		}
	}
}

// leaf writes a leaf carrying vec as entry i of its level's stage, its
// vector the next of the level's in the slab.
func (w *writer) leaf(level int, i uint32, vec []ip.NextHop) {
	off := w.slab[level] + w.leaves[level]*uint32(w.k)
	w.leaves[level]++
	copy(w.img.nhi[off:off+uint32(w.k)], vec)
	m, c, st := metaLeaf|uint16(level), [2]uint32{off, uint32(w.k)}, w.stage[level]
	st.meta[i], st.child[i] = m|w.img.dataParity(m, c)<<9, c
}
