package pipeline

import (
	"fmt"
	"slices"

	"vrpower/internal/ip"
	"vrpower/internal/merge"
	"vrpower/internal/trie"
)

// Compile maps a leaf-pushed single-network trie onto stages pipeline
// stages with the plain fold-into-stage-0 level mapping. Leaf pushing is
// required: only then does every lookup terminate at a leaf, which is what
// lets the hardware resolve the NHI in the last touched stage.
func Compile(tr *trie.Trie, stages int) (*Image, error) {
	return fromTrie(tr, func(height int) (trie.StageMap, error) { return trie.NewStageMap(stages, height) })
}

// CompileMapped is Compile with an explicit level→stage mapping, e.g. a
// memory-balanced one from trie.NewBalancedStageMap.
func CompileMapped(tr *trie.Trie, sm trie.StageMap) (*Image, error) {
	return fromTrie(tr, func(int) (trie.StageMap, error) { return sm, nil })
}

func fromTrie(tr *trie.Trie, mapFor func(height int) (trie.StageMap, error)) (*Image, error) {
	if !tr.LeafPushed() {
		return nil, fmt.Errorf("pipeline: trie must be leaf-pushed before compilation")
	}
	return compile(tr.Root(), 1, mapFor,
		func(n *trie.Node) [2]*trie.Node { return n.Child },
		func(slab []ip.NextHop, n *trie.Node) []ip.NextHop { return append(slab, n.NextHop) })
}

// CompileMerged maps a leaf-pushed merged trie onto stages pipeline stages
// with the plain level mapping.
func CompileMerged(m *merge.Trie, stages int) (*Image, error) {
	return fromMerged(m, func(height int) (trie.StageMap, error) { return trie.NewStageMap(stages, height) })
}

// CompileMergedMapped is CompileMerged with an explicit level→stage mapping.
func CompileMergedMapped(m *merge.Trie, sm trie.StageMap) (*Image, error) {
	return fromMerged(m, func(int) (trie.StageMap, error) { return sm, nil })
}

func fromMerged(m *merge.Trie, mapFor func(height int) (trie.StageMap, error)) (*Image, error) {
	if !m.LeafPushed() {
		return nil, fmt.Errorf("pipeline: merged trie must be leaf-pushed before compilation")
	}
	return compile(m.Root(), m.K(), mapFor,
		func(n *merge.Node) [2]*merge.Node { return n.Child },
		func(slab []ip.NextHop, n *merge.Node) []ip.NextHop { return append(slab, n.NHI...) })
}

// maxLevels bounds a trie over 32-bit addresses: the root and one level a bit.
const maxLevels = 33

// compile lays the trie under root out breadth-first, straight into stage
// words. One walk counts the internal nodes and leaves of every level — which
// gives the trie's height, for a map (mapFor) that depends on it, every
// stage's size, so each slice is made once, and the image's Levels — and one
// pass, level by level, then writes the words, derived bits included:
// compiled parity is good, the pass knows which stage the children go to, and
// the levels a stage holds are its visits; only the jump table is left to
// derive. A node's index within its stage is
// assigned when it is enqueued, into its parent's child pair, and a level's
// nodes are written in the order they were enqueued, so each stage's words
// are written in index order. kids returns a node's children (both nil: a
// leaf), appendNHI appends a leaf's next-hop vector to the slab.
func compile[N comparable](root N, k int, mapFor func(height int) (trie.StageMap, error), kids func(N) [2]N, appendNHI func([]ip.NextHop, N) []ip.NextHop) (*Image, error) {
	var none N
	var perLevel [maxLevels]trie.Level
	var count func(n N, level int) error
	count = func(n N, level int) error {
		lv := &perLevel[level]
		lv.Nodes++
		c := kids(n)
		if c[0] == none && c[1] == none {
			lv.Leaves++
			return nil
		}
		if c[0] == none || c[1] == none {
			return fmt.Errorf("pipeline: internal node with missing child at level %d (trie not fully leaf-pushed?)", level)
		}
		lv.Internal++
		if err := count(c[0], level+1); err != nil {
			return err
		}
		return count(c[1], level+1)
	}
	if err := count(root, 0); err != nil {
		return nil, err
	}
	height := maxLevels - 1
	for perLevel[height].Nodes == 0 {
		height--
	}
	sm, err := mapFor(height)
	if err != nil {
		return nil, err
	}
	lens, widest, leaves := make([]int, sm.Stages), 0, 0
	for level, lv := range perLevel[:height+1] {
		lens[sm.Stage(level)] += lv.Nodes
		widest, leaves = max(widest, lv.Nodes), leaves+lv.Leaves
	}

	img := newImage(k, sm, lens, leaves*k)
	img.Levels = slices.Clone(perLevel[:height+1])
	cur, below := make([]N, 1, widest), make([]N, 0, widest) // the level being written, the one under it
	cur[0] = root
	next := make([]uint32, sm.Stages) // per stage: the index the next node enqueued into it gets
	next[sm.Stage(0)] = 1
	for level := 0; len(cur) > 0; level++ {
		// The level's words follow its stage's earlier levels'; they are as
		// many as were enqueued, so they end where the stage's indices do now.
		s, sBelow := sm.Stage(level), sm.Stage(level+1)
		st, i := &img.stages[s], int(next[s])-len(cur)
		if level > 0 && sm.Stage(level-1) == s {
			st.visits++ // one more level of the stage's run
		}
		internal := uint16(31 - level)
		if sBelow == s {
			internal |= metaFold
		}
		for _, n := range cur {
			var m uint16
			var c [2]uint32
			if ch := kids(n); ch[0] == none {
				off := len(img.nhi)
				img.nhi = appendNHI(img.nhi, n)
				m, c = metaLeaf|uint16(level), [2]uint32{uint32(off), uint32(len(img.nhi) - off)}
			} else {
				m, c = internal, [2]uint32{next[sBelow], next[sBelow] + 1}
				next[sBelow] += 2
				below = append(below, ch[0], ch[1])
			}
			st.meta[i], st.child[i] = m|img.dataParity(m, c)<<9, c
			i++
		}
		cur, below = below, cur[:0]
	}
	img.deriveJump()
	obsImagesCompiled.Inc()
	return img, nil
}
