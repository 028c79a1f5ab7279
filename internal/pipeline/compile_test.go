package pipeline

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vrpower/internal/ip"
	"vrpower/internal/merge"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

// bfTrie and bfMerged compile a leaf-pushed trie the breadth-first way the
// depth-first writer replaced: the oracle every compile is held to.
func bfTrie(tr *trie.Trie, mapFor func(height int) (trie.StageMap, error)) (*Image, error) {
	if !tr.LeafPushed() {
		return nil, fmt.Errorf("pipeline: trie must be leaf-pushed before compilation")
	}
	nodes := tr.Nodes()
	return compileBreadthFirst(trie.NodeID(0), 1, mapFor, tr.Kids,
		func(slab []ip.NextHop, id trie.NodeID) []ip.NextHop { return append(slab, nodes[id].NextHop) })
}

func bfMerged(m *merge.Trie, mapFor func(height int) (trie.StageMap, error)) (*Image, error) {
	if !m.LeafPushed() {
		return nil, fmt.Errorf("pipeline: merged trie must be leaf-pushed before compilation")
	}
	return compileBreadthFirst(trie.NodeID(0), m.K(), mapFor, m.Kids,
		func(slab []ip.NextHop, id trie.NodeID) []ip.NextHop { return append(slab, m.NHI(id)...) })
}

// compileBreadthFirst lays the leaf-pushed trie under root out
// breadth-first, straight into stage words. One walk counts the internal
// nodes and leaves of every level — which gives the trie's height, for a map
// (mapFor) that depends on it, every stage's size and the image's Levels —
// and one pass, level by level, then writes the words, derived bits
// included. A node's index within its stage is assigned when it is enqueued,
// into its parent's child pair, and a level's nodes are written in the order
// they were enqueued, so each stage's words are written in index order. kids
// returns a node's children (both nil: a leaf), appendNHI appends a leaf's
// next-hop vector to the slab.
func compileBreadthFirst[N comparable](root N, k int, mapFor func(height int) (trie.StageMap, error), kids func(N) [2]N, appendNHI func([]ip.NextHop, N) []ip.NextHop) (*Image, error) {
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
	return img, nil
}

// compileCase holds a route set's tries — a plain trie and a merged one —
// each unpushed and pushed. check compares the depth-first compile of both
// forms with the breadth-first oracle's of the pushed one, whole image
// against whole image, under three maps: the plain fold at the trie's
// height, the plain fold at 32 (ctrl's pinned map) and the memory-balanced
// one.
type compileCase struct {
	stages          int
	plain, pushed   *trie.Trie
	mPlain, mPushed *merge.Trie
}

func (c compileCase) check(t *testing.T) {
	t.Helper()
	pinned, err := trie.NewStageMap(c.stages, 32)
	if err != nil {
		t.Fatal(err)
	}
	maps := func(levels []trie.Level, k int) map[string]func(int) (trie.StageMap, error) {
		bits := make([]int64, len(levels))
		for i, lv := range levels {
			bits[i] = int64(lv.Internal)*2*18 + int64(lv.Leaves)*int64(k)*12
		}
		return map[string]func(int) (trie.StageMap, error){
			"height":   func(h int) (trie.StageMap, error) { return trie.NewStageMap(c.stages, h) },
			"pinned":   func(int) (trie.StageMap, error) { return pinned, nil },
			"balanced": func(int) (trie.StageMap, error) { return trie.NewBalancedStageMap(c.stages, bits) },
		}
	}
	compare := func(what string, want func() (*Image, error), got map[string]func() (*Image, error)) {
		t.Helper()
		w, err := want()
		if err != nil {
			t.Fatalf("%s: oracle: %v", what, err)
		}
		for form, compile := range got {
			g, err := compile()
			if err != nil {
				t.Fatalf("%s/%s: %v", what, form, err)
			}
			if !g.Equal(w) {
				t.Fatalf("%s/%s: depth-first image differs from the breadth-first one", what, form)
			}
		}
	}
	for name, mapFor := range maps(c.pushed.Levels(), 1) {
		compare("trie/"+name, func() (*Image, error) { return bfTrie(c.pushed, mapFor) }, map[string]func() (*Image, error){
			"unpushed": func() (*Image, error) { return fromTrie(c.plain, mapFor) },
			"pushed":   func() (*Image, error) { return fromTrie(c.pushed, mapFor) },
		})
	}
	for name, mapFor := range maps(c.mPushed.Levels(), c.mPushed.K()) {
		compare("merged/"+name, func() (*Image, error) { return bfMerged(c.mPushed, mapFor) }, map[string]func() (*Image, error){
			"unpushed": func() (*Image, error) { return fromMerged(c.mPlain, mapFor) },
			"pushed":   func() (*Image, error) { return fromMerged(c.mPushed, mapFor) },
		})
	}
}

// newCompileCase builds the tries of a table set for compileCase.
func newCompileCase(t *testing.T, stages int, tables []*rib.Table) compileCase {
	t.Helper()
	c := compileCase{stages: stages}
	c.plain, c.pushed = trie.Build(tables[0].Routes), trie.Build(tables[0].Routes)
	c.pushed.LeafPush()
	var err error
	if c.mPlain, err = merge.Build(tables); err != nil {
		t.Fatal(err)
	}
	if c.mPushed, err = merge.Build(tables); err != nil {
		t.Fatal(err)
	}
	c.mPushed.LeafPush()
	return c
}

func TestCompileMatchesBreadthFirst(t *testing.T) {
	sizes := []int{1, 50, 400, 3725}
	for i := 0; i < 40; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		k, prefixes := 1+rng.Intn(4), sizes[i%len(sizes)]
		share, seed := rng.Float64(), 1+rng.Int63n(1000)
		stages := []int{1, 4, 8, 16, 28, 33}[rng.Intn(6)]
		t.Run(fmt.Sprintf("k=%d/n=%d/share=%.2f/seed=%d/stages=%d", k, prefixes, share, seed, stages), func(t *testing.T) {
			t.Parallel()
			set, err := rib.GenerateVirtualSet(k, prefixes, share, seed)
			if err != nil {
				t.Fatal(err)
			}
			newCompileCase(t, stages, set.Tables).check(t)
		})
	}
}

// FuzzCompileMatchesBreadthFirst holds the depth-first compile to the
// breadth-first oracle on route sets decoded from the input (decodeRouteOps):
// the trie takes every op, deletes included, and the merged trie the routes
// left in each network's table.
func FuzzCompileMatchesBreadthFirst(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1})                                  // one /0 route
	f.Add([]byte{1, 2, 32, 10, 0, 0, 1, 5, 8, 10, 0, 0, 0, 3})          // a /32 under a /8
	f.Add([]byte{3, 1, 24, 192, 168, 1, 0, 2, 24, 192, 168, 1, 0, 130}) // added, then deleted
	f.Fuzz(func(t *testing.T, data []byte) {
		k, stages, ops := decodeRouteOps(data)
		c := compileCase{stages: stages, plain: &trie.Trie{}, pushed: &trie.Trie{}}
		c.plain.Rebuild(nil)
		c.pushed.Rebuild(nil)
		tables := make([]*rib.Table, k)
		for vn := range tables {
			tables[vn] = &rib.Table{}
		}
		for _, op := range ops {
			tbl := tables[op.vn]
			tbl.Routes = slices.DeleteFunc(tbl.Routes, func(r ip.Route) bool { return r.Prefix == op.r.Prefix })
			if op.del {
				c.plain.Delete(op.r.Prefix)
				c.pushed.Delete(op.r.Prefix)
				continue
			}
			c.plain.Insert(op.r.Prefix, op.r.NextHop)
			c.pushed.Insert(op.r.Prefix, op.r.NextHop)
			tbl.Routes = append(tbl.Routes, op.r)
		}
		c.pushed.LeafPush()
		var err error
		if c.mPlain, err = merge.Build(tables); err != nil {
			t.Fatal(err)
		}
		if c.mPushed, err = merge.Build(tables); err != nil {
			t.Fatal(err)
		}
		c.mPushed.LeafPush()
		c.check(t)
	})
}

// routeOp is one decoded route insert or delete for network vn.
type routeOp struct {
	vn  int
	del bool
	r   ip.Route
}

// decodeRouteOps reads a route set from fuzz input: the first byte picks K
// (1–4) and the stage count, then every six bytes are one op — prefix length
// (mod 33), network (the rest of that byte, mod K), a 4-byte address and a
// next hop byte whose top bit makes the op a delete.
func decodeRouteOps(data []byte) (k, stages int, ops []routeOp) {
	k, stages = 1, 8
	if len(data) > 0 {
		k, stages = 1+int(data[0]%4), []int{1, 4, 8, 16, 28, 33}[int(data[0]/4)%6]
		data = data[1:]
	}
	for ; len(data) >= 6; data = data[6:] {
		l := int(data[0] % 33)
		addr := ip.Addr(binary.BigEndian.Uint32(data[1:5])) & ip.Mask(l)
		ops = append(ops, routeOp{
			vn:  int(data[0]/33) % k,
			del: data[5]&0x80 != 0,
			r:   ip.Route{Prefix: ip.MustPrefix(addr, l), NextHop: ip.NextHop(1 + data[5]&0x7f)},
		})
	}
	return k, stages, ops
}

// TestCompileUnpushedEqualsPushed holds the compile of a never-pushed trie to
// the compile of the same trie after LeafPush, byte for byte, on the plain
// and the merged trie.
func TestCompileUnpushedEqualsPushed(t *testing.T) {
	t.Run("trie", func(t *testing.T) {
		tr := trie.Build(genTable(t, 500, 1).Routes)
		unpushed, err := Compile(tr, 28)
		if err != nil {
			t.Fatal(err)
		}
		tr.LeafPush()
		pushed, err := Compile(tr, 28)
		if err != nil {
			t.Fatal(err)
		}
		if !unpushed.Equal(pushed) {
			t.Error("the unpushed trie's image differs from the pushed trie's")
		}
	})
	t.Run("merged", func(t *testing.T) {
		set, err := rib.GenerateVirtualSet(3, 500, 0.5, 12)
		if err != nil {
			t.Fatal(err)
		}
		m, err := merge.Build(set.Tables)
		if err != nil {
			t.Fatal(err)
		}
		unpushed, err := CompileMerged(m, 28)
		if err != nil {
			t.Fatal(err)
		}
		m.LeafPush()
		pushed, err := CompileMerged(m, 28)
		if err != nil {
			t.Fatal(err)
		}
		if !unpushed.Equal(pushed) {
			t.Error("the unpushed merged trie's image differs from the pushed one's")
		}
	})
}

// TestCompileZeroTrieIsAnError: a zero trie.Trie or merge.Trie has no root;
// compiling one is an error, not a panic.
func TestCompileZeroTrieIsAnError(t *testing.T) {
	sm, err := trie.NewStageMap(8, 32)
	if err != nil {
		t.Fatal(err)
	}
	for name, compile := range map[string]func() (*Image, error){
		"Compile":             func() (*Image, error) { return Compile(&trie.Trie{}, 8) },
		"CompileMapped":       func() (*Image, error) { return CompileMapped(&trie.Trie{}, sm) },
		"CompileMerged":       func() (*Image, error) { return CompileMerged(&merge.Trie{}, 8) },
		"CompileMergedMapped": func() (*Image, error) { return CompileMergedMapped(&merge.Trie{}, sm) },
	} {
		if img, err := compile(); err == nil || img != nil {
			t.Errorf("%s of a zero trie = %v, %v; want an error", name, img, err)
		}
	}
}

// TestCompileIgnoresInsertOrder: tries and merged tries resume each insert
// where the last one left off, so the order of a table's routes changes how
// they are built. The images compiled from sorted, shuffled and reversed
// copies of the routes must be byte-identical.
func TestCompileIgnoresInsertOrder(t *testing.T) {
	set, err := rib.GenerateVirtualSet(3, 800, 0.5, 45)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(45))
	orders := map[string]func([]ip.Route){
		"shuffled": func(r []ip.Route) { rng.Shuffle(len(r), func(i, j int) { r[i], r[j] = r[j], r[i] }) },
		"reversed": slices.Reverse[[]ip.Route],
	}
	compile := func(tables []*rib.Table) (*Image, *Image) {
		single, err := Compile(trie.Build(tables[0].Routes), 28)
		if err != nil {
			t.Fatal(err)
		}
		m, err := merge.Build(tables)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := CompileMerged(m, 28)
		if err != nil {
			t.Fatal(err)
		}
		return single, merged
	}
	wantSingle, wantMerged := compile(set.Tables)
	for name, reorder := range orders {
		tables := make([]*rib.Table, len(set.Tables))
		for i, tbl := range set.Tables {
			tables[i] = &rib.Table{Name: tbl.Name, Routes: slices.Clone(tbl.Routes)}
			reorder(tables[i].Routes)
		}
		single, merged := compile(tables)
		if !single.Equal(wantSingle) {
			t.Errorf("%s: the trie's image differs from the sorted table's", name)
		}
		if !merged.Equal(wantMerged) {
			t.Errorf("%s: the merged trie's image differs from the sorted set's", name)
		}
	}
}
