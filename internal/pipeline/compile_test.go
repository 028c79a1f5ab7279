package pipeline

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

	"vrpower/internal/ip"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

// unionTrie is the leaf-pushed trie over the union of K tables' prefixes —
// the shape of their image — built by inserting every route, with each
// table's reference LPM, which gives a leaf's K-wide vector: every address
// under a leaf has the same longest match in each table. bf compiles it the
// breadth-first way the route compile replaced: the oracle every compile is
// held to.
type unionTrie struct {
	tr   *trie.Trie
	refs []*ip.Table
}

func newUnionTrie(tables []*rib.Table) unionTrie {
	u := unionTrie{tr: &trie.Trie{}}
	u.tr.Rebuild(nil)
	for _, tbl := range tables {
		for _, r := range tbl.Routes {
			u.tr.Insert(r.Prefix, r.NextHop)
		}
		u.refs = append(u.refs, tbl.Reference())
	}
	u.tr.LeafPush()
	return u
}

// unionNode is a node of a unionTrie and the address its path spells.
type unionNode struct {
	id    trie.NodeID
	addr  ip.Addr
	level int
}

func (u unionTrie) kids(n unionNode) [2]unionNode {
	c := u.tr.Nodes()[n.id].Child
	if c == [2]trie.NodeID{} {
		return [2]unionNode{}
	}
	return [2]unionNode{{c[0], n.addr, n.level + 1}, {c[1], n.addr | 1<<(31-n.level), n.level + 1}}
}

func (u unionTrie) appendNHI(slab []ip.NextHop, n unionNode) []ip.NextHop {
	for _, ref := range u.refs {
		slab = append(slab, ref.Lookup(n.addr))
	}
	return slab
}

func (u unionTrie) bf(mapFor func(height int) (trie.StageMap, error)) (*Image, error) {
	return compileBreadthFirst(unionNode{}, len(u.refs), mapFor, u.kids, u.appendNHI)
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
	for s := range img.stages {
		img.stages[s].bits = img.stages[s].sumBits()
	}
	img.deriveJump()
	return img, nil
}

// compileCase holds the route compile of a table set to the breadth-first
// oracle's image of it, whole image against whole image, under three maps:
// the plain fold at the trie's height, the plain fold at 32 (ctrl's pinned
// map) and the memory-balanced one.
type compileCase struct {
	stages int
	tables []*rib.Table
}

func (c compileCase) check(t *testing.T) {
	t.Helper()
	pinned, err := trie.NewStageMap(c.stages, 32)
	if err != nil {
		t.Fatal(err)
	}
	u := newUnionTrie(c.tables)
	levels := u.tr.Levels()
	bits := make([]int64, len(levels))
	for i, lv := range levels {
		bits[i] = int64(lv.Internal)*2*18 + int64(lv.Leaves)*int64(len(c.tables))*12
	}
	for name, mapFor := range map[string]func(int) (trie.StageMap, error){
		"height":   func(h int) (trie.StageMap, error) { return trie.NewStageMap(c.stages, h) },
		"pinned":   func(int) (trie.StageMap, error) { return pinned, nil },
		"balanced": func(int) (trie.StageMap, error) { return trie.NewBalancedStageMap(c.stages, bits) },
	} {
		want, err := u.bf(mapFor)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		r := NewRoutes(c.tables)
		sm, err := mapFor(len(r.Levels) - 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := r.Compile(sm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: the route compile's image differs from the breadth-first one", name)
		}
	}
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
			compileCase{stages, set.Tables}.check(t)
			compileCase{stages, set.Tables[:1]}.check(t)
		})
	}
}

// FuzzCompileMatchesBreadthFirst holds the route compile to the breadth-first
// oracle on table sets decoded from the input (decodeRoutes): routes in any
// order, a prefix perhaps twice in a table, up to five tables.
func FuzzCompileMatchesBreadthFirst(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1})                                     // one /0 route
	f.Add([]byte{0, 32, 10, 0, 0, 1, 5, 8, 10, 0, 0, 0, 3})                // a /32 before its /8
	f.Add([]byte{0, 24, 192, 168, 1, 0, 2, 24, 192, 168, 1, 0, 13})        // one prefix twice
	f.Add([]byte{1, 41, 10, 0, 0, 0, 4, 16, 10, 1, 0, 0, 6})               // two tables
	f.Add([]byte{4, 16, 10, 1, 0, 0, 7, 8, 10, 0, 0, 0, 3, 0, 0, 0, 0, 0}) // five tables
	// Prefixes shorter than a part's /4 above routes of one part, a /4 among them.
	f.Add([]byte{21, 0, 0, 0, 0, 0, 1, 1, 128, 0, 0, 0, 2, 2, 64, 0, 0, 0, 3, 3, 32, 0, 0, 0, 4, 4, 48, 0, 0, 0, 5, 53, 48, 16, 0, 0, 6})
	f.Add([]byte{1, 12, 32, 1, 0, 0, 7, 57, 144, 2, 3, 0, 8, 9, 144, 0, 0, 0, 9})                     // two tables, parts 2 and 9 only
	f.Add([]byte{22, 4, 16, 0, 0, 0, 1, 4, 240, 0, 0, 0, 2, 32, 240, 1, 2, 3, 3, 3, 224, 0, 0, 0, 4}) // /4s, a /32 and a /3 above them
	f.Fuzz(func(t *testing.T, data []byte) {
		stages, tables := decodeRoutes(data)
		compileCase{stages, tables}.check(t)
	})
}

// decodeRoutes reads a table set from fuzz input: the first byte picks K
// (1–5) and the stage count, then every six bytes are one route, appended to
// its table in input order — prefix length (mod 33), table (the rest of that
// byte, mod K), a 4-byte address and a next hop byte.
func decodeRoutes(data []byte) (stages int, tables []*rib.Table) {
	k := 1
	stages = 8
	if len(data) > 0 {
		k, stages = 1+int(data[0]%5), []int{1, 4, 8, 16, 28, 33}[int(data[0]/5)%6]
		data = data[1:]
	}
	tables = make([]*rib.Table, k)
	for vn := range tables {
		tables[vn] = &rib.Table{}
	}
	for ; len(data) >= 6; data = data[6:] {
		l := int(data[0] % 33)
		addr := ip.Addr(binary.BigEndian.Uint32(data[1:5])) & ip.Mask(l)
		tbl := tables[int(data[0]/33)%k]
		tbl.Routes = append(tbl.Routes, ip.Route{Prefix: ip.MustPrefix(addr, l), NextHop: ip.NextHop(1 + data[5])})
	}
	return stages, tables
}

// TestCompileOfZeroTablesIsAnError: zero tables have no trie, not even a
// root; compiling them is an error, not a panic.
func TestCompileOfZeroTablesIsAnError(t *testing.T) {
	sm, err := trie.NewStageMap(8, 32)
	if err != nil {
		t.Fatal(err)
	}
	for name, compile := range map[string]func() (*Image, error){
		"Compile":           func() (*Image, error) { return Compile(nil, 8) },
		"Routes.Compile":    func() (*Image, error) { return NewRoutes(nil).Compile(sm) },
		"zero Routes":       func() (*Image, error) { return Routes{}.Compile(sm) },
		"empty table slice": func() (*Image, error) { return NewRoutes([]*rib.Table{}).Compile(sm) },
	} {
		if img, err := compile(); err == nil || img != nil {
			t.Errorf("%s of zero tables = %v, %v; want an error", name, img, err)
		}
	}
}

// TestCompileIgnoresRouteOrder: a table out of prefix order is sorted on a
// copy before the sweep, so the images compiled from shuffled and reversed
// copies of the routes — one table and the merged set — must be
// byte-identical to the sorted tables' and the tables left as they were.
func TestCompileIgnoresRouteOrder(t *testing.T) {
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
		single, err := Compile(tables[:1], 28)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := Compile(tables, 28)
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
		kept := slices.Clone(tables[0].Routes)
		single, merged := compile(tables)
		if !single.Equal(wantSingle) {
			t.Errorf("%s: the table's image differs from the sorted table's", name)
		}
		if !merged.Equal(wantMerged) {
			t.Errorf("%s: the merged image differs from the sorted set's", name)
		}
		if !slices.Equal(tables[0].Routes, kept) {
			t.Errorf("%s: the compile reordered its input", name)
		}
	}
}

// TestCompileAllocatesOnlyItsImage: a compile's count and write passes
// allocate nothing but the image — its meta, child, NHI and jump arrays, its
// stage headers and per-level counts — so the bytes a compile allocates are
// the image's plus a constant, and its allocations do not grow with the
// table: at 3 725, 15 000 and 60 000 routes, and for the merged image of
// eight 3 725-route tables.
func TestCompileAllocatesOnlyItsImage(t *testing.T) {
	sets := map[string][]*rib.Table{}
	for _, n := range []int{3725, 15000, 60000} {
		sets[fmt.Sprint(n)] = []*rib.Table{genTable(t, n, int64(n))}
	}
	set, err := rib.GenerateVirtualSet(8, 3725, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	sets["K=8"] = set.Tables
	// The allocator rounds each large array up to whole 8 KiB pages.
	const slack = 8 * 8 << 10
	// The collector is off while compiles are counted: what the runtime
	// does after each cycle allocates too (a 60 000-route compile can start
	// a cycle), and would read as the compile's.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := map[string]uint64{}
	for name, tables := range sets {
		var img *Image
		compile := func() {
			if img, err = Compile(tables, 28); err != nil {
				t.Fatal(err)
			}
		}
		compile()
		// The least of five compiles: what else the runtime allocates
		// meanwhile only adds.
		bytes := uint64(math.MaxUint64)
		allocs[name] = math.MaxUint64
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			compile()
			runtime.ReadMemStats(&after)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
			allocs[name] = min(allocs[name], after.Mallocs-before.Mallocs)
		}
		own := uint64(unsafe.Sizeof(*img)) + uint64(len(img.stages))*uint64(unsafe.Sizeof(stage{})) +
			uint64(len(img.Levels))*uint64(unsafe.Sizeof(trie.Level{})) + 10*uint64(img.Words()) +
			2*uint64(cap(img.nhi)) + 4*uint64(cap(img.jump))
		t.Logf("%s: %d B a compile, the image's arrays %d B; %d allocations", name, bytes, own, allocs[name])
		if bytes > own+slack {
			t.Errorf("%s: a compile allocates %d B, %d B past its image's %d B", name, bytes, bytes-own, own)
		}
	}
	for name, n := range allocs {
		if n != allocs["3725"] {
			t.Errorf("%s: a compile allocates %d times, %d at 3725 routes: want as many at every size", name, n, allocs["3725"])
		}
	}
}
