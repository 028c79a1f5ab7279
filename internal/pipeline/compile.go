package pipeline

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"vrpower/internal/ip"
	"vrpower/internal/rib"
	"vrpower/internal/sweep"
	"vrpower/internal/trie"
)

// A compile is cut into parts, the subtrees under trie level partBits: part p
// holds the routes of length at least partBits whose top partBits address
// bits are p. The routes shorter than that are the top, which the caller
// walks itself: it writes the root's path down to each part's root, the
// pushed leaves of the parts that hold no route, and the vector the short
// prefixes hand down to each part.
const (
	partBits = 4
	parts    = 1 << partBits
)

// partsInline is the route count under which a compile's parts run on the
// calling goroutine: below it the fan-out costs more than it saves (a
// network of load_small's 400 routes compiles in tens of microseconds).
// Either way the parts are the same and so is every word.
const partsInline = 2048

// Routes is a compile's input: K tables (a network's own, or the K of a
// merged engine) in prefix order, and Levels, the per-level counts of the
// leaf-pushed trie over their union, which an image of them is priced from
// and laid out by. The tables must not change until it has compiled.
type Routes struct {
	tables []*rib.Table
	Levels []trie.Level

	// routes is the tables' route count, which decides whether the parts
	// fan out; internal holds each part's internal nodes per level from
	// partBits down, where its nodes go in each level.
	routes   int
	internal partCounts
}

// partCounts is, per part, its internal nodes at each level from partBits
// to 31.
type partCounts [parts][maxLevels - 1 - partBits]int32

// NewRoutes readies tables for a compile. A table out of prefix order,
// holding a prefix twice or a length outside [0,32] is sorted on a copy that
// keeps a prefix's last route, as an insert does, and no bad length, as the
// reference LPM does. Prefixes are canonical (ip.PrefixFrom's). A count pass
// over the union then gives Levels as trie.Trie.Insert counts them: a prefix
// gives each node on its path below the level it shares with the last prefix
// its first child, and the shared node too when the last prefix ended there.
// The pass runs once per part and once over the top; Levels is their sum.
// Zero tables do not compile.
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
		r.routes += len(r.tables[vn].Routes)
	}
	c := getCompiler(r.tables, nil)
	c.run(r.routes)
	r.internal = c.internal
	var internal [maxLevels - 1]int
	c.top(func(last, q ip.Prefix, _ int, _ bool) {
		l := shared(last, q)
		if l < last.Len {
			l++ // it has a child already, on the last prefix's path
		}
		for ; l < q.Len; l++ {
			internal[l]++
		}
	})
	putCompiler(c)
	for p := range r.internal {
		for l, n := range r.internal[p] {
			internal[partBits+l] += int(n)
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

// shared is the deepest trie level prefixes a and b share.
func shared(a, b ip.Prefix) int {
	return min(bits.LeadingZeros32(uint32(a.Addr^b.Addr)), a.Len, b.Len)
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
// words.
//
// The pass runs over the top first, then once per part from its root. A
// part's nodes of level l start where the level's do plus the nodes of the
// parts before it there, and so do its vectors in the slab, so each part
// writes only words of its own and the parts run in any order, concurrently
// on the sweep pool once the tables hold partsInline routes. Each part also
// fills the jump table's slots of its top bits.
func (r Routes) Compile(sm trie.StageMap) (*Image, error) {
	if r.Levels == nil {
		return nil, fmt.Errorf("pipeline: compile of zero tables")
	}
	k := len(r.tables)
	var off, slab [maxLevels]uint32
	lens, leaves := make([]int, sm.Stages), 0
	for level, lv := range r.Levels {
		s := sm.Stage(level)
		off[level], slab[level] = uint32(lens[s]), uint32(leaves*k)
		lens[s] += lv.Nodes
		leaves += lv.Leaves
	}
	img := newImage(k, sm, lens, leaves*k)
	img.nhi = img.nhi[:leaves*k]
	img.Levels = r.Levels
	c := getCompiler(r.tables, img)
	defer putCompiler(c)
	c.internal = r.internal
	top := &c.w[parts].writer
	top.off, top.slab, top.placed[0], top.at[0] = off, slab, 1, off[0]
	for level, lv := range r.Levels {
		s := sm.Stage(level)
		top.stage[level] = &img.stages[s]
		if level > 0 && sm.Stage(level-1) == s {
			top.stage[level].visits++ // one more level of the stage's run
		}
		top.stage[level].bits += int64(lv.Internal*2*ptrBits + lv.Leaves*k*nhiBits)
		top.meta[level] = uint16(31 - level)
		if sm.Stage(level+1) == s {
			top.meta[level] |= metaFold
		}
	}
	img.sizeJump()
	if err := c.writeTop(); err != nil {
		return nil, err
	}
	c.placeParts()
	c.run(r.routes)
	for _, err := range c.err {
		if err != nil {
			return nil, err
		}
	}
	if img.jump != nil && img.spanLen() == 0 {
		img.buildJump() // too shallow to cut: the parts filled nothing
	}
	obsImagesCompiled.Inc()
	return img, nil
}

// compiler is one count or write pass's scratch, reused from a free list:
// per part and table the route range (lo, hi) and, writing, the part's
// writer; the writer of the top is w[parts]. A part's writer is set up by
// the top's walk (its root, the vector handed down to it, a leaf's slot) and
// by placeParts (where its levels start). Part p runs through Part(p), on
// whichever goroutine claims it; its writer is padded from the next and it
// counts on its own stack, so two parts running side by side write no cache
// line in common.
type compiler struct {
	k      int
	tables []*rib.Table
	img    *Image // nil on a count pass

	lo, hi, gap []int
	vecs        []ip.NextHop
	full        uint16 // parts holding a route

	internal partCounts
	w        [parts + 1]struct {
		writer
		_ [64]byte
	}
	slot  [parts]int // a part whose root is a leaf: its leaf's index in level partBits
	roots [parts]uint32
	err   [parts]error
}

// compilers is the free list of compile scratch.
var compilers struct {
	sync.Mutex
	free []*compiler
}

// getCompiler returns scratch for a pass over tables, writing img (nil to
// count): each table's part ranges found by binary search on rib.Key (a
// range starts past the top's few routes after the last one's end), every
// writer cleared.
func getCompiler(tables []*rib.Table, img *Image) *compiler {
	compilers.Lock()
	var c *compiler
	if n := len(compilers.free); n > 0 {
		c = compilers.free[n-1]
		compilers.free = compilers.free[:n-1]
	} else {
		c = new(compiler)
	}
	compilers.Unlock()
	k := len(tables)
	c.k, c.tables, c.img, c.full = k, tables, img, 0
	c.lo, c.hi, c.gap = grow(c.lo, parts*k), grow(c.hi, parts*k), grow(c.gap, k)
	key := func(r ip.Route, key uint64) int { return cmp.Compare(rib.Key(r.Prefix), key) }
	for vn, tbl := range tables {
		at := 0 // where the last part's range ended
		for p := range parts {
			root := ip.Prefix{Addr: ip.Addr(p) << (32 - partBits), Len: partBits}
			for at < len(tbl.Routes) && rib.Key(tbl.Routes[at].Prefix) < rib.Key(root) {
				at++ // one of the at most partBits routes of the top here
			}
			i := p*k + vn
			c.lo[i], c.hi[i] = at, len(tbl.Routes)
			if p < parts-1 {
				n, _ := slices.BinarySearchFunc(tbl.Routes[at:], rib.Key(ip.Prefix{Addr: root.Addr + 1<<(32-partBits)}), key)
				c.hi[i] = at + n
			}
			if at = c.hi[i]; c.lo[i] < c.hi[i] {
				c.full |= 1 << p
			}
		}
	}
	c.internal, c.slot, c.err = partCounts{}, [parts]int{}, [parts]error{}
	if img != nil {
		// A cache line between two writers' vectors: parts write theirs
		// side by side.
		stride := maxLevels*k + 32
		c.vecs = grow(c.vecs, (parts+1)*stride)
		clear(c.vecs)
		for p := range c.w {
			if p == parts || c.full&(1<<p) != 0 { // the top's and the parts' that write
				c.w[p].writer = writer{img: img, k: k, vecs: c.vecs[p*stride : p*stride+maxLevels*k]}
			}
		}
	}
	return c
}

func putCompiler(c *compiler) {
	c.tables, c.img = nil, nil
	for p := range c.w { // hold no image
		c.w[p].img, c.w[p].stage = nil, [maxLevels]*stage{}
	}
	compilers.Lock()
	compilers.free = append(compilers.free, c)
	compilers.Unlock()
}

// grow returns s with length n, reallocated only when it has no room.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// run runs every part: on the sweep pool from partsInline routes, else in
// order on the calling goroutine.
func (c *compiler) run(routes int) {
	if routes < partsInline {
		for p := range parts {
			c.Part(p)
		}
		return
	}
	sweep.Split(parts, c)
}

// Part runs the pass over part p: the count, or the write and then the
// jump table's slots under it.
func (c *compiler) Part(p int) {
	if c.full&(1<<p) != 0 {
		atBuf, keyBuf := [64]int{}, [64]uint64{}
		u := rib.NewUnion(c.tables, atBuf[:0], keyBuf[:0])
		u.Within(c.lo[p*c.k:(p+1)*c.k], c.hi[p*c.k:(p+1)*c.k], ip.Prefix{Addr: ip.Addr(p) << (32 - partBits), Len: partBits})
		if c.img == nil {
			c.countPart(p, &u)
			return
		}
		c.err[p] = c.writePart(p, &u)
	}
	if c.img != nil && c.img.jump != nil && c.img.spanLen() > 0 {
		c.img.jumpPart(p, c.roots[p])
	}
}

// countPart counts part p's internal nodes per level.
func (c *compiler) countPart(p int, u *rib.Union) {
	var internal [maxLevels - 1]int32
	for u.Next() {
		l := u.Shared
		if l < u.Last.Len {
			l++ // it has a child already, on the last prefix's path
		}
		for ; l < u.Q.Len; l++ {
			internal[l]++
		}
	}
	c.internal[p] = [maxLevels - 1 - partBits]int32(internal[partBits:])
}

// top walks the top in prefix order — each table's routes shorter than
// /partBits, and the root of each part holding a route as a /partBits
// prefix, which stands for the part — calling visit with the prefix before
// (the root's /0 before the first), the prefix, the part whose top bits it
// has, and whether it is that part's root (if not, topHop gives the tables'
// routes at it). It returns the last prefix.
func (c *compiler) top(visit func(last, q ip.Prefix, p int, root bool)) ip.Prefix {
	var last ip.Prefix
	for p := range parts {
		// Part p's short routes lie between the last part's range and p's,
		// all at p's address, shortest first.
		for vn := range c.k {
			c.gap[vn] = 0
			if p > 0 {
				c.gap[vn] = c.hi[(p-1)*c.k+vn]
			}
		}
		for l := range partBits {
			q, held := ip.Prefix{Addr: ip.Addr(p) << (32 - partBits), Len: l}, false
			for vn := range c.k {
				held = held || c.topHop(p, vn, q) != nil
			}
			if held {
				visit(last, q, p, false)
				last = q
				for vn := range c.k {
					if c.topHop(p, vn, q) != nil {
						c.gap[vn]++
					}
				}
			}
		}
		if c.full&(1<<p) != 0 {
			q := ip.Prefix{Addr: ip.Addr(p) << (32 - partBits), Len: partBits}
			visit(last, q, p, true)
			last = q
		}
	}
	return last
}

// topHop is table vn's route at q, a prefix of the top before part p, or nil.
func (c *compiler) topHop(p, vn int, q ip.Prefix) *ip.Route {
	if g := c.gap[vn]; g < c.lo[p*c.k+vn] && c.tables[vn].Routes[g].Prefix == q {
		return &c.tables[vn].Routes[g]
	}
	return nil
}

// writeTop writes the top's words and, at each part's root, hands the part
// its root's entry, the vector it inherits and, if the root is a leaf, the
// leaf's place in its level; then checks the top's levels against the
// counts.
func (c *compiler) writeTop() error {
	w := &c.w[parts].writer
	last := c.top(func(last, q ip.Prefix, p int, root bool) {
		w.move(last, q)
		if !root {
			vec := w.inherit(q.Len)
			for vn := range vec {
				if r := c.topHop(p, vn, q); r != nil {
					vec[vn] = r.NextHop
				}
			}
			w.hand(q.Len)
			return
		}
		pw, f := &c.w[p].writer, w.from[partBits]
		pw.at[partBits], pw.from[partBits], pw.xor[f] = w.at[partBits], f, w.xor[f]
		pw.placed[partBits] = 1 // the part's root, placed here
		copy(pw.vec(int(f)), w.vec(int(f)))
		if c.partInternal(p, partBits) == 0 {
			c.slot[p] = int(w.leaves[partBits]) // the part writes its one leaf there
			w.leaves[partBits]++
		}
		w.kids[partBits] = 3 // the part's: leaving it writes nothing
	})
	for l := last.Len; l >= 0; l-- {
		w.leave(l)
	}
	for level, lv := range c.img.Levels[:min(partBits+1, len(c.img.Levels))] {
		if w.placed[level] != uint32(lv.Nodes) || w.leaves[level] != uint32(lv.Leaves) {
			return fmt.Errorf("pipeline: level %d holds %d nodes and %d leaves, its counts say %d and %d", level, w.placed[level], w.leaves[level], lv.Nodes, lv.Leaves)
		}
	}
	if c.img.jump != nil && c.img.spanLen() > 0 {
		c.roots = c.img.jumpRoots()
	}
	return nil
}

// placeParts starts each part's levels below its root where the parts
// before it end: its nodes and its vectors in the slab.
func (c *compiler) placeParts() {
	top := &c.w[parts].writer
	var nodes, leaves [maxLevels]uint32
	for p := range parts {
		if c.full&(1<<p) == 0 {
			continue
		}
		w := &c.w[p].writer
		w.stage, w.meta = top.stage, top.meta
		w.slab[partBits] = top.slab[partBits] + uint32(c.slot[p]*c.k)
		for l := partBits + 1; l < len(c.img.Levels); l++ {
			w.off[l], w.slab[l] = top.off[l]+nodes[l], top.slab[l]+leaves[l]*uint32(c.k)
			n, in := c.partLevel(p, l)
			nodes[l] += n
			leaves[l] += n - in
		}
	}
}

// partLevel is part p's nodes and internal nodes at level l, partBits (its
// root) or deeper.
func (c *compiler) partLevel(p, l int) (nodes, internal uint32) {
	if l == partBits {
		return 1, c.partInternal(p, l)
	}
	return 2 * c.partInternal(p, l-1), c.partInternal(p, l)
}

// partInternal is part p's internal nodes at level l, partBits or deeper.
func (c *compiler) partInternal(p, l int) uint32 {
	if l >= maxLevels-1 {
		return 0
	}
	return uint32(c.internal[p][l-partBits])
}

// writePart writes part p's words below its root, then checks its levels
// against its counts.
func (c *compiler) writePart(p int, u *rib.Union) error {
	w := &c.w[p].writer
	for u.Next() {
		w.move(u.Last, u.Q)
		vec := w.inherit(u.Q.Len)
		for vn := range vec {
			if nh, ok := u.NextHop(vn); ok {
				vec[vn] = nh
			}
		}
		w.hand(u.Q.Len)
	}
	for l := u.Q.Len; l >= partBits; l-- {
		w.leave(l)
	}
	for l := partBits; l < len(c.img.Levels); l++ {
		n, in := c.partLevel(p, l)
		if w.placed[l] != n || w.leaves[l] != n-in {
			return fmt.Errorf("pipeline: part %d holds %d nodes and %d leaves at level %d, its counts say %d and %d", p, w.placed[l], w.leaves[l], l, n, n-in)
		}
	}
	return nil
}

// writer is one walk's pass, over the top or over a part. Per level: where
// its nodes start in their stage (off) and its vectors in the slab (slab),
// its nodes placed (written or reserved) and leaves written, its stage and
// internal meta word; and of the path's node there, its entry (at), its
// children (kids, a bit each), the first of its reserved pair (first), and
// the level whose scratch vector (vecs, K next hops a level) it hands down
// (from), that vector's XOR kept (xor) for leaf parity.
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

// move moves the path from last to q, the next prefix in order: it leaves
// the path's nodes below the level the two share and descends to q.
func (w *writer) move(last, q ip.Prefix) {
	s := shared(last, q)
	for l := last.Len; l > s; l-- {
		w.leave(l)
	}
	for l := s; l < q.Len; l++ {
		w.descend(l, q.Bit(l))
	}
}

// vec is level l's scratch vector.
func (w *writer) vec(l int) []ip.NextHop { return w.vecs[l*w.k : (l+1)*w.k] }

// inherit returns level l's scratch vector holding the vector the path's
// node there inherits, for a route at it to overlay its next hops on.
func (w *writer) inherit(l int) []ip.NextHop {
	vec := w.vec(l)
	copy(vec, w.vec(int(w.from[l])))
	return vec
}

// hand makes level l's scratch vector the one the path's node there hands
// down, keeping its XOR for leaf parity.
func (w *writer) hand(l int) {
	x := uint32(0)
	for _, nh := range w.vec(l) {
		x ^= uint32(nh)
	}
	w.from[l], w.xor[l] = uint8(l), x
}

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
