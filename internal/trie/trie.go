// Package trie implements the uni-bit binary trie used by the paper's
// pipelined IP lookup engines (Section V-D): construction from a routing
// table, leaf pushing, longest-prefix-match lookup, incremental updates,
// per-level node statistics, and the level→pipeline-stage mapping.
package trie

import (
	"fmt"
	"math/bits"

	"vrpower/internal/ip"
)

// Node is one uni-bit trie node. A node may carry a route (HasRoute) and up
// to two children; after leaf pushing only leaves carry routes and every
// internal node has exactly two children.
type Node struct {
	Child    [2]*Node
	HasRoute bool
	NextHop  ip.NextHop
}

// IsLeaf reports whether n has no children.
func (n *Node) IsLeaf() bool { return n.Child[0] == nil && n.Child[1] == nil }

// Arena hands out zeroed values of T from chunked slabs, so that building a
// pointer-linked structure costs an allocation per chunk instead of one per
// node. Chunks double in size up to arenaMax values. Values are taken back
// all at once or not at all: Reset zeroes the slabs and hands them out again
// in the same order, so a structure rebuilt over its arena reuses the last
// build's memory, and nothing may point into the arena across a Reset. A
// value unlinked before then (Delete) stays in its slab until the Reset.
type Arena[T any] struct {
	// slabs[:next] are the slabs handed out from since the last Reset; free
	// is what is left of the last of them.
	slabs [][]T
	next  int
	free  []T
}

const arenaMin, arenaMax = 16, 2048

// New returns a pointer to a zero T.
func (a *Arena[T]) New() *T {
	if len(a.free) == 0 {
		a.take(1)
	}
	v := &a.free[0]
	a.free = a.free[1:]
	return v
}

// Slice returns n contiguous zero values, capped at n.
func (a *Arena[T]) Slice(n int) []T {
	if len(a.free) < n {
		a.take(n)
	}
	v := a.free[:n:n]
	a.free = a.free[n:]
	return v
}

// take makes the next slab with room for n values the one handed out from,
// skipping any too small for n and making one when none is left.
func (a *Arena[T]) take(n int) {
	for a.next < len(a.slabs) && len(a.slabs[a.next]) < n {
		a.next++
	}
	if a.next == len(a.slabs) {
		size := arenaMin
		if k := len(a.slabs); k > 0 {
			size = min(2*len(a.slabs[k-1]), arenaMax)
		}
		a.slabs = append(a.slabs, make([]T, max(size, n)))
	}
	a.free = a.slabs[a.next]
	a.next++
}

// Reset takes back every value handed out, zeroed.
func (a *Arena[T]) Reset() {
	for _, s := range a.slabs[:a.next] {
		clear(s)
	}
	a.next, a.free = 0, nil
}

// Trie is a uni-bit binary trie over IPv4 prefixes.
type Trie struct {
	root       *Node
	routes     int
	leafPushed bool
	nodes      Arena[Node]
	// internal[l] counts the nodes of level l with a child, kept by Insert
	// and Delete as they link and prune nodes: the input to Levels.
	internal [maxLevels - 1]int
	// path is the last insert's walk, where the next one resumes.
	path Path[Node]
}

// Path is the walk of the last prefix inserted into a trie of N nodes: the
// node it reached at every level. The next insert resumes at the deepest
// node the two prefixes share instead of at the root, so inserting a sorted
// table walks each node about once. Anything that may unlink a node on the
// path, or reuse its memory (a delete, a rebuild), must Reset it first.
type Path[N any] struct {
	// nodes[l] is the walk's node at level l, for l up to last.Len; nodes[0]
	// is nil when there is no walk to resume.
	nodes [maxLevels]*N
	last  ip.Prefix
}

// Reset forgets the last walk: the next one starts at the root.
func (p *Path[N]) Reset() { p.nodes[0] = nil }

// Resume starts the walk for q down from root and returns the level it
// resumes at: the deepest that q shares with the last walk from root, whose
// node is At(level). The caller records each node below it with Set.
func (p *Path[N]) Resume(root *N, q ip.Prefix) int {
	shared := 0
	if p.nodes[0] == root {
		shared = max(min(bits.LeadingZeros32(uint32(q.Addr^p.last.Addr)), q.Len, p.last.Len), 0)
	}
	p.nodes[0], p.last = root, q
	return shared
}

// At returns the walk's node at level l.
func (p *Path[N]) At(l int) *N { return p.nodes[l] }

// Set records n as the walk's node at level l.
func (p *Path[N]) Set(l int, n *N) { p.nodes[l] = n }

// maxLevels bounds a trie over 32-bit addresses: the root and one level a bit.
const maxLevels = 33

// Build constructs a trie from all routes of t.
func Build(t []ip.Route) *Trie {
	tr := &Trie{}
	tr.Rebuild(t)
	return tr
}

// Rebuild makes t the trie Build(routes) would return, in the node memory of
// t's last build: nothing may point into t's nodes any more.
func (t *Trie) Rebuild(routes []ip.Route) {
	t.path.Reset()
	t.nodes.Reset()
	t.root, t.routes, t.leafPushed = t.nodes.New(), 0, false
	clear(t.internal[:])
	for _, r := range routes {
		t.Insert(r.Prefix, r.NextHop)
	}
}

// Root exposes the root node for traversals by sibling packages.
func (t *Trie) Root() *Node { return t.root }

// Routes returns the number of routes inserted (and not deleted).
func (t *Trie) Routes() int { return t.routes }

// LeafPushed reports whether LeafPush has been applied.
func (t *Trie) LeafPushed() bool { return t.leafPushed }

// Insert adds or replaces the route for p. Insert on a leaf-pushed trie
// panics: incremental updates must precede leaf pushing (the paper's
// companion work [6] covers on-the-fly updates; this reproduction rebuilds).
// The walk resumes where it leaves the last insert's path, so prefixes
// inserted in sorted order cost O(nodes) together; any order gives the same
// trie.
func (t *Trie) Insert(p ip.Prefix, nh ip.NextHop) {
	if t.leafPushed {
		panic("trie: Insert on leaf-pushed trie")
	}
	i := t.path.Resume(t.root, p)
	n := t.path.At(i)
	for ; i < p.Len; i++ {
		b := p.Bit(i)
		if n.Child[b] == nil {
			if n.IsLeaf() {
				t.internal[i]++
			}
			n.Child[b] = t.nodes.New()
		}
		n = n.Child[b]
		t.path.Set(i+1, n)
	}
	if !n.HasRoute {
		t.routes++
	}
	n.HasRoute = true
	n.NextHop = nh
}

// Delete removes the route for p, pruning now-empty branches, and reports
// whether the route existed.
func (t *Trie) Delete(p ip.Prefix) bool {
	if t.leafPushed {
		panic("trie: Delete on leaf-pushed trie")
	}
	t.path.Reset()
	// Record the path so we can prune bottom-up.
	path := make([]*Node, 0, p.Len+1)
	n := t.root
	path = append(path, n)
	for i := 0; i < p.Len; i++ {
		n = n.Child[p.Bit(i)]
		if n == nil {
			return false
		}
		path = append(path, n)
	}
	if !n.HasRoute {
		return false
	}
	n.HasRoute = false
	t.routes--
	for i := len(path) - 1; i > 0; i-- {
		node := path[i]
		if node.HasRoute || !node.IsLeaf() {
			break
		}
		path[i-1].Child[p.Bit(i-1)] = nil
		if path[i-1].IsLeaf() {
			t.internal[i-1]--
		}
	}
	return true
}

// Lookup performs longest-prefix match on addr. It handles both plain and
// leaf-pushed tries: in a plain trie it tracks the deepest route on the
// walk; in a leaf-pushed trie the walk ends at a leaf holding the answer.
func (t *Trie) Lookup(addr ip.Addr) ip.NextHop {
	best := ip.NoRoute
	n := t.root
	for i := 0; n != nil; i++ {
		if n.HasRoute {
			best = n.NextHop
		}
		if i == 32 {
			break
		}
		n = n.Child[addr.Bit(i)]
	}
	return best
}

// LeafPush converts t into leaf-pushed form (Section V-D, [16]): inherited
// next hops are pushed down so that only leaf nodes carry forwarding
// information and every internal node has exactly two children. Lookups then
// resolve at the leaf reached by the address walk.
func (t *Trie) LeafPush() {
	if t.leafPushed {
		return
	}
	t.path.Reset()
	t.push(t.root, ip.NoRoute)
	t.leafPushed = true
}

func (t *Trie) push(n *Node, inherited ip.NextHop) {
	if n.HasRoute {
		inherited = n.NextHop
	}
	if n.IsLeaf() {
		// Leaves keep (or gain) the inherited next hop. A leaf with
		// inherited == NoRoute is a genuine miss leaf.
		n.HasRoute = inherited != ip.NoRoute
		n.NextHop = inherited
		return
	}
	for b := 0; b < 2; b++ {
		if n.Child[b] == nil {
			n.Child[b] = t.nodes.New()
		}
		t.push(n.Child[b], inherited)
	}
	// Internal nodes carry no forwarding information after pushing.
	n.HasRoute = false
	n.NextHop = ip.NoRoute
}

// Stats summarises trie shape. Levels are node levels: the root is level 0,
// so a trie over /32 prefixes has levels 0..32.
type Stats struct {
	Nodes    int
	Leaves   int
	Internal int
	Height   int // deepest populated node level
	PerLevel []Level
}

// Level holds per-level node counts.
type Level struct {
	Nodes    int
	Leaves   int
	Internal int
}

// Stats walks the trie and returns its shape statistics.
func (t *Trie) Stats() Stats {
	var per [maxLevels]Level
	height := 0
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		height = max(height, depth)
		lv := &per[depth]
		lv.Nodes++
		if n.IsLeaf() {
			lv.Leaves++
			return
		}
		lv.Internal++
		for b := 0; b < 2; b++ {
			if n.Child[b] != nil {
				walk(n.Child[b], depth+1)
			}
		}
	}
	walk(t.root, 0)
	return StatsOf(append([]Level(nil), per[:height+1]...))
}

// StatsOf sums per-level counts, level 0 the root's, into the Stats of the
// trie they describe.
func StatsOf(perLevel []Level) Stats {
	s := Stats{Height: len(perLevel) - 1, PerLevel: perLevel}
	for _, lv := range perLevel {
		s.Nodes, s.Leaves, s.Internal = s.Nodes+lv.Nodes, s.Leaves+lv.Leaves, s.Internal+lv.Internal
	}
	return s
}

// Levels returns the per-level counts of t's leaf-pushed form — what
// LeafPush and then Stats().PerLevel give — in O(levels), pushed or not: nil
// for a zero Trie, which has no root.
func (t *Trie) Levels() []Level {
	if t.root == nil {
		return nil
	}
	return PushedLevels(t.internal[:])
}

// PushedLevels is the per-level shape of a leaf-pushed trie whose level l
// holds internal[l] nodes with a child. Pushing gives each of those nodes
// both children and adds no node with a child, so level l+1 holds twice
// level l's internal nodes, and the rest of a level are leaves; the trie
// ends at the first level with no internal node.
func PushedLevels(internal []int) []Level {
	height := 0
	for height < len(internal) && internal[height] > 0 {
		height++
	}
	out := make([]Level, height+1)
	for l := range out {
		n := 1
		if l > 0 {
			n = 2 * internal[l-1]
		}
		in := 0
		if l < height {
			in = internal[l]
		}
		out[l] = Level{Nodes: n, Leaves: n - in, Internal: in}
	}
	return out
}

// Walk visits every node in preorder with its level; fn returning false
// stops the walk.
func (t *Trie) Walk(fn func(n *Node, level int) bool) {
	var walk func(n *Node, depth int) bool
	walk = func(n *Node, depth int) bool {
		if !fn(n, depth) {
			return false
		}
		for b := 0; b < 2; b++ {
			if n.Child[b] != nil {
				if !walk(n.Child[b], depth+1) {
					return false
				}
			}
		}
		return true
	}
	walk(t.root, 0)
}

// StageMap maps trie node levels onto the N stages of a linear pipeline.
// The mapping is monotone and contiguous: each stage holds a run of
// consecutive levels, so a packet's walk never moves backwards.
//
// Two constructors exist. NewStageMap folds the shallowest levels into
// stage 0 (they hold few nodes, so stage 0's memory stays small) and maps
// deeper levels one-to-one — the paper's plain level-per-stage layout.
// NewBalancedStageMap instead partitions the levels to minimise the
// largest per-stage memory, the memory-balancing optimisation of the
// paper's references [7] and [8] (Jiang & Prasanna), which reduces the
// widest stage memory and therefore the pipeline's critical path.
type StageMap struct {
	Stages int
	// assign[level] is the stage holding that level.
	assign []int
}

// NewStageMap builds the fold-into-stage-0 mapping of levels 0..height.
func NewStageMap(stages, height int) (StageMap, error) {
	if stages <= 0 {
		return StageMap{}, fmt.Errorf("trie: stage map needs stages > 0, got %d", stages)
	}
	levels := height + 1
	fold := levels - stages
	if fold < 0 {
		fold = 0
	}
	assign := make([]int, levels)
	for lv := 0; lv < levels; lv++ {
		s := lv - fold
		if s < 0 {
			s = 0
		}
		assign[lv] = s
	}
	return StageMap{Stages: stages, assign: assign}, nil
}

// NewBalancedStageMap partitions levels 0..len(levelBits)-1 into at most
// stages contiguous groups minimising the maximum group memory, by dynamic
// programming over prefix sums (O(L²·N), trivial at L ≤ 33).
func NewBalancedStageMap(stages int, levelBits []int64) (StageMap, error) {
	if stages <= 0 {
		return StageMap{}, fmt.Errorf("trie: stage map needs stages > 0, got %d", stages)
	}
	levels := len(levelBits)
	if levels == 0 {
		return StageMap{}, fmt.Errorf("trie: balanced stage map needs at least one level")
	}
	if stages > levels {
		stages = levels // one level per stage at most; trailing stages stay empty
	}
	prefix := make([]int64, levels+1)
	for i, b := range levelBits {
		if b < 0 {
			return StageMap{}, fmt.Errorf("trie: negative level memory at level %d", i)
		}
		prefix[i+1] = prefix[i] + b
	}
	const inf = int64(1) << 62
	// cost[s][l]: minimal max-group over levels [0,l) using s groups.
	cost := make([][]int64, stages+1)
	cut := make([][]int, stages+1)
	for s := range cost {
		cost[s] = make([]int64, levels+1)
		cut[s] = make([]int, levels+1)
		for l := range cost[s] {
			cost[s][l] = inf
		}
	}
	cost[0][0] = 0
	for s := 1; s <= stages; s++ {
		for l := 1; l <= levels; l++ {
			for j := s - 1; j < l; j++ {
				if cost[s-1][j] == inf {
					continue
				}
				group := prefix[l] - prefix[j]
				c := cost[s-1][j]
				if group > c {
					c = group
				}
				if c < cost[s][l] {
					cost[s][l] = c
					cut[s][l] = j
				}
			}
		}
	}
	// Pick the best group count (fewer groups never helps min-max, but
	// allow it for degenerate inputs).
	bestS := stages
	for s := stages; s >= 1; s-- {
		if cost[s][levels] <= cost[bestS][levels] {
			bestS = s
		}
	}
	assign := make([]int, levels)
	l := levels
	for s := bestS; s >= 1; s-- {
		j := cut[s][l]
		for lv := j; lv < l; lv++ {
			assign[lv] = s - 1
		}
		l = j
	}
	return StageMap{Stages: stages, assign: assign}, nil
}

// Stage returns the pipeline stage holding nodes of the given level.
// Levels beyond the mapped range clamp to the last stage.
func (m StageMap) Stage(level int) int {
	if level < 0 {
		return 0
	}
	if level >= len(m.assign) {
		return m.Stages - 1
	}
	return m.assign[level]
}

// Folded returns how many levels share stage 0 beyond the first.
func (m StageMap) Folded() int {
	n := 0
	for _, s := range m.assign {
		if s == 0 {
			n++
		}
	}
	if n > 0 {
		n--
	}
	return n
}

// MaxLevelsPerStage returns the largest number of levels any stage holds.
func (m StageMap) MaxLevelsPerStage() int {
	counts := make([]int, m.Stages)
	max := 0
	for _, s := range m.assign {
		counts[s]++
		if counts[s] > max {
			max = counts[s]
		}
	}
	return max
}
