// Package trie implements the uni-bit binary trie used by the paper's
// pipelined IP lookup engines (Section V-D): construction from a routing
// table, leaf pushing, longest-prefix-match lookup, incremental updates,
// per-level node statistics, and the level→pipeline-stage mapping.
package trie

import (
	"fmt"
	"math/bits"
	"slices"

	"vrpower/internal/ip"
)

// NodeID names a node of a trie: its index in the trie's node slice, whose
// first node is the root. As a child link, 0 is no child: the root is no
// node's child.
type NodeID uint32

// Node is one uni-bit trie node. A node may carry a route (HasRoute) and up
// to two children; after leaf pushing only leaves carry routes and every
// internal node has exactly two children. A node holds no Go pointer, so the
// garbage collector never scans a trie's nodes.
type Node struct {
	Child    [2]NodeID
	HasRoute bool
	NextHop  ip.NextHop
}

// IsLeaf reports whether n has no children.
func (n *Node) IsLeaf() bool { return n.Child == [2]NodeID{} }

// Trie is a uni-bit binary trie over IPv4 prefixes.
type Trie struct {
	// nodes holds every node built since the last Rebuild, the root first; a
	// node unlinked by Delete stays until then. Nil for a zero Trie.
	nodes      []Node
	routes     int
	leafPushed bool
	// internal[l] counts the nodes of level l with a child, kept by Insert
	// and Delete as they link and prune nodes: the input to Levels.
	internal [maxLevels - 1]int
	// path is the last insert's walk, where the next one resumes.
	path IDPath
}

// IDPath is the walk of the last prefix inserted into a trie: the id of the
// node it reached at every level. The next insert resumes at the deepest
// node the two prefixes share instead of at the root, so inserting a sorted
// table walks each node about once. Anything that may unlink a node on the
// path, or reuse its id (a delete, a rebuild), must Reset it first.
type IDPath struct {
	// At[l] is the walk's node at level l, for l up to last.Len.
	At   [maxLevels]NodeID
	last ip.Prefix
	live bool
}

// Reset forgets the last walk: the next one starts at the root.
func (p *IDPath) Reset() { p.live = false }

// Resume starts the walk for q and returns the level it resumes at: the
// deepest that q shares with the last walk, whose node is At[level]. The
// caller records each node below it in At.
func (p *IDPath) Resume(q ip.Prefix) int {
	shared := 0
	if p.live {
		shared = max(min(bits.LeadingZeros32(uint32(q.Addr^p.last.Addr)), q.Len, p.last.Len), 0)
	}
	p.live, p.last = true, q
	return shared
}

// Links bounds the nodes that inserting routes, in order, links below the
// root: each resumes where the walk of the one before it leaves off, and
// adds at most a node per level below that. A build sizes its node slice by
// it once instead of growing it as it goes.
func Links(routes []ip.Route) int {
	var p IDPath
	n := 0
	for _, r := range routes {
		n += r.Prefix.Len - p.Resume(r.Prefix)
	}
	return n
}

// maxLevels bounds a trie over 32-bit addresses: the root and one level a bit.
const maxLevels = 33

// Build constructs a trie from all routes of t.
func Build(t []ip.Route) *Trie {
	tr := &Trie{}
	tr.Rebuild(t)
	return tr
}

// Rebuild makes t the trie Build(routes) would return, in the node slice of
// t's last build.
func (t *Trie) Rebuild(routes []ip.Route) {
	t.path.Reset()
	t.nodes = append(slices.Grow(t.nodes[:0], 1+Links(routes)), Node{})
	t.routes, t.leafPushed = 0, false
	clear(t.internal[:])
	for _, r := range routes {
		t.Insert(r.Prefix, r.NextHop)
	}
}

// Nodes exposes the node slice, the root first, for traversals by sibling
// packages: a node's children are Nodes()[id]. It is valid until the next
// Insert, LeafPush or Rebuild.
func (t *Trie) Nodes() []Node { return t.nodes }

// Routes returns the number of routes inserted (and not deleted).
func (t *Trie) Routes() int { return t.routes }

// LeafPushed reports whether LeafPush has been applied.
func (t *Trie) LeafPushed() bool { return t.leafPushed }

// child returns the child b of node id, linking a new node there first if
// there is none.
func (t *Trie) child(id NodeID, b int) NodeID {
	if c := t.nodes[id].Child[b]; c != 0 {
		return c
	}
	c := NodeID(len(t.nodes))
	t.nodes = append(t.nodes, Node{})
	t.nodes[id].Child[b] = c
	return c
}

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
	i := t.path.Resume(p)
	id := t.path.At[i]
	for ; i < p.Len; i++ {
		if t.nodes[id].IsLeaf() {
			t.internal[i]++ // its first child is linked below
		}
		id = t.child(id, p.Bit(i))
		t.path.At[i+1] = id
	}
	n := &t.nodes[id]
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
	var path [maxLevels]NodeID
	for i := 0; i < p.Len; i++ {
		if path[i+1] = t.nodes[path[i]].Child[p.Bit(i)]; path[i+1] == 0 {
			return false
		}
	}
	n := &t.nodes[path[p.Len]]
	if !n.HasRoute {
		return false
	}
	n.HasRoute = false
	t.routes--
	for i := p.Len; i > 0; i-- {
		if node := &t.nodes[path[i]]; node.HasRoute || !node.IsLeaf() {
			break
		}
		parent := &t.nodes[path[i-1]]
		parent.Child[p.Bit(i-1)] = 0
		if parent.IsLeaf() {
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
	if t.nodes == nil {
		return best
	}
	for i, id := 0, NodeID(0); ; i++ {
		n := &t.nodes[id]
		if n.HasRoute {
			best = n.NextHop
		}
		if i == 32 {
			break
		}
		if id = n.Child[addr.Bit(i)]; id == 0 {
			break
		}
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
	n := 1 // pushed, the trie is full: the root, and two children a node with one
	for _, c := range t.internal {
		n += 2 * c
	}
	t.nodes = slices.Grow(t.nodes, max(n-len(t.nodes), 0))
	t.push(0, ip.NoRoute)
	t.leafPushed = true
}

func (t *Trie) push(id NodeID, inherited ip.NextHop) {
	n := &t.nodes[id]
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
	// Internal nodes carry no forwarding information after pushing.
	n.HasRoute = false
	n.NextHop = ip.NoRoute
	for b := 0; b < 2; b++ {
		t.push(t.child(id, b), inherited)
	}
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
	var walk func(id NodeID, depth int)
	walk = func(id NodeID, depth int) {
		height = max(height, depth)
		lv := &per[depth]
		lv.Nodes++
		n := &t.nodes[id]
		if n.IsLeaf() {
			lv.Leaves++
			return
		}
		lv.Internal++
		for _, c := range n.Child {
			if c != 0 {
				walk(c, depth+1)
			}
		}
	}
	walk(0, 0)
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
	if t.nodes == nil {
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
