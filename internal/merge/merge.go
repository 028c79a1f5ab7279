// Package merge implements virtualized-merged lookup structures (Section
// II-A.2, IV-C of the paper): K per-network uni-bit tries are overlaid into a
// single shared trie whose leaves carry a K-wide next-hop-information (NHI)
// vector indexed by the virtual network identifier (VNID). The package also
// measures the merging efficiency α (Assumption 4) and provides the analytic
// node-sharing model used by the power equations.
package merge

import (
	"fmt"

	"vrpower/internal/ip"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

// vnRoute records that virtual network VN announces a route with next hop NH
// at a merged node.
type vnRoute struct {
	vn int
	nh ip.NextHop
}

// routeLink is one of a merged node's pre-push routes: a list, so that its
// links come from the trie's arena like its nodes.
type routeLink struct {
	vnRoute
	next *routeLink
}

// Node is one node of the merged trie. Present tracks how many of the K
// source tries contain this node position; after leaf pushing, leaves carry
// the NHI vector for all K networks.
type Node struct {
	Child [2]*Node
	// Present is the number of source tries containing this node.
	Present int
	// seen is 1 + the last network whose route path crossed this node
	// (0: none yet), so Build counts each network once per node.
	seen int
	// routes lists pre-push per-VN routes attached at this node, one per VN.
	routes *routeLink
	// NHI is the K-wide next-hop vector; non-nil only at leaves after
	// leaf pushing (Section V-D: "a leaf node is simply a vector that has
	// routing information corresponding to all the considered virtual
	// networks ... indexed using the VNID").
	NHI []ip.NextHop
}

// IsLeaf reports whether n has no children.
func (n *Node) IsLeaf() bool { return n.Child[0] == nil && n.Child[1] == nil }

// Trie is the merged lookup structure for K virtual networks. Its nodes,
// route links and leaf vectors come from arenas a Rebuild reuses.
type Trie struct {
	root   *Node
	k      int
	pushed bool
	nodes  trie.Arena[Node]
	links  trie.Arena[routeLink]
	nhis   trie.Arena[ip.NextHop]
	// vecs is LeafPush's scratch: one K-wide inherited vector per level.
	vecs []ip.NextHop
	// internal[l] counts the nodes of level l with a child, kept by insert
	// as it links nodes: the input to Levels.
	internal [maxLevels - 1]int
	// path is the walk of the network's last route, where insert resumes.
	path trie.Path[Node]
}

// K returns the number of virtual networks merged into the trie.
func (t *Trie) K() int { return t.k }

// Root exposes the root node for traversals by sibling packages.
func (t *Trie) Root() *Node { return t.root }

// LeafPushed reports whether NHI vectors have been pushed to the leaves.
func (t *Trie) LeafPushed() bool { return t.pushed }

// Build overlays the K tables into one merged trie. Tables must be non-empty
// as a set; individual tables may be empty.
func Build(tables []*rib.Table) (*Trie, error) {
	t := &Trie{}
	if err := t.Rebuild(tables); err != nil {
		return nil, err
	}
	return t, nil
}

// Rebuild makes t the trie Build(tables) would return, in the memory of t's
// last build: nothing may point into t's nodes or leaf vectors any more. On
// error t is unchanged.
func (t *Trie) Rebuild(tables []*rib.Table) error {
	if len(tables) == 0 {
		return fmt.Errorf("merge: no tables to merge")
	}
	t.nodes.Reset()
	t.links.Reset()
	t.nhis.Reset()
	t.k, t.pushed = len(tables), false
	t.root = t.nodes.New()
	clear(t.internal[:])
	// A node is "present" for vn if vn's individual trie would contain it:
	// the root (even of an empty table) and every node on one of vn's route
	// paths, which insert counts as it walks them.
	t.root.Present = len(tables)
	for vn, tbl := range tables {
		// A walk resumes only over nodes this network has stamped.
		t.path.Reset()
		for _, r := range tbl.Routes {
			t.insert(vn, r.Prefix, r.NextHop)
		}
	}
	return nil
}

// insert adds vn's route for p, creating merged structure as needed, and
// counts vn as present in every node below the root that the path crosses
// for the first time. Networks are inserted in order, so one stamp of the
// last network per node suffices. The walk resumes where it leaves the path
// of vn's last route, whose nodes vn has stamped, so a sorted table costs
// O(nodes).
func (t *Trie) insert(vn int, p ip.Prefix, nh ip.NextHop) {
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
		if n.seen != vn+1 {
			n.seen = vn + 1
			n.Present++
		}
	}
	for l := n.routes; l != nil; l = l.next {
		if l.vn == vn {
			l.nh = nh
			return
		}
	}
	l := t.links.New()
	*l = routeLink{vnRoute{vn, nh}, n.routes}
	n.routes = l
}

// LeafPush pushes every network's inherited next hops down to the merged
// leaves and installs the K-wide NHI vectors. Every internal node ends up
// with exactly two children, so a lookup always terminates at a leaf.
func (t *Trie) LeafPush() {
	if t.pushed {
		return
	}
	t.path.Reset()
	if len(t.vecs) != (maxLevels+1)*t.k {
		t.vecs = make([]ip.NextHop, (maxLevels+1)*t.k)
	}
	inherited := t.vecs[:t.k]
	clear(inherited)
	t.pushNode(t.root, 0, inherited)
	t.pushed = true
}

// maxLevels bounds a trie over 32-bit addresses: the root and one level a bit.
const maxLevels = 33

func (t *Trie) pushNode(n *Node, level int, inherited []ip.NextHop) {
	// This node's routes overlay the inherited vector in this level's scratch
	// vector, so siblings still see the parent's.
	inherited = n.Inherit(inherited, t.vecs[(level+1)*t.k:(level+2)*t.k])
	n.routes = nil
	if n.IsLeaf() {
		n.NHI = t.nhis.Slice(t.k)
		copy(n.NHI, inherited)
		return
	}
	for b := 0; b < 2; b++ {
		if n.Child[b] == nil {
			n.Child[b] = t.nodes.New()
		}
		t.pushNode(n.Child[b], level+1, inherited)
	}
}

// Inherit returns the K-wide next-hop vector n hands its subtree when it
// inherits in: a pushed leaf's own NHI; in, when n carries no route; else in
// with n's routes overlaid, written into scratch, which must not alias in.
func (n *Node) Inherit(in, scratch []ip.NextHop) []ip.NextHop {
	if n.NHI != nil {
		return n.NHI
	}
	if n.routes == nil {
		return in
	}
	copy(scratch, in)
	for l := n.routes; l != nil; l = l.next {
		scratch[l.vn] = l.nh
	}
	return scratch
}

// Levels returns the per-level counts of t's leaf-pushed form — what
// LeafPush and then Stats().PerLevel give — in O(levels), pushed or not: nil
// for a zero Trie, which has no root.
func (t *Trie) Levels() []trie.Level {
	if t.root == nil {
		return nil
	}
	return trie.PushedLevels(t.internal[:])
}

// Lookup resolves addr for virtual network vn. On a leaf-pushed trie the
// walk ends at a leaf; on a plain merged trie the deepest route for vn on
// the walk wins. vn must be in [0, K).
func (t *Trie) Lookup(vn int, addr ip.Addr) ip.NextHop {
	if vn < 0 || vn >= t.k {
		panic(fmt.Sprintf("merge: Lookup vn %d out of range [0,%d)", vn, t.k))
	}
	best := ip.NoRoute
	n := t.root
	for i := 0; n != nil; i++ {
		if n.NHI != nil {
			return n.NHI[vn]
		}
		for l := n.routes; l != nil; l = l.next {
			if l.vn == vn {
				best = l.nh
			}
		}
		if i == 32 {
			break
		}
		n = n.Child[addr.Bit(i)]
	}
	return best
}

// Stats summarises the merged trie, including the measured merging
// efficiency α = common nodes / total nodes (Assumption 4), where a common
// node is one present in at least two of the K source tries.
type Stats struct {
	Nodes    int
	Leaves   int
	Internal int
	Common   int // nodes present in >= 2 source tries
	Alpha    float64
	Height   int
	PerLevel []trie.Level
}

// Stats walks the merged trie. Note that nodes created by leaf pushing have
// Present == 0 (they exist in no source trie); they count toward Nodes but
// not toward Common, keeping α a property of the pre-push overlap as the
// paper defines it.
func (t *Trie) Stats() Stats {
	s := Stats{PerLevel: make([]trie.Level, 33)}
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		s.Nodes++
		if depth > s.Height {
			s.Height = depth
		}
		if n.Present >= 2 {
			s.Common++
		}
		lv := &s.PerLevel[depth]
		lv.Nodes++
		if n.IsLeaf() {
			s.Leaves++
			lv.Leaves++
		} else {
			s.Internal++
			lv.Internal++
			for b := 0; b < 2; b++ {
				if n.Child[b] != nil {
					walk(n.Child[b], depth+1)
				}
			}
		}
	}
	walk(t.root, 0)
	s.PerLevel = s.PerLevel[:s.Height+1]
	if s.Nodes > 0 {
		s.Alpha = float64(s.Common) / float64(s.Nodes)
	}
	return s
}

// AnalyticNodes is the node-sharing model used by the power equations: K
// tries of m nodes each, where a fraction α of the merged trie's nodes are
// shared by all K networks, merge into
//
//	T = K·m / (1 + (K-1)·α)
//
// nodes. α = 1 recovers a single trie (full overlap, T = m); α = 0 recovers
// disjoint storage (T = K·m). Higher α therefore means more merging benefit,
// matching Fig. 4's α = 80% vs α = 20% ordering.
func AnalyticNodes(k int, m float64, alpha float64) float64 {
	if k <= 0 {
		return 0
	}
	return float64(k) * m / (1 + float64(k-1)*alpha)
}
