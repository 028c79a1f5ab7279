// Package merge implements virtualized-merged lookup structures (Section
// II-A.2, IV-C of the paper): K per-network uni-bit tries are overlaid into a
// single shared trie whose leaves carry a K-wide next-hop-information (NHI)
// vector indexed by the virtual network identifier (VNID). The package also
// measures the merging efficiency α (Assumption 4) and provides the analytic
// node-sharing model used by the power equations.
package merge

import (
	"fmt"
	"slices"

	"vrpower/internal/ip"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

// vnRoute records that virtual network VN announces a route with next hop NH
// at a merged node.
type vnRoute struct {
	vn int32
	nh ip.NextHop
}

// routeLink is one of a merged node's pre-push routes: a list, linked by
// index into the trie's links like its nodes.
type routeLink struct {
	vnRoute
	next uint32
}

// Node is one node of the merged trie, linked by id into its trie's nodes
// like a trie.Node, and like one it holds no Go pointer. Present tracks how
// many of the K source tries contain this node position; after leaf pushing,
// leaves carry the NHI vector for all K networks.
type Node struct {
	Child [2]trie.NodeID
	// Present is the number of source tries containing this node.
	Present int32
	// seen is 1 + the last network whose route path crossed this node
	// (0: none yet), so Build counts each network once per node.
	seen int32
	// routes is the first of the pre-push per-VN routes attached at this
	// node, one per VN: an index into the trie's links, 0 for none.
	routes uint32
	// nhi is 1 + the index of the node's K-wide next-hop vector in the
	// trie's slab; nonzero only at leaves after leaf pushing (Section V-D:
	// "a leaf node is simply a vector that has routing information
	// corresponding to all the considered virtual networks ... indexed using
	// the VNID").
	nhi uint32
}

// IsLeaf reports whether n has no children.
func (n *Node) IsLeaf() bool { return n.Child == [2]trie.NodeID{} }

// Trie is the merged lookup structure for K virtual networks. Its nodes,
// route links and leaf vectors are three slices a Rebuild reuses.
type Trie struct {
	// nodes holds the nodes, the root first; nil for a zero Trie.
	nodes []Node
	// links holds the route lists; links[0] is unused, so that a routes
	// index of 0 is no route.
	links []routeLink
	// nhis holds the leaf vectors, K next hops each.
	nhis   []ip.NextHop
	k      int
	pushed bool
	// vecs is LeafPush's scratch: one K-wide inherited vector per level.
	vecs []ip.NextHop
	// path is the walk of the network's last route, where insert resumes.
	path trie.IDPath
}

// K returns the number of virtual networks merged into the trie.
func (t *Trie) K() int { return t.k }

// NHI returns node id's K-wide next-hop vector: nil but at a leaf of a
// leaf-pushed trie.
func (t *Trie) NHI(id trie.NodeID) []ip.NextHop {
	v := int(t.nodes[id].nhi)
	if v == 0 {
		return nil
	}
	return t.nhis[(v-1)*t.k : v*t.k : v*t.k]
}

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

// Rebuild makes t the trie Build(tables) would return, in the slices of t's
// last build. On error t is unchanged.
func (t *Trie) Rebuild(tables []*rib.Table) error {
	if len(tables) == 0 {
		return fmt.Errorf("merge: no tables to merge")
	}
	// A node is "present" for vn if vn's individual trie would contain it:
	// the root (even of an empty table) and every node on one of vn's route
	// paths, which insert counts as it walks them.
	links := 1
	for _, tbl := range tables {
		links += len(tbl.Routes)
	}
	t.nodes = append(slices.Grow(t.nodes[:0], 1+nodeBound(tables)), Node{Present: int32(len(tables))})
	t.links = append(slices.Grow(t.links[:0], links), routeLink{})
	t.nhis = t.nhis[:0]
	t.k, t.pushed = len(tables), false
	for vn, tbl := range tables {
		// A walk resumes only over nodes this network has stamped.
		t.path.Reset()
		for _, r := range tbl.Routes {
			t.insert(int32(vn), r.Prefix, r.NextHop)
		}
	}
	return nil
}

// nodeBound is trie.Links over the tables merged in prefix order, a prefix
// several tables hold counted once: exactly the merged trie's nodes below its
// root when the tables are sorted.
func nodeBound(tables []*rib.Table) (n int) {
	atBuf, keyBuf := [64]int{}, [64]uint64{} // on the stack up to 64 tables
	for u := rib.NewUnion(tables, atBuf[:0], keyBuf[:0]); u.Next(); {
		n += u.Q.Len - u.Shared
	}
	return n
}

// child returns the child b of node id, linking a new node there first if
// there is none.
func (t *Trie) child(id trie.NodeID, b int) trie.NodeID {
	if c := t.nodes[id].Child[b]; c != 0 {
		return c
	}
	c := trie.NodeID(len(t.nodes))
	t.nodes = append(t.nodes, Node{})
	t.nodes[id].Child[b] = c
	return c
}

// insert adds vn's route for p, creating merged structure as needed, and
// counts vn as present in every node below the root that the path crosses
// for the first time. Networks are inserted in order, so one stamp of the
// last network per node suffices. The walk resumes where it leaves the path
// of vn's last route, whose nodes vn has stamped, so a sorted table costs
// O(nodes).
func (t *Trie) insert(vn int32, p ip.Prefix, nh ip.NextHop) {
	i := t.path.Resume(p)
	id := t.path.At[i]
	for ; i < p.Len; i++ {
		id = t.child(id, p.Bit(i))
		t.path.At[i+1] = id
		if n := &t.nodes[id]; n.seen != vn+1 {
			n.seen = vn + 1
			n.Present++
		}
	}
	n := &t.nodes[id]
	for l := n.routes; l != 0; l = t.links[l].next {
		if t.links[l].vn == vn {
			t.links[l].nh = nh
			return
		}
	}
	t.links = append(t.links, routeLink{vnRoute{vn, nh}, n.routes})
	n.routes = uint32(len(t.links) - 1)
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
	t.pushNode(0, 0, inherited)
	t.pushed = true
}

// maxLevels bounds a trie over 32-bit addresses: the root and one level a bit.
const maxLevels = 33

func (t *Trie) pushNode(id trie.NodeID, level int, inherited []ip.NextHop) {
	// This node's routes overlay the inherited vector in this level's scratch
	// vector, so siblings still see the parent's.
	inherited = t.inherit(id, inherited, t.vecs[(level+1)*t.k:(level+2)*t.k])
	n := &t.nodes[id]
	n.routes = 0
	if n.IsLeaf() {
		t.nhis = append(t.nhis, inherited...)
		n.nhi = uint32(len(t.nhis) / t.k)
		return
	}
	for b := 0; b < 2; b++ {
		t.pushNode(t.child(id, b), level+1, inherited)
	}
}

// inherit returns the K-wide next-hop vector node id hands its subtree when
// it inherits in: a pushed leaf's own NHI; in, when it carries no route; else
// in with its routes overlaid, written into scratch, which must not alias in.
func (t *Trie) inherit(id trie.NodeID, in, scratch []ip.NextHop) []ip.NextHop {
	n := &t.nodes[id]
	if n.nhi != 0 {
		return t.NHI(id)
	}
	if n.routes == 0 {
		return in
	}
	copy(scratch, in)
	for l := n.routes; l != 0; l = t.links[l].next {
		scratch[t.links[l].vn] = t.links[l].nh
	}
	return scratch
}

// Lookup resolves addr for virtual network vn. On a leaf-pushed trie the
// walk ends at a leaf; on a plain merged trie the deepest route for vn on
// the walk wins. vn must be in [0, K).
func (t *Trie) Lookup(vn int, addr ip.Addr) ip.NextHop {
	if vn < 0 || vn >= t.k {
		panic(fmt.Sprintf("merge: Lookup vn %d out of range [0,%d)", vn, t.k))
	}
	best := ip.NoRoute
	for i, id := 0, trie.NodeID(0); ; i++ {
		n := &t.nodes[id]
		if n.nhi != 0 {
			return t.NHI(id)[vn]
		}
		for l := n.routes; l != 0; l = t.links[l].next {
			if t.links[l].vn == int32(vn) {
				best = t.links[l].nh
			}
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
	var walk func(id trie.NodeID, depth int)
	walk = func(id trie.NodeID, depth int) {
		n := &t.nodes[id]
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
			for _, c := range n.Child {
				if c != 0 {
					walk(c, depth+1)
				}
			}
		}
	}
	walk(0, 0)
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
