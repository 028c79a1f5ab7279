package merge

import (
	"fmt"

	"vrpower/internal/ip"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

// Trie braiding is the merging technique of the paper's reference [17]
// (Song et al., "Building scalable virtual routers with trie braiding",
// INFOCOM 2010): instead of overlaying the K tries in their natural
// orientation, each node stores one *braiding bit* per virtual network;
// when set, that network's 0/1 children are swapped below the node. Choosing
// the bits well lets structurally dissimilar tries share far more nodes
// than the plain overlay, raising the merging efficiency α at the cost of
// K extra bits per node and an XOR in the lookup path.
//
// This implementation uses the greedy bottom-up heuristic: when adding a
// network's subtree to a merged node, pick the orientation whose child
// pairing promises more shape overlap, estimated by recursively comparable
// subtree profiles. The optimal dynamic program of [17] improves on greedy
// by single-digit percents; greedy preserves the technique's behaviour.

// BraidedNode is one node of a braided merged trie.
type BraidedNode struct {
	Child [2]*BraidedNode
	// Twist[vn] reports whether network vn's children are swapped here.
	Twist []bool
	// Present counts how many source tries contain this node.
	Present int
	// routes holds per-VN routes attached at this node (pre-push).
	routes []vnRoute
	// NHI is the K-wide leaf vector after leaf pushing.
	NHI []ip.NextHop
}

// BraidedTrie is the braided merged lookup structure for K networks.
type BraidedTrie struct {
	root   *BraidedNode
	k      int
	pushed bool
}

// K returns the number of merged networks.
func (t *BraidedTrie) K() int { return t.k }

// Root exposes the root for traversals.
func (t *BraidedTrie) Root() *BraidedNode { return t.root }

// BuildBraided merges the K tables with greedy braiding.
func BuildBraided(tables []*rib.Table) (*BraidedTrie, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("merge: no tables to braid")
	}
	bt := &BraidedTrie{k: len(tables)}
	bt.root = &BraidedNode{Twist: make([]bool, bt.k)}
	for vn, tbl := range tables {
		bt.addNetwork(vn, trie.Build(tbl.Routes).Nodes())
	}
	return bt, nil
}

// addNetwork grafts one network's trie, given by its nodes, onto the braided
// structure.
func (t *BraidedTrie) addNetwork(vn int, src []trie.Node) {
	t.graft(t.root, src, 0, vn)
}

// graft merges node id of vn's individual trie src into dst, choosing the
// orientation greedily.
func (t *BraidedTrie) graft(dst *BraidedNode, src []trie.Node, id trie.NodeID, vn int) {
	dst.Present++
	if n := &src[id]; n.HasRoute {
		dst.routes = append(dst.routes, vnRoute{vn: int32(vn), nh: n.NextHop})
	}
	s0, s1 := src[id].Child[0], src[id].Child[1]
	if s0 == 0 && s1 == 0 {
		return
	}
	// Score both orientations by how well the children's shapes align
	// with what is already merged.
	straight := pairScore(dst.Child[0], src, s0) + pairScore(dst.Child[1], src, s1)
	twisted := pairScore(dst.Child[0], src, s1) + pairScore(dst.Child[1], src, s0)
	if twisted > straight {
		dst.Twist[vn] = true
		s0, s1 = s1, s0
	}
	if s0 != 0 {
		if dst.Child[0] == nil {
			dst.Child[0] = &BraidedNode{Twist: make([]bool, t.k)}
		}
		t.graft(dst.Child[0], src, s0, vn)
	}
	if s1 != 0 {
		if dst.Child[1] == nil {
			dst.Child[1] = &BraidedNode{Twist: make([]bool, t.k)}
		}
		t.graft(dst.Child[1], src, s1, vn)
	}
}

// scoreDepth bounds the exact shape-overlap recursion; below it the cheap
// min-size estimate takes over. Six levels is deep enough to see real
// structure without blowing up the build.
const scoreDepth = 6

// pairScore estimates how many nodes merging node id of src (0: none) under
// dst would share, assuming deeper levels may also twist freely (which the
// greedy graft will indeed consider). Exact to scoreDepth, min-size beyond.
func pairScore(dst *BraidedNode, src []trie.Node, id trie.NodeID) int {
	return overlapDP(dst, src, id, scoreDepth)
}

func overlapDP(dst *BraidedNode, src []trie.Node, id trie.NodeID, depth int) int {
	if dst == nil || id == 0 {
		return 0
	}
	if depth == 0 {
		a, b := braidedSize(dst), trieSize(src, id)
		if a < b {
			return a
		}
		return b
	}
	c := src[id].Child
	straight := overlapDP(dst.Child[0], src, c[0], depth-1) +
		overlapDP(dst.Child[1], src, c[1], depth-1)
	twisted := overlapDP(dst.Child[0], src, c[1], depth-1) +
		overlapDP(dst.Child[1], src, c[0], depth-1)
	if twisted > straight {
		return 1 + twisted
	}
	return 1 + straight
}

func braidedSize(n *BraidedNode) int {
	if n == nil {
		return 0
	}
	return 1 + braidedSize(n.Child[0]) + braidedSize(n.Child[1])
}

// trieSize counts the nodes under node id of src, 0 for none.
func trieSize(src []trie.Node, id trie.NodeID) int {
	if id == 0 {
		return 0
	}
	return 1 + trieSize(src, src[id].Child[0]) + trieSize(src, src[id].Child[1])
}

// Lookup resolves addr for network vn, applying the per-node twist bits.
func (t *BraidedTrie) Lookup(vn int, addr ip.Addr) ip.NextHop {
	if vn < 0 || vn >= t.k {
		panic(fmt.Sprintf("merge: braided Lookup vn %d out of range [0,%d)", vn, t.k))
	}
	best := ip.NoRoute
	n := t.root
	for i := 0; n != nil; i++ {
		if n.NHI != nil {
			return n.NHI[vn]
		}
		for _, r := range n.routes {
			if int(r.vn) == vn {
				best = r.nh
			}
		}
		if i == 32 {
			break
		}
		bit := addr.Bit(i)
		if n.Twist[vn] {
			bit ^= 1
		}
		n = n.Child[bit]
	}
	return best
}

// LeafPush pushes per-VN inherited next hops to the leaves, honouring the
// twist bits: a network's inheritance flows along ITS path orientation.
func (t *BraidedTrie) LeafPush() {
	if t.pushed {
		return
	}
	t.pushNode(t.root, make([]ip.NextHop, t.k))
	t.pushed = true
}

func (t *BraidedTrie) pushNode(n *BraidedNode, inherited []ip.NextHop) {
	if len(n.routes) > 0 {
		next := make([]ip.NextHop, t.k)
		copy(next, inherited)
		for _, r := range n.routes {
			next[r.vn] = r.nh
		}
		inherited = next
	}
	if n.Child[0] == nil && n.Child[1] == nil {
		n.NHI = make([]ip.NextHop, t.k)
		copy(n.NHI, inherited)
		n.routes = nil
		return
	}
	for b := 0; b < 2; b++ {
		if n.Child[b] == nil {
			n.Child[b] = &BraidedNode{Twist: make([]bool, t.k)}
		}
		t.pushNode(n.Child[b], inherited)
	}
	n.routes = nil
}

// BraidStats summarises the braided structure.
type BraidStats struct {
	Nodes    int
	Leaves   int
	Internal int
	Common   int
	Alpha    float64
	// TwistBits is the braiding-bit storage cost in bits (K per node).
	TwistBits int64
}

// Stats walks the braided trie.
func (t *BraidedTrie) Stats() BraidStats {
	s := BraidStats{}
	var walk func(n *BraidedNode)
	walk = func(n *BraidedNode) {
		s.Nodes++
		if n.Present >= 2 {
			s.Common++
		}
		if n.Child[0] == nil && n.Child[1] == nil {
			s.Leaves++
		} else {
			s.Internal++
			for b := 0; b < 2; b++ {
				if n.Child[b] != nil {
					walk(n.Child[b])
				}
			}
		}
	}
	walk(t.root)
	if s.Nodes > 0 {
		s.Alpha = float64(s.Common) / float64(s.Nodes)
	}
	s.TwistBits = int64(s.Nodes) * int64(t.k)
	return s
}
