package trie

import (
	"sort"

	"vrpower/internal/ip"
)

// Compact implements Optimal Route Table Construction (ORTC, Draves et al.,
// INFOCOM 1999): it returns a routing table with the provably minimal number
// of prefixes whose longest-prefix-match behaviour is identical to the
// input's. Fewer prefixes mean fewer trie nodes, fewer BRAM blocks and less
// lookup power, so compaction composes with every scheme the paper models —
// it shrinks M_{i,j} before Eq. 2/4/6 ever see it.
//
// The algorithm is the classic three conceptual passes on the uni-bit trie:
// leaf-push to a full tree, compute candidate next-hop sets bottom-up
// (intersection where possible, union otherwise), then choose next hops
// top-down, emitting a route only where the inherited choice is not in the
// node's candidate set.
func Compact(routes []ip.Route) []ip.Route {
	tr := Build(routes)
	tr.LeafPush()

	sets := make([]nhSet, len(tr.nodes))
	buildSets(tr.nodes, 0, sets)

	var out []ip.Route
	emit(tr.nodes, 0, sets, 0, 0, ip.NoRoute, true, &out)
	sort.Slice(out, func(i, j int) bool { return ip.Compare(out[i].Prefix, out[j].Prefix) < 0 })
	return out
}

// nhSet is a small sorted set of next hops (tables use few distinct ports).
type nhSet []ip.NextHop

func (s nhSet) contains(nh ip.NextHop) bool {
	for _, x := range s {
		if x == nh {
			return true
		}
	}
	return false
}

func intersect(a, b nhSet) nhSet {
	var out nhSet
	for _, x := range a {
		if b.contains(x) {
			out = append(out, x)
		}
	}
	return out
}

func union(a, b nhSet) nhSet {
	out := append(nhSet{}, a...)
	for _, x := range b {
		if !out.contains(x) {
			out = append(out, x)
		}
	}
	return out
}

// buildSets computes the candidate set of node id and its subtree bottom-up
// (ORTC pass 2), indexed by node id.
func buildSets(nodes []Node, id NodeID, sets []nhSet) nhSet {
	n := &nodes[id]
	if n.IsLeaf() {
		s := nhSet{n.NextHop} // NoRoute is a legitimate candidate: "no route here"
		sets[id] = s
		return s
	}
	l := buildSets(nodes, n.Child[0], sets)
	r := buildSets(nodes, n.Child[1], sets)
	s := intersect(l, r)
	if len(s) == 0 {
		s = union(l, r)
	}
	sets[id] = s
	return s
}

// emit walks top-down (ORTC pass 3): a node emits a route only when the
// inherited choice is not in its candidate set.
func emit(nodes []Node, id NodeID, sets []nhSet, addr uint32, depth int, inherited ip.NextHop, isRoot bool, out *[]ip.Route) {
	s, n := sets[id], &nodes[id]
	chosen := inherited
	if isRoot || !s.contains(inherited) {
		chosen = pick(s)
		if chosen != inherited && chosen != ip.NoRoute {
			p, err := ip.PrefixFrom(ip.Addr(addr), depth)
			if err == nil {
				*out = append(*out, ip.Route{Prefix: p, NextHop: chosen})
			}
		}
	}
	if n.IsLeaf() {
		return
	}
	for b := 0; b < 2; b++ {
		childAddr := addr
		if b == 1 && depth < 32 {
			childAddr |= 1 << (31 - uint(depth))
		}
		emit(nodes, n.Child[b], sets, childAddr, depth+1, chosen, false, out)
	}
}

// pick returns the preferred candidate. NoRoute is preferred whenever it is
// in the set: choosing a real next hop above a drop region would later need
// an inexpressible "remove the route here" entry, whereas choosing NoRoute
// only ever requires adding routes below. (Every ancestor of a drop region
// provably carries NoRoute in its candidate set, so this preference keeps
// the classic ORTC equivalence with plain prefix tables.) Among real next
// hops the smallest wins, for determinism.
func pick(s nhSet) ip.NextHop {
	if s.contains(ip.NoRoute) {
		return ip.NoRoute
	}
	best := s[0]
	for _, x := range s[1:] {
		if x < best {
			best = x
		}
	}
	return best
}
