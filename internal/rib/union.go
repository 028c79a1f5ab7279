package rib

import (
	"math/bits"

	"vrpower/internal/ip"
)

// Union walks K tables, each in prefix order with no prefix twice, together
// in prefix order, a prefix one of them holds a step. Next moves to Q, the
// least such prefix past Last (the root's /0 before the first), and Shared is
// the deepest level Q shares with Last: where a trie walk for Q leaves Last's
// path, as trie.IDPath.Resume gives it.
type Union struct {
	Q, Last ip.Prefix
	Shared  int
	tables  []*Table
	at      []int    // per table, its route at Q or its next one
	end     []int    // per table, where its routes end (nil: at its last)
	keys    []uint64 // per table, Key of that route, noKey past its last
	key     uint64   // Q's
}

const noKey = ^uint64(0)

// Key packs a prefix of length at most 32 into one word that orders as
// ip.Compare does: address, then length.
func Key(p ip.Prefix) uint64 { return uint64(p.Addr)<<8 | uint64(uint8(p.Len)) }

// NewUnion starts a walk of tables that keeps its cursors in at and keys,
// empty slices with room for one entry a table: the caller's stack arrays
// keep a walk off the heap.
func NewUnion(tables []*Table, at []int, keys []uint64) Union {
	for range tables {
		at, keys = append(at, -1), append(keys, noKey)
	}
	return Union{tables: tables, at: at, keys: keys, key: noKey}
}

// Within narrows a walk that has not started to routes lo[vn] up to
// hi[vn] of each table vn, the slices kept, and starts it at from, which
// orders before them all: the first Next's Last is from. Narrowed to the
// routes under a prefix, the walk is the union of a subtree.
func (u *Union) Within(lo, hi []int, from ip.Prefix) {
	for vn := range u.at {
		u.at[vn] = lo[vn] - 1
	}
	u.end, u.Q = hi, from
}

// Next moves every table holding Q past it (the first call, every table to
// its first route) and reports whether a prefix is left. Q and Last stay
// when none is.
func (u *Union) Next() bool {
	last := u.key
	u.key = noKey
	for vn := range u.keys {
		if u.keys[vn] == last {
			u.keys[vn] = noKey
			end := len(u.tables[vn].Routes)
			if u.end != nil {
				end = u.end[vn]
			}
			if u.at[vn]++; u.at[vn] < end {
				u.keys[vn] = Key(u.tables[vn].Routes[u.at[vn]].Prefix)
			}
		}
		u.key = min(u.key, u.keys[vn])
	}
	if u.key == noKey {
		return false
	}
	u.Last, u.Q = u.Q, ip.Prefix{Addr: ip.Addr(u.key >> 8), Len: int(u.key & 0xFF)}
	u.Shared = min(bits.LeadingZeros32(uint32(u.Q.Addr^u.Last.Addr)), u.Q.Len, u.Last.Len)
	return true
}

// NextHop returns table vn's next hop at Q, and whether it holds Q.
func (u *Union) NextHop(vn int) (ip.NextHop, bool) {
	if u.keys[vn] != u.key {
		return ip.NoRoute, false
	}
	return u.tables[vn].Routes[u.at[vn]].NextHop, true
}
