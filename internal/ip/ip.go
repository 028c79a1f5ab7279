// Package ip implements IPv4 addresses, CIDR prefixes and the reference
// longest-prefix-match used throughout the virtual-router reproduction.
//
// The package is deliberately self-contained (no net dependency) so that the
// trie, merge and pipeline packages can treat prefixes as plain value types:
// an Addr is a uint32 in host order, a Prefix is an Addr plus a length.
//
// It also imports nothing from this module: Table, the reference LPM, is the
// oracle the lookup structures are checked against, so it must not share code
// with any of them.
package ip

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
)

// Addr is an IPv4 address in host byte order. The zero value is 0.0.0.0.
type Addr uint32

// AddrFrom4 builds an Addr from four dotted-quad octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Octets returns the four dotted-quad octets of a.
func (a Addr) Octets() (o0, o1, o2, o3 byte) {
	return byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)
}

// Bit returns the i-th most significant bit of a (i in [0,31]); bit 0 is the
// top bit, matching the order in which a uni-bit trie consumes address bits.
func (a Addr) Bit(i int) int {
	return int(a>>(31-uint(i))) & 1
}

// String renders a in dotted-quad form.
func (a Addr) String() string {
	o0, o1, o2, o3 := a.Octets()
	return fmt.Sprintf("%d.%d.%d.%d", o0, o1, o2, o3)
}

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("ip: %q is not a dotted-quad address", s)
	}
	var a uint32
	for _, p := range parts {
		v, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("ip: bad octet %q in %q", p, s)
		}
		a = a<<8 | uint32(v)
	}
	return Addr(a), nil
}

// Prefix is an IPv4 CIDR prefix. Bits beyond Len are kept zero by the
// constructors; a Prefix built directly must respect that invariant.
type Prefix struct {
	Addr Addr
	Len  int // 0..32
}

// ErrPrefixLen reports an out-of-range prefix length.
var ErrPrefixLen = errors.New("ip: prefix length out of range [0,32]")

// PrefixFrom masks addr down to length bits and returns the canonical prefix.
func PrefixFrom(addr Addr, length int) (Prefix, error) {
	if length < 0 || length > 32 {
		return Prefix{}, ErrPrefixLen
	}
	return Prefix{Addr: addr & Mask(length), Len: length}, nil
}

// MustPrefix is PrefixFrom for statically known-good inputs; it panics on error.
func MustPrefix(addr Addr, length int) Prefix {
	p, err := PrefixFrom(addr, length)
	if err != nil {
		panic(err)
	}
	return p
}

// Mask returns the network mask with the top length bits set.
func Mask(length int) Addr {
	if length <= 0 {
		return 0
	}
	if length >= 32 {
		return ^Addr(0)
	}
	return ^Addr(0) << (32 - uint(length))
}

// Contains reports whether addr falls inside prefix p.
func (p Prefix) Contains(addr Addr) bool {
	return addr&Mask(p.Len) == p.Addr
}

// Overlaps reports whether p and q share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	if p.Len < q.Len {
		return p.Contains(q.Addr)
	}
	return q.Contains(p.Addr)
}

// Bit returns the i-th most significant bit of the prefix address.
func (p Prefix) Bit(i int) int { return p.Addr.Bit(i) }

// String renders p in CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Addr, p.Len)
}

// ParsePrefix parses CIDR notation ("10.0.0.0/8"). The address part is
// canonicalised (host bits cleared).
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("ip: %q is not CIDR notation", s)
	}
	addr, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	length, err := strconv.Atoi(s[slash+1:])
	if err != nil {
		return Prefix{}, fmt.Errorf("ip: bad prefix length in %q", s)
	}
	return PrefixFrom(addr, length)
}

// Compare orders prefixes by address then by length, suitable for sort.Slice.
func Compare(a, b Prefix) int {
	switch {
	case a.Addr < b.Addr:
		return -1
	case a.Addr > b.Addr:
		return 1
	case a.Len < b.Len:
		return -1
	case a.Len > b.Len:
		return 1
	}
	return 0
}

// NextHop identifies an output port / next-hop entry. The zero value means
// "no route". Widths follow the paper's NHI (next-hop information) usage: a
// small integer stored at trie leaves.
type NextHop uint16

// NoRoute is the NextHop returned when no prefix covers an address.
const NoRoute NextHop = 0

// Route pairs a prefix with its next hop.
type Route struct {
	Prefix  Prefix
	NextHop NextHop
}

// Table is the reference longest-prefix-match structure, the oracle every
// trie, merge and pipeline lookup in the repository is checked against. The
// routes are held by prefix length: for each length 0..32 a sorted array of
// network addresses and a parallel array of their next hops, which NewTable
// loads and Add and Remove edit. Lookup and LookupAll read a form derived
// from them: the address space cut into disjoint ranges, each with the next
// hop of its longest match, so a lookup is one binary search whatever the
// number of populated lengths. NewTable builds it with the table; after an
// edit, the first lookup rebuilds it.
//
// Independence rule: the oracle shares no code with the structures it checks
// (package ip imports nothing from this module; there is no trie here), and
// the linear scan it replaced is kept in the package tests as the
// oracle's own oracle.
//
// The zero Table is empty and ready to use. Any number of goroutines may call
// Lookup and LookupAll concurrently once Add/Remove have stopped: of several
// first callers each builds the (equal) range index and one copy is kept.
type Table struct {
	keys [33][]Addr    // keys[l]: sorted network addresses of the /l routes
	hops [33][]NextHop // hops[l][i]: next hop of keys[l][i]
	// index is the range form of keys/hops; Add and Remove drop it.
	index atomic.Pointer[rangeIndex]
}

// rangeIndex is a table flattened into disjoint address ranges: range i is
// [starts[i], starts[i+1]) — the last one runs to the top of the address
// space — and hops[i] is the longest match of every address in it (NoRoute
// where no prefix covers). starts[0] is 0, so every address has a range.
type rangeIndex struct {
	starts []Addr
	hops   []NextHop
}

// NewTable returns the table that Add would build from routes, one after
// another: host bits are cleared, a route whose length is outside [0,32] is
// left out, and of two routes for one prefix the later wins. Routes in
// canonical order — sorted by Compare, no prefix twice, no host bits, every
// length in range, as every generated and churned table is — are read as
// they stand; any others are first copied into that order (canonical). One
// pass over the canonical routes fills the per-length arrays and the range
// index together, so the table it returns is indexed.
func NewTable(routes []Route) *Table {
	count, ok := census(routes)
	if !ok {
		routes = canonical(routes)
		count, _ = census(routes)
	}
	// Each length's arrays are a run of one array apiece, capped so that an
	// Add to one length moves it out instead of overwriting the next. at[l]
	// is where the next /l route goes.
	t := &Table{}
	keys, hops := make([]Addr, len(routes)), make([]NextHop, len(routes))
	var at [33]int
	for l, off := 0, 0; l <= 32; l++ {
		at[l] = off
		off += count[l]
	}
	// The range index, swept in the same pass. Canonical order visits
	// prefixes by start address and, at one address, outermost first; the
	// prefixes covering the current address are kept on a stack (nested, so
	// at most 33 deep): a prefix opens a range with its own next hop where it
	// starts, and where it ends the range of the prefix below it on the stack
	// (or of no route) resumes.
	starts, answers := make([]Addr, 1, 2*len(routes)+1), make([]NextHop, 1, 2*len(routes)+1)
	var open [33]struct {
		end uint64 // one past the prefix's last address; 1<<32 at the top
		hop NextHop
	}
	depth := 0
	for i := 0; ; i++ {
		start := uint64(1) << 32 // past the last route every open prefix ends
		if i < len(routes) {
			start = uint64(routes[i].Prefix.Addr)
		}
		for depth > 0 && open[depth-1].end <= start {
			depth--
			outer := NoRoute
			if depth > 0 {
				outer = open[depth-1].hop
			}
			starts, answers = cut(starts, answers, open[depth].end, outer)
		}
		if i == len(routes) {
			break
		}
		l, hop := routes[i].Prefix.Len, routes[i].NextHop
		keys[at[l]], hops[at[l]] = Addr(start), hop
		at[l]++
		open[depth].end, open[depth].hop = start+1<<(32-l), hop
		depth++
		starts, answers = cut(starts, answers, start, hop)
	}
	for l, off := 0, 0; l <= 32; l++ {
		t.keys[l], t.hops[l] = keys[off:at[l]:at[l]], hops[off:at[l]:at[l]]
		off = at[l]
	}
	t.index.Store(&rangeIndex{starts: starts, hops: answers})
	return t
}

// census counts routes by length and reports whether they are in canonical
// order (see NewTable). The counts are whole only when they are.
func census(routes []Route) (count [33]int, ok bool) {
	prev := uint64(0)
	for i, r := range routes {
		l := r.Prefix.Len
		if l < 0 || l > 32 || r.Prefix.Addr&^Mask(l) != 0 {
			return count, false
		}
		key := uint64(r.Prefix.Addr)<<6 | uint64(l)
		if i > 0 && key <= prev {
			return count, false
		}
		prev = key
		count[l]++
	}
	return count, true
}

// posBits is the width of a route's input position in canonical's sort word,
// below its address (32 bits) and length (6 bits).
const posBits = 26

// canonical returns routes in canonical order as Add would leave them: host
// bits cleared, lengths outside [0,32] left out, and of the routes for one
// prefix the later kept. It sorts the routes once, each packed into a word
// of address, length and input position, and takes at most 1<<26 routes.
func canonical(routes []Route) []Route {
	if len(routes) > 1<<posBits {
		panic(fmt.Sprintf("ip: NewTable of %d unordered routes, more than 1<<%d", len(routes), posBits))
	}
	words := make([]uint64, 0, len(routes))
	for i, r := range routes {
		if l := r.Prefix.Len; l >= 0 && l <= 32 {
			words = append(words, uint64(r.Prefix.Addr&Mask(l))<<32|uint64(l)<<posBits|uint64(i))
		}
	}
	slices.Sort(words)
	// Of the words for one prefix, adjacent and in input order, the last is
	// the route that stands.
	out := make([]Route, 0, len(words))
	for i, w := range words {
		if i+1 < len(words) && words[i+1]>>posBits == w>>posBits {
			continue
		}
		p := Prefix{Addr: Addr(w >> 32), Len: int(w >> posBits & 63)}
		out = append(out, Route{Prefix: p, NextHop: routes[w&(1<<posBits-1)].NextHop})
	}
	return out
}

// Add inserts or replaces the route for r.Prefix. Host bits beyond the prefix
// length are cleared first; a length outside [0,32] is refused with
// ErrPrefixLen and leaves the table unchanged.
func (t *Table) Add(r Route) error {
	l := r.Prefix.Len
	if l < 0 || l > 32 {
		return ErrPrefixLen
	}
	key := r.Prefix.Addr & Mask(l)
	t.dropIndex()
	if i, found := slices.BinarySearch(t.keys[l], key); found {
		t.hops[l][i] = r.NextHop
	} else {
		t.keys[l] = slices.Insert(t.keys[l], i, key)
		t.hops[l] = slices.Insert(t.hops[l], i, r.NextHop)
	}
	return nil
}

// Remove deletes the route for p (canonicalised as in Add), reporting whether
// it was present. A length outside [0,32] is never present.
func (t *Table) Remove(p Prefix) bool {
	l := p.Len
	if l < 0 || l > 32 {
		return false
	}
	i, found := slices.BinarySearch(t.keys[l], p.Addr&Mask(l))
	if !found {
		return false
	}
	t.dropIndex()
	t.keys[l] = slices.Delete(t.keys[l], i, i+1)
	t.hops[l] = slices.Delete(t.hops[l], i, i+1)
	return true
}

// dropIndex discards the range index before an edit. (The test first: a
// table edited by many Adds in a row has no index to drop after the first,
// and an atomic store costs more than the rest of an append-at-the-end Add.)
func (t *Table) dropIndex() {
	if t.index.Load() != nil {
		t.index.Store(nil)
	}
}

// Len returns the number of routes.
func (t *Table) Len() int {
	n := 0
	for l := range t.keys {
		n += len(t.keys[l])
	}
	return n
}

// Lookup performs longest-prefix match: one binary search for the range
// holding addr, over the range index NewTable built (or else the first call
// after an edit builds). Of several first callers racing, each may build an
// (equal) index, and all read the one published first.
func (t *Table) Lookup(addr Addr) NextHop {
	x := t.ranges()
	// starts[lo] <= addr throughout, and addr < starts[lo+n] where that exists.
	lo, n := 0, len(x.starts)
	for n > 1 {
		half := n >> 1
		lo = x.probe(lo, half, addr)
		n -= half
	}
	return x.hops[lo]
}

// lanes is how many searches LookupAll runs at once; its loop is written out
// for eight.
const lanes = 8

// LookupAll writes Lookup(addrs[i]) to out[i] for every i; out must be at
// least as long as addrs. It searches lanes addresses at a time: on one
// table every search takes the same steps with the same halves, so their
// probe chains run side by side, each lane's load independent of the others'
// and overlapping them, where Lookup waits out one chain load by load. The
// tail of fewer than lanes addresses goes through Lookup.
func (t *Table) LookupAll(addrs []Addr, out []NextHop) {
	out = out[:len(addrs)]
	x := t.ranges()
	i := 0
	for ; i+lanes <= len(addrs); i += lanes {
		a := addrs[i : i+lanes : i+lanes]
		var l0, l1, l2, l3, l4, l5, l6, l7 int
		for n := len(x.starts); n > 1; {
			half := n >> 1
			l0 = x.probe(l0, half, a[0])
			l1 = x.probe(l1, half, a[1])
			l2 = x.probe(l2, half, a[2])
			l3 = x.probe(l3, half, a[3])
			l4 = x.probe(l4, half, a[4])
			l5 = x.probe(l5, half, a[5])
			l6 = x.probe(l6, half, a[6])
			l7 = x.probe(l7, half, a[7])
			n -= half
		}
		o := out[i : i+lanes : i+lanes]
		o[0], o[1], o[2], o[3] = x.hops[l0], x.hops[l1], x.hops[l2], x.hops[l3]
		o[4], o[5], o[6], o[7] = x.hops[l4], x.hops[l5], x.hops[l6], x.hops[l7]
	}
	for ; i < len(addrs); i++ {
		out[i] = t.Lookup(addrs[i])
	}
}

// ranges returns the range index, building it first if an edit dropped it.
func (t *Table) ranges() *rangeIndex {
	if x := t.index.Load(); x != nil {
		return x
	}
	return t.build()
}

// build publishes a range index unless a racing caller has, and returns the
// one published. It is a call of its own, so that ranges inlines. The index
// is NewTable's, built from the routes as the per-length arrays hold them
// after an edit (by length, so the build takes its sorting copy).
func (t *Table) build() *rangeIndex {
	routes := make([]Route, 0, t.Len())
	for l := range t.keys {
		for i, k := range t.keys[l] {
			routes = append(routes, Route{Prefix{Addr: k, Len: l}, t.hops[l][i]})
		}
	}
	t.index.CompareAndSwap(nil, NewTable(routes).index.Load())
	return t.index.Load()
}

// probe is one step of the range search: lo+half if starts[lo+half] <= addr,
// else lo. The step is taken by arithmetic: the difference of the two
// addresses, widened so it cannot wrap, is negative exactly when the probe
// lies above addr, and its sign, shifted across the word, masks the half out.
// A compare-and-branch here is a coin flip per probe to the branch
// predictor; the search has no data-dependent branch.
func (x *rangeIndex) probe(lo, half int, addr Addr) int {
	return lo + half&^int((int64(addr)-int64(x.starts[lo+half]))>>63)
}

// cut makes hop the answer from address at upward in the range index being
// built (starts, hops), and returns the index. A cut at the address of the
// previous one replaces it (a longer prefix starting where a shorter one
// does, or two prefixes ending together); one that changes nothing, or lies
// past the top of the address space, is dropped — so neighbouring ranges
// always differ and the index is the coarsest partition there is.
func cut(starts []Addr, hops []NextHop, at uint64, hop NextHop) ([]Addr, []NextHop) {
	last := len(starts) - 1
	switch {
	case at > uint64(^Addr(0)):
	case uint64(starts[last]) != at:
		if hops[last] != hop {
			starts, hops = append(starts, Addr(at)), append(hops, hop)
		}
	case last > 0 && hops[last-1] == hop:
		starts, hops = starts[:last], hops[:last]
	default:
		hops[last] = hop
	}
	return starts, hops
}
