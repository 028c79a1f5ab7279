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

// posBits is the width of a route's input position in NewTable's sort word,
// below its address (32 bits) and length (6 bits).
const posBits = 26

// NewTable returns the table that Add would build from routes, one after
// another: host bits are cleared, a route whose length is outside [0,32] is
// left out, and of two routes for one prefix the later wins. It sorts the
// routes once, each packed into a word of address, length and input
// position, fills the per-length arrays from the sorted words in order and
// sweeps the same words into the range index, so the table it returns is
// indexed. It takes at most 1<<26 routes.
func NewTable(routes []Route) *Table {
	if len(routes) > 1<<posBits {
		panic(fmt.Sprintf("ip: NewTable of %d routes, more than 1<<%d", len(routes), posBits))
	}
	var count [33]int
	words := make([]uint64, 0, len(routes))
	for i, r := range routes {
		if l := r.Prefix.Len; l >= 0 && l <= 32 {
			count[l]++
			words = append(words, uint64(r.Prefix.Addr&Mask(l))<<32|uint64(l)<<posBits|uint64(i))
		}
	}
	slices.Sort(words)
	// Each length's arrays are a run of one array apiece, capped so that an
	// Add to one length moves it out instead of overwriting the next.
	t := &Table{}
	keys, hops := make([]Addr, len(words)), make([]NextHop, len(words))
	off := 0
	for l, c := range count {
		t.keys[l], t.hops[l] = keys[off:off:off+c], hops[off:off:off+c]
		off += c
	}
	// Of the words for one prefix, adjacent and in input order, the last is
	// the route that stands. It is kept, rewritten in place as the sweep's
	// word: n never passes i, so no word is rewritten before it is read.
	n := 0
	for i, w := range words {
		if i+1 < len(words) && words[i+1]>>posBits == w>>posBits {
			continue
		}
		key, l, hop := Addr(w>>32), int(w>>posBits&63), routes[w&(1<<posBits-1)].NextHop
		t.keys[l], t.hops[l] = append(t.keys[l], key), append(t.hops[l], hop)
		words[n] = rangeWord(key, l, hop)
		n++
	}
	t.index.Store(sweep(words[:n]))
	return t
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
// one published. It is a call of its own, so that ranges inlines.
func (t *Table) build() *rangeIndex {
	t.index.CompareAndSwap(nil, t.buildRanges())
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

// buildRanges derives the range index from the per-length arrays, as they
// stand after an edit: one sweep word per route, sorted.
func (t *Table) buildRanges() *rangeIndex {
	words := make([]uint64, 0, t.Len())
	for l := range t.keys {
		for i, k := range t.keys[l] {
			words = append(words, rangeWord(k, l, t.hops[l][i]))
		}
	}
	slices.Sort(words)
	return sweep(words)
}

// rangeWord packs a route as sweep reads it: start address above length
// above next hop, so that sorted words visit prefixes by start address and,
// at one address, outermost first.
func rangeWord(key Addr, l int, hop NextHop) uint64 {
	return uint64(key)<<32 | uint64(l)<<16 | uint64(hop)
}

// sweep builds the range index from sorted rangeWords, one per prefix. It
// keeps the prefixes covering the current address on a stack (nested, so at
// most 33 deep): a prefix opens a range with its own next hop where it
// starts, and where it ends the range of the prefix below it on the stack
// (or of no route) resumes.
func sweep(words []uint64) *rangeIndex {
	x := &rangeIndex{starts: make([]Addr, 1, 2*len(words)+1), hops: make([]NextHop, 1, 2*len(words)+1)}
	var open [33]struct {
		end uint64 // one past the prefix's last address; 1<<32 at the top
		hop NextHop
	}
	depth := 0
	for i := 0; ; i++ {
		start := uint64(1) << 32 // past the last route every open prefix ends
		if i < len(words) {
			start = words[i] >> 32
		}
		for depth > 0 && open[depth-1].end <= start {
			depth--
			outer := NoRoute
			if depth > 0 {
				outer = open[depth-1].hop
			}
			x.cut(open[depth].end, outer)
		}
		if i == len(words) {
			return x
		}
		l, hop := uint(words[i]>>16)&0xFFFF, NextHop(words[i])
		open[depth].end, open[depth].hop = start+1<<(32-l), hop
		depth++
		x.cut(start, hop)
	}
}

// cut makes hop the answer from address at upward. A cut at the address of
// the previous one replaces it (a longer prefix starting where a shorter one
// does, or two prefixes ending together); one that changes nothing, or lies
// past the top of the address space, is dropped — so neighbouring ranges
// always differ and the index is the coarsest partition there is.
func (x *rangeIndex) cut(at uint64, hop NextHop) {
	last := len(x.starts) - 1
	switch {
	case at > uint64(^Addr(0)):
	case uint64(x.starts[last]) != at:
		if x.hops[last] != hop {
			x.starts, x.hops = append(x.starts, Addr(at)), append(x.hops, hop)
		}
	case last > 0 && x.hops[last-1] == hop:
		x.starts, x.hops = x.starts[:last], x.hops[:last]
	default:
		x.hops[last] = hop
	}
}
