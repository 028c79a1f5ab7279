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
// trie, merge and pipeline lookup in the repository is checked against. It is
// indexed by prefix length: for each length 0..32 a sorted array of network
// addresses and a parallel array of their next hops. Lookup walks the
// lengths longest-first and binary-searches addr&Mask(length) in each, so the
// first hit is the longest match.
//
// Independence rule: the oracle shares no code with the structures it checks
// (package ip imports nothing from this module; there is no trie here), and
// the linear scan it replaced is kept in the package tests as the
// oracle's own oracle.
//
// The zero Table is empty and ready to use. Lookup only reads, so any number
// of goroutines may call it concurrently once Add/Remove have stopped.
type Table struct {
	keys [33][]Addr    // keys[l]: sorted network addresses of the /l routes
	hops [33][]NextHop // hops[l][i]: next hop of keys[l][i]
}

// search returns the position of key in the sorted keys, or where it would be
// inserted, and whether it is there. (Written out rather than
// slices.BinarySearch: Lookup runs it 33 times per packet, and the plain
// loop measured about a fifth faster on BenchmarkReferenceLookup.)
func search(keys []Addr, key Addr) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(keys) && keys[lo] == key
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
	i, found := search(t.keys[l], key)
	if found {
		t.hops[l][i] = r.NextHop
		return nil
	}
	t.keys[l] = slices.Insert(t.keys[l], i, key)
	t.hops[l] = slices.Insert(t.hops[l], i, r.NextHop)
	return nil
}

// Remove deletes the route for p (canonicalised as in Add), reporting whether
// it was present. A length outside [0,32] is never present.
func (t *Table) Remove(p Prefix) bool {
	l := p.Len
	if l < 0 || l > 32 {
		return false
	}
	i, found := search(t.keys[l], p.Addr&Mask(l))
	if !found {
		return false
	}
	t.keys[l] = slices.Delete(t.keys[l], i, i+1)
	t.hops[l] = slices.Delete(t.hops[l], i, i+1)
	return true
}

// Len returns the number of routes.
func (t *Table) Len() int {
	n := 0
	for l := range t.keys {
		n += len(t.keys[l])
	}
	return n
}

// Lookup performs longest-prefix match: one binary search per prefix length,
// longest first (an unpopulated length is an empty search).
func (t *Table) Lookup(addr Addr) NextHop {
	for l := 32; l >= 0; l-- {
		if i, found := search(t.keys[l], addr&Mask(l)); found {
			return t.hops[l][i]
		}
	}
	return NoRoute
}
