package ip

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestAddrFrom4AndOctets(t *testing.T) {
	a := AddrFrom4(192, 168, 1, 200)
	if got, want := uint32(a), uint32(0xC0A801C8); got != want {
		t.Fatalf("AddrFrom4 = %#x, want %#x", got, want)
	}
	o0, o1, o2, o3 := a.Octets()
	if o0 != 192 || o1 != 168 || o2 != 1 || o3 != 200 {
		t.Fatalf("Octets = %d.%d.%d.%d, want 192.168.1.200", o0, o1, o2, o3)
	}
}

func TestAddrBit(t *testing.T) {
	a := AddrFrom4(0x80, 0, 0, 1) // top bit and bottom bit set
	if a.Bit(0) != 1 {
		t.Errorf("Bit(0) = %d, want 1", a.Bit(0))
	}
	if a.Bit(1) != 0 {
		t.Errorf("Bit(1) = %d, want 0", a.Bit(1))
	}
	if a.Bit(31) != 1 {
		t.Errorf("Bit(31) = %d, want 1", a.Bit(31))
	}
}

func TestParseAddrRoundTrip(t *testing.T) {
	for _, s := range []string{"0.0.0.0", "255.255.255.255", "10.1.2.3", "192.0.2.1"} {
		a, err := ParseAddr(s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", s, err)
		}
		if a.String() != s {
			t.Errorf("round trip %q -> %q", s, a.String())
		}
	}
}

func TestParseAddrErrors(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3"} {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) succeeded, want error", s)
		}
	}
}

func TestMask(t *testing.T) {
	cases := []struct {
		len  int
		want Addr
	}{
		{0, 0},
		{1, 0x80000000},
		{8, 0xFF000000},
		{24, 0xFFFFFF00},
		{32, 0xFFFFFFFF},
	}
	for _, c := range cases {
		if got := Mask(c.len); got != c.want {
			t.Errorf("Mask(%d) = %#x, want %#x", c.len, got, c.want)
		}
	}
}

func TestPrefixFromCanonicalises(t *testing.T) {
	p, err := PrefixFrom(AddrFrom4(10, 1, 2, 3), 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.Addr != AddrFrom4(10, 0, 0, 0) {
		t.Errorf("PrefixFrom did not clear host bits: %s", p)
	}
	if _, err := PrefixFrom(0, 33); err == nil {
		t.Error("PrefixFrom(len=33) succeeded, want error")
	}
	if _, err := PrefixFrom(0, -1); err == nil {
		t.Error("PrefixFrom(len=-1) succeeded, want error")
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustPrefix(AddrFrom4(10, 0, 0, 0), 8)
	if !p.Contains(AddrFrom4(10, 255, 0, 1)) {
		t.Error("10/8 should contain 10.255.0.1")
	}
	if p.Contains(AddrFrom4(11, 0, 0, 1)) {
		t.Error("10/8 should not contain 11.0.0.1")
	}
	def := MustPrefix(0, 0)
	if !def.Contains(AddrFrom4(1, 2, 3, 4)) {
		t.Error("default route should contain everything")
	}
}

func TestPrefixOverlaps(t *testing.T) {
	a := MustPrefix(AddrFrom4(10, 0, 0, 0), 8)
	b := MustPrefix(AddrFrom4(10, 1, 0, 0), 16)
	c := MustPrefix(AddrFrom4(11, 0, 0, 0), 8)
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("10/8 and 10.1/16 should overlap (both directions)")
	}
	if a.Overlaps(c) {
		t.Error("10/8 and 11/8 should not overlap")
	}
}

func TestParsePrefix(t *testing.T) {
	p, err := ParsePrefix("192.168.0.0/16")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "192.168.0.0/16" {
		t.Errorf("got %s", p)
	}
	for _, s := range []string{"192.168.0.0", "1.2.3.4/33", "1.2.3.4/x", "bad/8"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded, want error", s)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	ps := []Prefix{
		MustPrefix(AddrFrom4(10, 0, 0, 0), 16),
		MustPrefix(AddrFrom4(10, 0, 0, 0), 8),
		MustPrefix(AddrFrom4(9, 0, 0, 0), 8),
	}
	sort.Slice(ps, func(i, j int) bool { return Compare(ps[i], ps[j]) < 0 })
	want := []string{"9.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16"}
	for i, w := range want {
		if ps[i].String() != w {
			t.Errorf("sorted[%d] = %s, want %s", i, ps[i], w)
		}
	}
	if Compare(ps[0], ps[0]) != 0 {
		t.Error("Compare(p,p) != 0")
	}
}

func TestTableAddRemoveLookup(t *testing.T) {
	var tbl Table
	tbl.Add(Route{MustPrefix(AddrFrom4(10, 0, 0, 0), 8), 1})
	tbl.Add(Route{MustPrefix(AddrFrom4(10, 1, 0, 0), 16), 2})
	tbl.Add(Route{MustPrefix(AddrFrom4(10, 1, 0, 0), 16), 3}) // replace
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tbl.Len())
	}
	if nh := tbl.Lookup(AddrFrom4(10, 1, 2, 3)); nh != 3 {
		t.Errorf("Lookup longest match = %d, want 3", nh)
	}
	if nh := tbl.Lookup(AddrFrom4(10, 2, 2, 3)); nh != 1 {
		t.Errorf("Lookup shorter match = %d, want 1", nh)
	}
	if nh := tbl.Lookup(AddrFrom4(12, 0, 0, 1)); nh != NoRoute {
		t.Errorf("Lookup miss = %d, want NoRoute", nh)
	}
	if !tbl.Remove(MustPrefix(AddrFrom4(10, 1, 0, 0), 16)) {
		t.Error("Remove existing route returned false")
	}
	if tbl.Remove(MustPrefix(AddrFrom4(10, 1, 0, 0), 16)) {
		t.Error("Remove absent route returned true")
	}
	if nh := tbl.Lookup(AddrFrom4(10, 1, 2, 3)); nh != 1 {
		t.Errorf("Lookup after remove = %d, want 1", nh)
	}
}

// Property: masking is idempotent and Contains agrees with bit comparison.
func TestPrefixContainsProperty(t *testing.T) {
	f := func(addr uint32, probe uint32, lenSeed uint8) bool {
		length := int(lenSeed) % 33
		p := MustPrefix(Addr(addr), length)
		q := MustPrefix(p.Addr, length)
		if p != q {
			return false // canonicalisation must be idempotent
		}
		want := true
		for i := 0; i < length; i++ {
			if Addr(probe).Bit(i) != p.Bit(i) {
				want = false
				break
			}
		}
		return p.Contains(Addr(probe)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Lookup returns the longest matching prefix among the routes.
func TestTableLookupProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		var tbl Table
		type entry struct {
			p  Prefix
			nh NextHop
		}
		var entries []entry
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			p := MustPrefix(Addr(rng.Uint32()), rng.Intn(33))
			nh := NextHop(1 + rng.Intn(100))
			tbl.Add(Route{p, nh})
			replaced := false
			for j := range entries {
				if entries[j].p == p {
					entries[j].nh = nh
					replaced = true
				}
			}
			if !replaced {
				entries = append(entries, entry{p, nh})
			}
		}
		addr := Addr(rng.Uint32())
		want, wantLen := NoRoute, -1
		for _, e := range entries {
			if e.p.Len > wantLen && e.p.Contains(addr) {
				want, wantLen = e.nh, e.p.Len
			}
		}
		if got := tbl.Lookup(addr); got != want {
			t.Fatalf("iter %d: Lookup(%s) = %d, want %d", iter, addr, got, want)
		}
	}
}

// scanLookup is longest-prefix match by exhaustive scan over a route list —
// what Table.Lookup was before Table was indexed by prefix length. It stays
// here as the oracle's own oracle: Table is differentially tested against it.
func scanLookup(routes []Route, addr Addr) NextHop {
	best, bestLen := NoRoute, -1
	for _, r := range routes {
		if r.Prefix.Len > bestLen && r.Prefix.Contains(addr) {
			best, bestLen = r.NextHop, r.Prefix.Len
		}
	}
	return best
}

// scanModel is the route list scanLookup searches, with Table's Add/Remove
// contract (canonicalise, refuse out-of-range lengths) done the slow way.
// Its methods are exported for the external test package (export_test.go).
type scanModel []Route

func (m *scanModel) Add(r Route) error {
	p, err := PrefixFrom(r.Prefix.Addr, r.Prefix.Len)
	if err != nil {
		return err
	}
	for i := range *m {
		if (*m)[i].Prefix == p {
			(*m)[i].NextHop = r.NextHop
			return nil
		}
	}
	*m = append(*m, Route{p, r.NextHop})
	return nil
}

func (m *scanModel) Remove(p Prefix) bool {
	p, err := PrefixFrom(p.Addr, p.Len)
	if err != nil {
		return false
	}
	for i := range *m {
		if (*m)[i].Prefix == p {
			*m = append((*m)[:i], (*m)[i+1:]...)
			return true
		}
	}
	return false
}

// checkAgainstScan compares tbl with the model on the addresses where an
// edit of p can show: inside p (first and last), one below and one above it
// (wrapping at the ends of the address space), and the extra probes.
func checkAgainstScan(t *testing.T, tbl *Table, m scanModel, p Prefix, extra ...Addr) {
	t.Helper()
	if tbl.Len() != len(m) {
		t.Fatalf("Len = %d, scan model holds %d", tbl.Len(), len(m))
	}
	first := p.Addr & Mask(p.Len)
	last := first | ^Mask(p.Len)
	for _, a := range append([]Addr{first, last, first - 1, last + 1}, extra...) {
		if got, want := tbl.Lookup(a), scanLookup(m, a); got != want {
			t.Fatalf("after editing %s: Lookup(%s) = %d, scan says %d", p, a, got, want)
		}
	}
}

// Random Add / replace / Remove sequences over nested and disjoint prefixes;
// after every step Table must agree with scanLookup on covered,
// boundary ±1 and uncovered addresses.
func TestTableMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 60; iter++ {
		// A few anchors make ladders (same address, many lengths) and
		// siblings; fresh random addresses make disjoint prefixes.
		anchors := make([]Addr, 1+rng.Intn(4))
		for i := range anchors {
			anchors[i] = Addr(rng.Uint32())
		}
		draw := func() Prefix {
			addr := Addr(rng.Uint32())
			if rng.Intn(3) > 0 {
				addr = anchors[rng.Intn(len(anchors))] ^ Addr(rng.Intn(4))<<uint(rng.Intn(31))
			}
			// Built directly, host bits and all: Add must canonicalise.
			return Prefix{Addr: addr, Len: rng.Intn(33)}
		}
		var tbl Table
		var m scanModel
		for step := 0; step < 120; step++ {
			p := draw()
			if op := rng.Intn(10); op < 6 {
				r := Route{p, NextHop(1 + rng.Intn(200))}
				if err := tbl.Add(r); err != nil {
					t.Fatalf("Add(%s): %v", p, err)
				}
				_ = m.Add(r)
			} else {
				if op < 8 && len(m) > 0 {
					p = m[rng.Intn(len(m))].Prefix // remove a route that exists
				}
				if got, want := tbl.Remove(p), m.Remove(p); got != want {
					t.Fatalf("Remove(%s) = %v, scan model says %v", p, got, want)
				}
			}
			checkAgainstScan(t, &tbl, m, p, Addr(rng.Uint32()), anchors[0])
		}
	}
}

// Lookup is read-only: the sweep pool's workers share one Table per virtual
// network. Meaningful under -race.
func TestTableConcurrentLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var tbl Table
	var m scanModel
	for i := 0; i < 300; i++ {
		r := Route{MustPrefix(Addr(rng.Uint32()), 8+rng.Intn(25)), NextHop(1 + i%16)}
		_ = tbl.Add(r)
		_ = m.Add(r)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, r := range m {
				a := r.Prefix.Addr + Addr(i*w)
				if got, want := tbl.Lookup(a), scanLookup(m, a); got != want {
					t.Errorf("worker %d: Lookup(%s) = %d, scan says %d", w, a, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestTableEdgeCases(t *testing.T) {
	def := Prefix{Addr: 0, Len: 0}
	host := Prefix{Addr: AddrFrom4(10, 1, 2, 3), Len: 32}
	ten := Prefix{Addr: AddrFrom4(10, 0, 0, 0), Len: 8}

	t.Run("zero table", func(t *testing.T) {
		var tbl Table
		if nh := tbl.Lookup(AddrFrom4(1, 2, 3, 4)); nh != NoRoute {
			t.Errorf("Lookup on zero Table = %d, want NoRoute", nh)
		}
		if tbl.Remove(def) || tbl.Len() != 0 {
			t.Errorf("zero Table: Remove = true or Len = %d", tbl.Len())
		}
	})

	t.Run("length out of range", func(t *testing.T) {
		var tbl Table
		if err := tbl.Add(Route{ten, 1}); err != nil {
			t.Fatal(err)
		}
		for _, l := range []int{-1, 33, 1 << 20, -1 << 20} {
			bad := Prefix{Addr: AddrFrom4(10, 0, 0, 0), Len: l}
			if err := tbl.Add(Route{bad, 9}); !errors.Is(err, ErrPrefixLen) {
				t.Errorf("Add(len=%d) = %v, want ErrPrefixLen", l, err)
			}
			if tbl.Remove(bad) {
				t.Errorf("Remove(len=%d) = true", l)
			}
		}
		if tbl.Len() != 1 || tbl.Lookup(AddrFrom4(10, 9, 9, 9)) != 1 {
			t.Errorf("refused routes changed the table: Len = %d", tbl.Len())
		}
	})

	t.Run("host bits canonicalised", func(t *testing.T) {
		var tbl Table
		dirty := Prefix{Addr: AddrFrom4(10, 1, 2, 3), Len: 8}
		if err := tbl.Add(Route{dirty, 5}); err != nil {
			t.Fatal(err)
		}
		if nh := tbl.Lookup(AddrFrom4(10, 200, 0, 1)); nh != 5 {
			t.Errorf("Lookup under a route added with host bits = %d, want 5", nh)
		}
		if err := tbl.Add(Route{ten, 6}); err != nil || tbl.Len() != 1 {
			t.Errorf("canonical form did not replace: err %v, Len %d", err, tbl.Len())
		}
		if !tbl.Remove(dirty) || tbl.Len() != 0 {
			t.Errorf("Remove by the uncanonical form failed: Len %d", tbl.Len())
		}
	})

	t.Run("default and host routes", func(t *testing.T) {
		var tbl Table
		for _, r := range []Route{{def, 1}, {host, 2}, {ten, 3}} {
			if err := tbl.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct {
			addr Addr
			want NextHop
		}{
			{0, 1},
			{^Addr(0), 1},
			{AddrFrom4(10, 1, 2, 3), 2},
			{AddrFrom4(10, 1, 2, 2), 3},
			{AddrFrom4(10, 1, 2, 4), 3},
			{AddrFrom4(9, 255, 255, 255), 1},
			{AddrFrom4(11, 0, 0, 0), 1},
		} {
			if got := tbl.Lookup(c.addr); got != c.want {
				t.Errorf("Lookup(%s) = %d, want %d", c.addr, got, c.want)
			}
		}
		if !tbl.Remove(def) {
			t.Error("Remove(/0) = false")
		}
		if got := tbl.Lookup(AddrFrom4(11, 0, 0, 0)); got != NoRoute {
			t.Errorf("Lookup after removing /0 = %d, want NoRoute", got)
		}
	})

	t.Run("replace then remove", func(t *testing.T) {
		var tbl Table
		for _, nh := range []NextHop{1, 2, 3} {
			if err := tbl.Add(Route{host, nh}); err != nil {
				t.Fatal(err)
			}
		}
		if tbl.Len() != 1 || tbl.Lookup(host.Addr) != 3 {
			t.Fatalf("after two replaces: Len %d, Lookup %d, want 1 and 3", tbl.Len(), tbl.Lookup(host.Addr))
		}
		if !tbl.Remove(host) || tbl.Remove(host) {
			t.Error("Remove after replace: want true then false")
		}
		if tbl.Len() != 0 || tbl.Lookup(host.Addr) != NoRoute {
			t.Errorf("after remove: Len %d, Lookup %d", tbl.Len(), tbl.Lookup(host.Addr))
		}
	})
}

// checkRanges compares tbl with the scan on every address where an answer
// can change — the first and last address of every route, one below and one
// above, and both ends of the address space — and checks the shape of the
// range index the lookups were served from.
func checkRanges(t *testing.T, tbl *Table, m scanModel) *rangeIndex {
	t.Helper()
	probes := []Addr{0, ^Addr(0)}
	for _, r := range m {
		first := r.Prefix.Addr
		last := first | ^Mask(r.Prefix.Len)
		probes = append(probes, first, last, first-1, last+1)
	}
	for _, a := range probes {
		if got, want := tbl.Lookup(a), scanLookup(m, a); got != want {
			t.Fatalf("Lookup(%s) = %d, scan says %d", a, got, want)
		}
	}
	x := tbl.index.Load()
	if x == nil {
		t.Fatal("Lookup left no range index behind")
	}
	if len(x.starts) != len(x.hops) || len(x.starts) > 2*len(m)+1 || x.starts[0] != 0 {
		t.Fatalf("index of %d routes: %d starts, %d hops, first start %s", len(m), len(x.starts), len(x.hops), x.starts[0])
	}
	for i := 1; i < len(x.starts); i++ {
		if x.starts[i] <= x.starts[i-1] || x.hops[i] == x.hops[i-1] {
			t.Fatalf("ranges %d and %d: %s -> %d then %s -> %d, want ascending starts and differing hops",
				i-1, i, x.starts[i-1], x.hops[i-1], x.starts[i], x.hops[i])
		}
	}
	return x
}

// The range index on the shapes its sweep has to get right, each against
// the scan after every edit.
func TestRangeIndexCases(t *testing.T) {
	p := func(s string) Prefix {
		pfx, err := ParsePrefix(s)
		if err != nil {
			t.Fatal(err)
		}
		return pfx
	}
	type edit struct {
		remove bool
		prefix string
		hop    NextHop
		ranges int // ranges the index must have after the edit; 0: not checked
	}
	for _, c := range []struct {
		name  string
		edits []edit
	}{
		{"empty table", []edit{
			{true, "10.0.0.0/8", 0, 1}, // removing from nothing: one range, no route
		}},
		{"default route", []edit{
			{false, "0.0.0.0/0", 7, 1},
			{false, "128.0.0.0/1", 8, 2},
			{true, "0.0.0.0/0", 0, 2},
		}},
		{"host route at the top of the address space", []edit{
			{false, "255.255.255.255/32", 3, 2}, // its end, 1<<32, is no range start
			{false, "255.255.255.254/31", 4, 3},
			{false, "0.0.0.0/0", 5, 3},
			{true, "255.255.255.255/32", 0, 2},
		}},
		// Addresses and range starts on both sides of the middle of the
		// address space and at its top: Lookup's probe step is arithmetic on
		// the sign of a widened difference, and a difference taken in 32 bits
		// would slip exactly here.
		{"ranges meeting at the sign bit", []edit{
			{false, "127.255.255.255/32", 1, 3},
			{false, "128.0.0.0/32", 2, 4},
			{false, "128.0.0.0/1", 3, 4},
			{false, "0.0.0.0/1", 4, 4},
			{false, "255.255.255.255/32", 5, 5},
			{true, "127.255.255.255/32", 0, 4},
			{true, "128.0.0.0/32", 0, 3}, // one cut at 0x80000000, one at the top
		}},
		{"nested prefixes sharing a start address", []edit{
			{false, "10.0.0.0/8", 1, 3},
			{false, "10.0.0.0/16", 2, 4},
			{false, "10.0.0.0/24", 3, 5},
			{false, "10.0.0.0/32", 4, 6},
			{false, "0.0.0.0/0", 5, 6},
			{false, "10.0.0.0/12", 2, 0},
		}},
		{"nested prefixes ending together", []edit{
			{false, "10.0.0.0/8", 1, 3},
			{false, "10.255.0.0/16", 2, 4},
			{false, "10.255.255.0/24", 3, 5},
			{false, "10.255.255.255/32", 4, 6},
		}},
		{"adjacent siblings with equal hops", []edit{
			{false, "10.0.0.0/9", 6, 3},
			{false, "10.128.0.0/9", 6, 3}, // one range across both
			{false, "11.0.0.0/8", 6, 3},
			{false, "10.64.0.0/10", 9, 5},
			{false, "10.64.0.0/10", 6, 0}, // replaced: same answer as around it again
		}},
		{"removing a covering prefix and a covered one", []edit{
			{false, "10.0.0.0/8", 1, 0},
			{false, "10.1.0.0/16", 2, 0},
			{false, "10.1.2.0/24", 3, 0},
			{true, "10.0.0.0/8", 0, 5},  // the /16 and /24 stand alone
			{true, "10.1.2.0/24", 0, 3}, // the /16 closes over the hole
			{true, "10.1.0.0/16", 0, 1},
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var tbl Table
			var m scanModel
			checkRanges(t, &tbl, m)
			for _, e := range c.edits {
				edited := true
				if e.remove {
					edited = m.Remove(p(e.prefix))
					if got := tbl.Remove(p(e.prefix)); got != edited {
						t.Fatalf("Remove(%s) = %v, scan model says %v", e.prefix, got, edited)
					}
				} else {
					r := Route{p(e.prefix), e.hop}
					if err := tbl.Add(r); err != nil {
						t.Fatal(err)
					}
					_ = m.Add(r)
				}
				if edited && tbl.index.Load() != nil {
					t.Fatalf("edit of %s left the old range index in place", e.prefix)
				}
				if x := checkRanges(t, &tbl, m); e.ranges != 0 && len(x.starts) != e.ranges {
					t.Fatalf("after %s: %d ranges %v, want %d", e.prefix, len(x.starts), x.starts, e.ranges)
				}
			}
		})
	}
}

// Eight goroutines make the first Lookup of a table at once: each may build
// the range index, one copy is published, and all answer from equal ones.
// Meaningful under -race.
func TestTableFirstLookupRace(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 20; iter++ {
		var tbl Table
		var m scanModel
		for i := 0; i < 200; i++ {
			r := Route{MustPrefix(Addr(rng.Uint32()), 4+rng.Intn(29)), NextHop(1 + i%16)}
			_ = tbl.Add(r)
			_ = m.Add(r)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := w; i < len(m); i += 8 {
					a := m[i].Prefix.Addr | Addr(w)
					if got, want := tbl.Lookup(a), scanLookup(m, a); got != want {
						t.Errorf("worker %d: Lookup(%s) = %d, scan says %d", w, a, got, want)
						return
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		checkRanges(t, &tbl, m)
	}
}

// checkNewTable holds NewTable(routes) to the table Add builds from the same
// routes in input order: the same Len, per-length arrays and range index,
// built by NewTable before any lookup, and the same answer at every range
// start and one below it. Both then take one more Add, which must leave the
// same table: NewTable's per-length arrays share one backing array, and an
// Add to one length must not write into the next.
func checkNewTable(t *testing.T, routes []Route) {
	t.Helper()
	var want Table
	for _, r := range routes {
		_ = want.Add(r)
	}
	got := NewTable(routes)
	x := got.index.Load()
	if x == nil {
		t.Fatal("NewTable left the range index to the first lookup")
	}
	compare := func(when string) {
		t.Helper()
		if got.Len() != want.Len() {
			t.Fatalf("%s: NewTable holds %d routes, Adds %d", when, got.Len(), want.Len())
		}
		for l := range want.keys {
			if !slices.Equal(got.keys[l], want.keys[l]) || !slices.Equal(got.hops[l], want.hops[l]) {
				t.Fatalf("%s: /%d routes %v -> %v, Adds give %v -> %v", when, l, got.keys[l], got.hops[l], want.keys[l], want.hops[l])
			}
		}
		gx, wx := got.ranges(), want.ranges()
		if !slices.Equal(gx.starts, wx.starts) || !slices.Equal(gx.hops, wx.hops) {
			t.Fatalf("%s: NewTable's %d ranges differ from the Adds' %d", when, len(gx.starts), len(wx.starts))
		}
		for _, s := range wx.starts {
			for _, a := range []Addr{s, s - 1} {
				if g, w := got.Lookup(a), want.Lookup(a); g != w {
					t.Fatalf("%s: Lookup(%s) = %d, the Adds' table says %d", when, a, g, w)
				}
			}
		}
	}
	compare("loaded")
	for _, l := range []int{0, 16, 32} {
		r := Route{MustPrefix(Addr(0x0a0b0c0d), l), 9}
		_, _ = got.Add(r), want.Add(r)
		compare(fmt.Sprintf("after Add(%s)", r.Prefix))
	}
}

// inOrder returns m's routes in canonical order: sorted by Compare, as the
// model holds each prefix once, canonicalised.
func inOrder(m scanModel) []Route {
	routes := slices.Clone(m)
	slices.SortFunc(routes, func(a, b Route) int { return Compare(a.Prefix, b.Prefix) })
	return routes
}

// NewTable on random route sets with repeated prefixes (the later route
// standing), /0 and /32 routes, host bits, lengths outside [0,32] and no
// order, against Add in input order and against the scan; then on the same
// routes in canonical order, which NewTable reads as they stand, and on
// those with one route more at the end that breaks the order — one before
// the last, a repeat of it under another next hop, one with host bits, one
// of length 33 — which sends NewTable through its sorting copy.
func TestNewTableEqualsAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	checkNewTable(t, nil)
	for iter := 0; iter < 200; iter++ {
		anchors := []Addr{0, ^Addr(0), Addr(rng.Uint32()), Addr(rng.Uint32())}
		routes := make([]Route, rng.Intn(300))
		for i := range routes {
			addr := Addr(rng.Uint32())
			if rng.Intn(2) == 0 {
				addr = anchors[rng.Intn(len(anchors))] ^ Addr(rng.Intn(4))<<uint(rng.Intn(31))
			}
			// Lengths -2..34: /0 and /32 and out-of-range ones included.
			routes[i] = Route{Prefix{Addr: addr, Len: rng.Intn(37) - 2}, NextHop(rng.Intn(8))}
			if i > 0 && rng.Intn(6) == 0 {
				routes[i].Prefix = routes[rng.Intn(i)].Prefix // a repeat
			}
		}
		checkNewTable(t, routes)
		var m scanModel
		for _, r := range routes {
			_ = m.Add(r)
		}
		checkRanges(t, NewTable(routes), m)

		ordered := inOrder(m)
		if _, ok := census(ordered); !ok {
			t.Fatalf("iteration %d: %d routes in canonical order read as out of order", iter, len(ordered))
		}
		checkNewTable(t, ordered)
		checkRanges(t, NewTable(ordered), m)
		if len(ordered) < 2 {
			continue
		}
		last := ordered[len(ordered)-1].Prefix
		for _, extra := range []Route{
			ordered[rng.Intn(len(ordered)-1)],
			{last, ordered[len(ordered)-1].NextHop + 1},
			{Prefix{Addr: last.Addr | 1, Len: 31}, 5},
			{Prefix{Addr: ^Addr(0), Len: 33}, 6},
		} {
			broken := append(slices.Clone(ordered), extra)
			if _, ok := census(broken); ok {
				t.Fatalf("iteration %d: %s after %s read as in order", iter, extra.Prefix, last)
			}
			checkNewTable(t, broken)
			mb := slices.Clone(m)
			_ = mb.Add(extra)
			checkRanges(t, NewTable(broken), mb)
		}
	}
}
