package rib

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vrpower/internal/ip"
	"vrpower/internal/sweep"
)

func TestTableAddReplace(t *testing.T) {
	var tbl Table
	p, _ := ip.ParsePrefix("10.0.0.0/8")
	tbl.Add(ip.Route{Prefix: p, NextHop: 1})
	tbl.Add(ip.Route{Prefix: p, NextHop: 2})
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
	if tbl.Routes[0].NextHop != 2 {
		t.Errorf("NextHop = %d, want 2 after replace", tbl.Routes[0].NextHop)
	}
}

func TestTableSort(t *testing.T) {
	var tbl Table
	for _, s := range []string{"10.0.0.0/16", "9.0.0.0/8", "10.0.0.0/8"} {
		p, _ := ip.ParsePrefix(s)
		tbl.Add(ip.Route{Prefix: p, NextHop: 1})
	}
	tbl.Sort()
	want := []string{"9.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16"}
	for i, w := range want {
		if got := tbl.Routes[i].Prefix.String(); got != w {
			t.Errorf("Routes[%d] = %s, want %s", i, got, w)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tbl, err := Generate("rt", 500, 42)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read("rt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tbl.Len() {
		t.Fatalf("round trip Len = %d, want %d", got.Len(), tbl.Len())
	}
	got.Sort()
	for i := range tbl.Routes {
		if tbl.Routes[i] != got.Routes[i] {
			t.Fatalf("route %d: %v != %v", i, tbl.Routes[i], got.Routes[i])
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"10.0.0.0/8",            // missing next hop
		"10.0.0.0/8 1 extra",    // too many fields
		"10.0.0.0/99 1",         // bad prefix
		"10.0.0.0/8 notanumber", // bad next hop
		"10.0.0.0/8 70000",      // next hop out of uint16 range
	}
	for _, c := range cases {
		if _, err := Read("bad", strings.NewReader(c)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", c)
		}
	}
	// Comments and blank lines are fine.
	tbl, err := Read("ok", strings.NewReader("# comment\n\n10.0.0.0/8 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 || tbl.Routes[0].NextHop != 3 {
		t.Errorf("parsed table wrong: %+v", tbl.Routes)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate("a", 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("b", 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("same seed, different sizes: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Routes {
		if a.Routes[i] != b.Routes[i] {
			t.Fatalf("same seed, route %d differs", i)
		}
	}
	c, err := Generate("c", 1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Routes {
		if i >= len(c.Routes) || a.Routes[i] != c.Routes[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical tables")
	}
}

func TestGenerateExactCountAndUnique(t *testing.T) {
	for _, n := range []int{1, 17, 500, 3725} {
		tbl, err := Generate("t", n, 3)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Len() != n {
			t.Fatalf("n=%d: got %d routes", n, tbl.Len())
		}
		seen := make(map[ip.Prefix]bool, n)
		for _, r := range tbl.Routes {
			if seen[r.Prefix] {
				t.Fatalf("duplicate prefix %s", r.Prefix)
			}
			seen[r.Prefix] = true
			if r.NextHop == ip.NoRoute {
				t.Fatalf("route %s has NoRoute next hop", r.Prefix)
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := Generate("t", n, 1); err == nil {
			t.Errorf("%d prefixes accepted, want error", n)
		}
	}
}

func TestLengthHistogram(t *testing.T) {
	tbl, err := Generate("t", 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	h := tbl.LengthHistogram()
	total := 0
	for _, n := range h {
		total += n
	}
	if total != tbl.Len() {
		t.Fatalf("histogram sums to %d, want %d", total, tbl.Len())
	}
	// The model announces /24 runs, so /24 should dominate.
	maxLen, maxCount := 0, 0
	for l, n := range h {
		if n > maxCount {
			maxLen, maxCount = l, n
		}
	}
	if maxLen != 24 {
		t.Errorf("modal prefix length = %d, want 24 (histogram %v)", maxLen, h)
	}
}

func TestGenerateVirtualSetShapes(t *testing.T) {
	set, err := GenerateVirtualSet(4, 300, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Tables) != 4 {
		t.Fatalf("got %d tables, want 4", len(set.Tables))
	}
	for i, tbl := range set.Tables {
		if tbl.Len() < 300 || tbl.Len() > 300+150 {
			t.Errorf("table %d size %d outside [300,450]", i, tbl.Len())
		}
	}
	// Shared prefixes must appear in every table.
	inAll := make(map[ip.Prefix]int)
	for _, tbl := range set.Tables {
		for _, r := range tbl.Routes {
			inAll[r.Prefix]++
		}
	}
	shared := 0
	for _, n := range inAll {
		if n == 4 {
			shared++
		}
	}
	if shared < 100 {
		t.Errorf("only %d prefixes shared by all 4 tables; share=0.5 of 300 should give >= 100", shared)
	}
}

func TestGenerateVirtualSetShareExtremes(t *testing.T) {
	// share=1: all tables have identical prefix sets.
	set, err := GenerateVirtualSet(3, 200, 1.0, 13)
	if err != nil {
		t.Fatal(err)
	}
	ref := set.Tables[0]
	for i := 1; i < 3; i++ {
		if set.Tables[i].Len() != ref.Len() {
			t.Fatalf("share=1 table %d has %d routes, want %d", i, set.Tables[i].Len(), ref.Len())
		}
		for j := range ref.Routes {
			if set.Tables[i].Routes[j].Prefix != ref.Routes[j].Prefix {
				t.Fatalf("share=1 table %d prefix %d differs", i, j)
			}
		}
	}
	// share=0: disjoint generation (tables may still collide rarely, but
	// the vast majority of prefixes must be unique to one table).
	set, err = GenerateVirtualSet(3, 200, 0.0, 13)
	if err != nil {
		t.Fatal(err)
	}
	count := make(map[ip.Prefix]int)
	for _, tbl := range set.Tables {
		for _, r := range tbl.Routes {
			count[r.Prefix]++
		}
	}
	sharedAll := 0
	for _, n := range count {
		if n == 3 {
			sharedAll++
		}
	}
	if sharedAll > 20 {
		t.Errorf("share=0 produced %d fully shared prefixes, want near 0", sharedAll)
	}
}

func TestGenerateVirtualSetValidation(t *testing.T) {
	if _, err := GenerateVirtualSet(0, 100, 0.5, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := GenerateVirtualSet(2, 100, -0.1, 1); err == nil {
		t.Error("share<0 accepted")
	}
	if _, err := GenerateVirtualSet(2, 100, 1.1, 1); err == nil {
		t.Error("share>1 accepted")
	}
}

// TestGenerateVirtualSetRefusesNaNShare: NaN passes a check written
// share < 0 || share > 1, and then slices out of range.
func TestGenerateVirtualSetRefusesNaNShare(t *testing.T) {
	if _, err := GenerateVirtualSet(2, 100, math.NaN(), 1); err == nil {
		t.Error("share NaN accepted")
	}
}

func TestReferenceOracle(t *testing.T) {
	tbl, err := Generate("t", 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	ref := tbl.Reference()
	if ref.Len() != tbl.Len() {
		t.Fatalf("reference Len = %d, want %d", ref.Len(), tbl.Len())
	}
	// Every route's own address must resolve to at least as long a match.
	for _, r := range tbl.Routes {
		nh := ref.Lookup(r.Prefix.Addr)
		if nh == ip.NoRoute {
			t.Fatalf("route %s address resolves to NoRoute", r.Prefix)
		}
	}
}

// The digests were recorded from the commit before GenerateVirtualSet and
// Read switched from Table.Add's linear duplicate scan to a
// prefix index: SHA-256 over Write of the eight tables, in order. The
// generated tables must stay byte-identical — every golden and every
// benchmark digest downstream is a function of them.
func TestGenerateVirtualSetDigests(t *testing.T) {
	for _, c := range []struct {
		seed int64
		want string
	}{
		{1, "4c61607cb1b49fd6ff3ddfdfe1cc1c9d880679073a92985f3eeb9359377fda27"},
		{2, "0ee419892f1331e83247af60ebf9111bf06d271385aa56a96ee3aa611e39f729"},
		{7, "de213e76850aabe6a4a18d9a6f8adc9e45831728c170c2b8879ea5cc2f071c45"},
	} {
		set, err := GenerateVirtualSet(8, 3725, 0.5, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, tbl := range set.Tables {
			if err := tbl.Write(h); err != nil {
				t.Fatal(err)
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.want {
			t.Errorf("seed %d: digest %s, want %s", c.seed, got, c.want)
		}
	}
}

// A repeated prefix replaces the earlier next hop in place and keeps the
// first occurrence's position.
func TestReadersCollapseDuplicatesInOrder(t *testing.T) {
	tbl, err := Read("dup", strings.NewReader("10.0.0.0/8 1\n10.1.0.0/16 2\n10.0.0.0/8 3\n192.168.0.0/24 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := tbl.Write(&got); err != nil {
		t.Fatal(err)
	}
	if want := "# table dup, 3 routes\n10.0.0.0/8 3\n10.1.0.0/16 2\n192.168.0.0/24 4\n"; got.String() != want {
		t.Errorf("Read:\n%swant:\n%s", got.String(), want)
	}
}

// spliceByIndex is the splice GenerateVirtualSet made before it merged two
// sorted lists: own's routes indexed by prefix in a map, each shared route
// added with a drawn next hop (replacing the own route of its prefix), and
// the table sorted again. It is splice's oracle.
func spliceByIndex(own, shared []ip.Route, rng *rand.Rand) []ip.Route {
	t := &Table{Routes: slices.Clone(own)}
	index := make(map[ip.Prefix]int, len(own)+len(shared))
	for j, r := range t.Routes {
		index[r.Prefix] = j
	}
	for _, r := range shared {
		t.addIndexed(index, ip.Route{Prefix: r.Prefix, NextHop: ip.NextHop(1 + rng.Intn(ports))})
	}
	t.Sort()
	return t.Routes
}

// TestSpliceMatchesIndexedSplice runs GenerateVirtualSet against the
// map-and-sort splice over random set shapes. The splice also runs over each
// own table with a random part of the shared prefixes added under other next
// hops, so that shared routes overwrite own ones: both splices must give the
// same routes and draw the same next hops.
func TestSpliceMatchesIndexedSplice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	overwrites := 0
	for c := 0; c < 40; c++ {
		k, prefixes, seed := 1+rng.Intn(6), 1+rng.Intn(600), rng.Int63()
		share := []float64{0, 0.5, 1}[c%3]
		nShared := int(float64(prefixes) * share)
		pool, err := Generate("pool", prefixes, seed)
		if err != nil {
			t.Fatal(err)
		}
		shared := pool.Routes[:nShared]
		want := &VirtualSet{}
		hops := rand.New(rand.NewSource(seed + 1))
		for i := 0; i < k; i++ {
			own := &Table{Name: fmt.Sprintf("vn%d", i)}
			if n := prefixes - nShared; n > 0 {
				if own, err = Generate(own.Name, n, seed+int64(100+i)); err != nil {
					t.Fatal(err)
				}
			}
			mixed := &Table{Routes: slices.Clone(own.Routes)}
			for _, r := range shared {
				if rng.Intn(2) == 0 {
					mixed.Add(ip.Route{Prefix: r.Prefix, NextHop: ip.NextHop(1 + rng.Intn(ports))})
					overwrites++
				}
			}
			mixed.Sort()
			r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			if m, o := splice(mixed.Routes, shared, r1), spliceByIndex(mixed.Routes, shared, r2); !reflect.DeepEqual(m, o) {
				t.Fatalf("k=%d prefixes=%d share=%g seed=%d: splice over %d routes that overlap the shared ones differs from the oracle", k, prefixes, share, seed, len(mixed.Routes))
			}
			own.Routes = spliceByIndex(own.Routes, shared, hops)
			want.Tables = append(want.Tables, own)
		}
		set, err := GenerateVirtualSet(k, prefixes, share, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(set, want) {
			t.Fatalf("k=%d prefixes=%d share=%g seed=%d: GenerateVirtualSet differs from the oracle", k, prefixes, share, seed)
		}
	}
	if overwrites == 0 {
		t.Fatal("no shared route overwrote an own route")
	}
}

// TestGenerateVirtualSetIndependentOfWorkers: the pool and the own tables are
// generated on the sweep pool, so the set must be the same at any size.
func TestGenerateVirtualSetIndependentOfWorkers(t *testing.T) {
	defer sweep.SetWorkers(0)
	var want *VirtualSet
	for _, workers := range []int{1, 4} {
		sweep.SetWorkers(workers)
		set, err := GenerateVirtualSet(8, 800, 0.5, 3)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = set
		} else if !reflect.DeepEqual(set, want) {
			t.Errorf("%d workers: the set differs from one worker's", workers)
		}
	}
}
