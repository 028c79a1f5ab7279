package merge

import (
	"math/rand"
	"testing"

	"vrpower/internal/ip"
	"vrpower/internal/rib"
)

func TestBraidedEmpty(t *testing.T) {
	if _, err := BuildBraided(nil); err == nil {
		t.Error("BuildBraided(nil) succeeded, want error")
	}
}

func TestBraidedLookupMatchesReference(t *testing.T) {
	set, err := rib.GenerateVirtualSet(4, 400, 0.4, 41)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := BuildBraided(set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*ip.Table, 4)
	for i, tbl := range set.Tables {
		refs[i] = tbl.Reference()
	}
	rng := rand.New(rand.NewSource(42))
	check := func(stage string) {
		for i := 0; i < 3000; i++ {
			addr := ip.Addr(rng.Uint32())
			vn := rng.Intn(4)
			if got, want := bt.Lookup(vn, addr), refs[vn].Lookup(addr); got != want {
				t.Fatalf("%s: braided Lookup(vn=%d, %s) = %d, want %d", stage, vn, addr, got, want)
			}
		}
	}
	check("pre-push")
	bt.LeafPush()
	check("post-push")
}

func TestBraidedLookupPanicsOnBadVN(t *testing.T) {
	set, err := rib.GenerateVirtualSet(2, 50, 0.5, 43)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := BuildBraided(set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("bad VN did not panic")
		}
	}()
	bt.Lookup(5, 0)
}

func TestBraidedIdenticalTablesFullOverlap(t *testing.T) {
	set, err := rib.GenerateVirtualSet(3, 300, 1.0, 44)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := BuildBraided(set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	s := bt.Stats()
	if s.Alpha < 0.999 {
		t.Errorf("identical tables braided α = %.3f, want 1", s.Alpha)
	}
	// No twisting should be needed for identical tries.
	var twisted int
	var walk func(n *BraidedNode)
	walk = func(n *BraidedNode) {
		for _, tw := range n.Twist {
			if tw {
				twisted++
			}
		}
		for b := 0; b < 2; b++ {
			if n.Child[b] != nil {
				walk(n.Child[b])
			}
		}
	}
	walk(bt.Root())
	if twisted != 0 {
		t.Errorf("%d twist bits set for identical tables, want 0", twisted)
	}
}

// TestBraidingBeatsPlainOnMirroredTables is [17]'s motivating case: two
// tables with identical shapes rooted in opposite halves of the address
// space share almost nothing under plain overlay but nearly everything once
// the root is braided.
func TestBraidingBeatsPlainOnMirroredTables(t *testing.T) {
	base, err := rib.Generate("base", 500, 45)
	if err != nil {
		t.Fatal(err)
	}
	// Mirror: complement the first address bit of every prefix.
	mirror := &rib.Table{Name: "mirror"}
	for _, r := range base.Routes {
		if r.Prefix.Len == 0 {
			mirror.Add(r)
			continue
		}
		p, err := ip.PrefixFrom(r.Prefix.Addr^0x80000000, r.Prefix.Len)
		if err != nil {
			t.Fatal(err)
		}
		mirror.Add(ip.Route{Prefix: p, NextHop: r.NextHop})
	}
	tables := []*rib.Table{base, mirror}

	plain, err := Build(tables)
	if err != nil {
		t.Fatal(err)
	}
	braided, err := BuildBraided(tables)
	if err != nil {
		t.Fatal(err)
	}
	ps, bs := plain.Stats(), braided.Stats()
	if bs.Nodes >= ps.Nodes {
		t.Fatalf("braided %d nodes not below plain %d on mirrored tables", bs.Nodes, ps.Nodes)
	}
	if bs.Alpha <= ps.Alpha {
		t.Errorf("braided α %.3f not above plain %.3f", bs.Alpha, ps.Alpha)
	}
	// Near-perfect case: the braided structure should approach one table's
	// trie size (full overlap), i.e. about half the plain overlay.
	if float64(bs.Nodes) > 0.6*float64(ps.Nodes) {
		t.Errorf("braided %d nodes, want < 60%% of plain %d (mirror should braid away)", bs.Nodes, ps.Nodes)
	}
	// And correctness still holds.
	refs := []*ip.Table{base.Reference(), mirror.Reference()}
	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 2000; i++ {
		addr := ip.Addr(rng.Uint32())
		vn := rng.Intn(2)
		if got, want := braided.Lookup(vn, addr), refs[vn].Lookup(addr); got != want {
			t.Fatalf("mirrored braided Lookup(vn=%d, %s) = %d, want %d", vn, addr, got, want)
		}
	}
}

func TestBraidedNeverMuchWorseThanPlain(t *testing.T) {
	for _, share := range []float64{0.0, 0.5, 0.9} {
		set, err := rib.GenerateVirtualSet(4, 400, share, 47)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Build(set.Tables)
		if err != nil {
			t.Fatal(err)
		}
		braided, err := BuildBraided(set.Tables)
		if err != nil {
			t.Fatal(err)
		}
		pn, bn := plain.Stats().Nodes, braided.Stats().Nodes
		if bn > pn {
			t.Errorf("share=%.1f: braided %d nodes vs plain %d — braiding should never lose", share, bn, pn)
		}
	}
}

func TestBraidedStatsAndTwistCost(t *testing.T) {
	set, err := rib.GenerateVirtualSet(3, 200, 0.5, 48)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := BuildBraided(set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	s := bt.Stats()
	if s.Nodes != s.Leaves+s.Internal {
		t.Errorf("nodes %d != leaves %d + internal %d", s.Nodes, s.Leaves, s.Internal)
	}
	if s.TwistBits != int64(s.Nodes)*3 {
		t.Errorf("twist bits = %d, want %d (K per node)", s.TwistBits, s.Nodes*3)
	}
	bt.LeafPush()
	s2 := bt.Stats()
	if s2.Leaves != s2.Internal+1 {
		t.Errorf("post-push not a full binary tree: %d leaves, %d internal", s2.Leaves, s2.Internal)
	}
}
