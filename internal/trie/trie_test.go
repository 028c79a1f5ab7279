package trie

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vrpower/internal/ip"
	"vrpower/internal/rib"
)

func mustPfx(t *testing.T, s string) ip.Prefix {
	t.Helper()
	p, err := ip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestInsertLookupBasic(t *testing.T) {
	tr := Build(nil)
	tr.Insert(mustPfx(t, "10.0.0.0/8"), 1)
	tr.Insert(mustPfx(t, "10.1.0.0/16"), 2)
	tr.Insert(mustPfx(t, "0.0.0.0/0"), 9)

	addr, _ := ip.ParseAddr("10.1.5.5")
	if nh := tr.Lookup(addr); nh != 2 {
		t.Errorf("Lookup longest = %d, want 2", nh)
	}
	addr, _ = ip.ParseAddr("10.9.5.5")
	if nh := tr.Lookup(addr); nh != 1 {
		t.Errorf("Lookup mid = %d, want 1", nh)
	}
	addr, _ = ip.ParseAddr("172.16.0.1")
	if nh := tr.Lookup(addr); nh != 9 {
		t.Errorf("Lookup default = %d, want 9", nh)
	}
	if tr.Routes() != 3 {
		t.Errorf("Routes = %d, want 3", tr.Routes())
	}
}

func TestInsertReplace(t *testing.T) {
	tr := Build(nil)
	p := mustPfx(t, "10.0.0.0/8")
	tr.Insert(p, 1)
	tr.Insert(p, 5)
	if tr.Routes() != 1 {
		t.Errorf("Routes = %d, want 1 after replace", tr.Routes())
	}
	addr, _ := ip.ParseAddr("10.0.0.1")
	if nh := tr.Lookup(addr); nh != 5 {
		t.Errorf("Lookup = %d, want replaced 5", nh)
	}
}

func TestDeletePrunes(t *testing.T) {
	tr := Build(nil)
	tr.Insert(mustPfx(t, "10.1.2.0/24"), 1)
	before := tr.Stats().Nodes
	if before != 25 { // root + 24 path nodes
		t.Fatalf("nodes after insert = %d, want 25", before)
	}
	if !tr.Delete(mustPfx(t, "10.1.2.0/24")) {
		t.Fatal("Delete returned false for existing route")
	}
	if got := tr.Stats().Nodes; got != 1 {
		t.Errorf("nodes after delete = %d, want 1 (root only)", got)
	}
	if tr.Delete(mustPfx(t, "10.1.2.0/24")) {
		t.Error("Delete of absent route returned true")
	}
}

func TestDeleteKeepsSharedPath(t *testing.T) {
	tr := Build(nil)
	tr.Insert(mustPfx(t, "10.1.0.0/16"), 1)
	tr.Insert(mustPfx(t, "10.1.2.0/24"), 2)
	tr.Delete(mustPfx(t, "10.1.2.0/24"))
	addr, _ := ip.ParseAddr("10.1.2.3")
	if nh := tr.Lookup(addr); nh != 1 {
		t.Errorf("Lookup after delete = %d, want covering /16 route 1", nh)
	}
	// The /16 node must survive pruning.
	if got := tr.Stats().Nodes; got != 17 {
		t.Errorf("nodes = %d, want 17", got)
	}
}

func TestDeleteNonexistentPath(t *testing.T) {
	tr := Build(nil)
	tr.Insert(mustPfx(t, "10.0.0.0/8"), 1)
	if tr.Delete(mustPfx(t, "10.1.0.0/16")) {
		t.Error("Delete along missing path returned true")
	}
}

func TestLeafPushFullBinary(t *testing.T) {
	tbl := randomRoutes(500, 3)
	tr := Build(tbl)
	tr.LeafPush()
	if !tr.LeafPushed() {
		t.Fatal("LeafPushed false after LeafPush")
	}
	s := tr.Stats()
	// Full binary tree invariant: leaves = internal + 1.
	if s.Leaves != s.Internal+1 {
		t.Errorf("leaves = %d, internal = %d; want leaves = internal+1", s.Leaves, s.Internal)
	}
	// No internal node may carry a route after pushing.
	tr.Walk(func(n *Node, _ int) bool {
		if !n.IsLeaf() && n.HasRoute {
			t.Error("internal node carries route after leaf push")
			return false
		}
		return true
	})
}

func TestLeafPushIdempotent(t *testing.T) {
	tr := Build(randomRoutes(100, 11))
	tr.LeafPush()
	n1 := tr.Stats().Nodes
	tr.LeafPush()
	if n2 := tr.Stats().Nodes; n2 != n1 {
		t.Errorf("second LeafPush changed node count %d -> %d", n1, n2)
	}
}

func TestLeafPushPreservesLookups(t *testing.T) {
	routes := randomRoutes(800, 5)
	plain := Build(routes)
	pushed := Build(routes)
	pushed.LeafPush()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		addr := ip.Addr(rng.Uint32())
		if a, b := plain.Lookup(addr), pushed.Lookup(addr); a != b {
			t.Fatalf("Lookup(%s): plain %d != pushed %d", addr, a, b)
		}
	}
}

func TestLookupMatchesReference(t *testing.T) {
	routes := randomRoutes(600, 21)
	tr := Build(routes)
	var ref ip.Table
	for _, r := range routes {
		ref.Add(r)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		addr := ip.Addr(rng.Uint32())
		if got, want := tr.Lookup(addr), ref.Lookup(addr); got != want {
			t.Fatalf("Lookup(%s) = %d, want %d", addr, got, want)
		}
	}
}

func TestInsertOnLeafPushedPanics(t *testing.T) {
	tr := Build(randomRoutes(10, 1))
	tr.LeafPush()
	defer func() {
		if recover() == nil {
			t.Error("Insert on leaf-pushed trie did not panic")
		}
	}()
	tr.Insert(mustPfx(t, "10.0.0.0/8"), 1)
}

func TestStatsPerLevel(t *testing.T) {
	tr := Build(nil)
	tr.Insert(mustPfx(t, "128.0.0.0/1"), 1)
	tr.Insert(mustPfx(t, "0.0.0.0/1"), 2)
	s := tr.Stats()
	if s.Nodes != 3 || s.Height != 1 {
		t.Fatalf("Nodes=%d Height=%d, want 3,1", s.Nodes, s.Height)
	}
	if s.PerLevel[0].Internal != 1 || s.PerLevel[1].Leaves != 2 {
		t.Errorf("per-level counts wrong: %+v", s.PerLevel)
	}
	sum := 0
	for _, lv := range s.PerLevel {
		sum += lv.Nodes
	}
	if sum != s.Nodes {
		t.Errorf("per-level sum %d != total %d", sum, s.Nodes)
	}
}

func TestStageMapFolding(t *testing.T) {
	m, err := NewStageMap(28, 32) // 33 levels onto 28 stages
	if err != nil {
		t.Fatal(err)
	}
	if m.Folded() != 5 {
		t.Fatalf("Folded = %d, want 5", m.Folded())
	}
	if m.Stage(0) != 0 || m.Stage(5) != 0 {
		t.Error("shallow levels must fold into stage 0")
	}
	if m.Stage(6) != 1 {
		t.Errorf("Stage(6) = %d, want 1", m.Stage(6))
	}
	if m.Stage(32) != 27 {
		t.Errorf("Stage(32) = %d, want 27", m.Stage(32))
	}
	// Monotone non-decreasing and within range.
	prev := 0
	for lv := 0; lv <= 32; lv++ {
		s := m.Stage(lv)
		if s < prev || s < 0 || s >= 28 {
			t.Fatalf("Stage(%d) = %d not monotone/in-range", lv, s)
		}
		prev = s
	}
}

func TestStageMapNoFoldAndErrors(t *testing.T) {
	m, err := NewStageMap(33, 32)
	if err != nil {
		t.Fatal(err)
	}
	if m.Folded() != 0 {
		t.Errorf("Folded = %d, want 0", m.Folded())
	}
	if m.Stage(10) != 10 {
		t.Errorf("identity mapping broken: Stage(10) = %d", m.Stage(10))
	}
	if _, err := NewStageMap(0, 32); err == nil {
		t.Error("NewStageMap(0, …) succeeded, want error")
	}
}

// randomRoutes builds n unique random routes with non-zero next hops.
func randomRoutes(n int, seed int64) []ip.Route {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[ip.Prefix]bool)
	routes := make([]ip.Route, 0, n)
	for len(routes) < n {
		p := ip.MustPrefix(ip.Addr(rng.Uint32()), 1+rng.Intn(32))
		if seen[p] {
			continue
		}
		seen[p] = true
		routes = append(routes, ip.Route{Prefix: p, NextHop: ip.NextHop(1 + rng.Intn(63))})
	}
	return routes
}

func TestBalancedStageMapMinimisesMax(t *testing.T) {
	// Heavily skewed level memories: linear mapping would leave one huge
	// stage; the balanced map must split the load.
	bits := []int64{1, 1, 1, 1, 100, 100, 100, 100, 1, 1, 1, 1}
	m, err := NewBalancedStageMap(4, bits)
	if err != nil {
		t.Fatal(err)
	}
	// Compute per-stage sums under the balanced assignment.
	sums := make([]int64, m.Stages)
	for lv, b := range bits {
		sums[m.Stage(lv)] += b
	}
	var max int64
	for _, s := range sums {
		if s > max {
			max = s
		}
	}
	// Total 408 over 4 stages: perfect balance 102; the heavy levels force
	// at least one stage to hold a single 100-unit level plus neighbours.
	if max > 104 {
		t.Errorf("balanced max stage load %d, want <= 104 (near-perfect)", max)
	}
	// Monotone contiguous assignment.
	prev := 0
	for lv := range bits {
		s := m.Stage(lv)
		if s < prev || s > prev+1 {
			t.Fatalf("assignment not monotone/contiguous at level %d: %d after %d", lv, s, prev)
		}
		prev = s
	}
}

func TestBalancedStageMapDegenerate(t *testing.T) {
	if _, err := NewBalancedStageMap(0, []int64{1}); err == nil {
		t.Error("stages=0 accepted")
	}
	if _, err := NewBalancedStageMap(4, nil); err == nil {
		t.Error("empty levels accepted")
	}
	if _, err := NewBalancedStageMap(4, []int64{1, -1}); err == nil {
		t.Error("negative level memory accepted")
	}
	// More stages than levels: one level per stage, no panic.
	m, err := NewBalancedStageMap(10, []int64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	for lv := 0; lv < 3; lv++ {
		if s := m.Stage(lv); s != lv {
			t.Errorf("Stage(%d) = %d, want identity", lv, s)
		}
	}
	// All-zero memories still produce a valid map.
	if _, err := NewBalancedStageMap(3, []int64{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
}

func TestBalancedBeatsLinearOnSkew(t *testing.T) {
	// A leaf-pushed trie's level memories: compare the fold-into-0 linear
	// map against the balanced map on max stage load.
	tr := Build(randomRoutes(2000, 31))
	tr.LeafPush()
	st := tr.Stats()
	bits := make([]int64, len(st.PerLevel))
	for lv, l := range st.PerLevel {
		bits[lv] = int64(l.Internal)*36 + int64(l.Leaves)*8
	}
	stages := 8
	linear, err := NewStageMap(stages, st.Height)
	if err != nil {
		t.Fatal(err)
	}
	balanced, err := NewBalancedStageMap(stages, bits)
	if err != nil {
		t.Fatal(err)
	}
	maxLoad := func(m StageMap) int64 {
		sums := make([]int64, stages)
		for lv, b := range bits {
			sums[m.Stage(lv)] += b
		}
		var max int64
		for _, s := range sums {
			if s > max {
				max = s
			}
		}
		return max
	}
	lin, bal := maxLoad(linear), maxLoad(balanced)
	if bal > lin {
		t.Errorf("balanced max load %d exceeds linear %d", bal, lin)
	}
	if bal == lin {
		t.Logf("note: balanced == linear (%d); acceptable but unusual", bal)
	}
	if balanced.MaxLevelsPerStage() < 1 {
		t.Error("MaxLevelsPerStage < 1")
	}
}

// TestRandomOpSequenceVsOracle interleaves inserts, deletes and lookups,
// checking the trie against the exhaustive-scan oracle after every step.
func TestRandomOpSequenceVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	tr := Build(nil)
	var oracle ip.Table
	live := make([]ip.Prefix, 0, 256)
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(live) == 0: // insert
			p := ip.MustPrefix(ip.Addr(rng.Uint32()), rng.Intn(33))
			nh := ip.NextHop(1 + rng.Intn(200))
			already := false
			for _, q := range live {
				if q == p {
					already = true
					break
				}
			}
			tr.Insert(p, nh)
			oracle.Add(ip.Route{Prefix: p, NextHop: nh})
			if !already {
				live = append(live, p)
			}
		case op < 8: // delete a live prefix
			i := rng.Intn(len(live))
			p := live[i]
			if !tr.Delete(p) {
				t.Fatalf("step %d: Delete(%s) of live prefix failed", step, p)
			}
			oracle.Remove(p)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default: // delete something absent
			p := ip.MustPrefix(ip.Addr(rng.Uint32()), 1+rng.Intn(32))
			absent := true
			for _, q := range live {
				if q == p {
					absent = false
					break
				}
			}
			if absent && tr.Delete(p) {
				t.Fatalf("step %d: Delete(%s) of absent prefix succeeded", step, p)
			}
		}
		if tr.Routes() != oracle.Len() {
			t.Fatalf("step %d: route count %d != oracle %d", step, tr.Routes(), oracle.Len())
		}
		if step%7 == 0 {
			addr := ip.Addr(rng.Uint32())
			if got, want := tr.Lookup(addr), oracle.Lookup(addr); got != want {
				t.Fatalf("step %d: Lookup(%s) = %d, want %d", step, addr, got, want)
			}
		}
	}
	// The trie must prune back to just the root when everything is deleted.
	for _, p := range live {
		if !tr.Delete(p) {
			t.Fatalf("final Delete(%s) failed", p)
		}
	}
	if got := tr.Stats().Nodes; got != 1 {
		t.Errorf("after deleting everything: %d nodes, want 1 (root)", got)
	}
}

// TestArenaHandsOutDistinctZeroValues: every value an arena hands out is
// zero, its own, and stays where it is while later ones are handed out —
// across chunk boundaries, which is where a slab allocator goes wrong.
func TestArenaHandsOutDistinctZeroValues(t *testing.T) {
	var a Arena[Node]
	const n = 3*arenaMax + 7
	nodes := make([]*Node, n)
	seen := make(map[*Node]bool, n)
	for i := range nodes {
		v := a.New()
		if *v != (Node{}) {
			t.Fatalf("value %d handed out non-zero: %+v", i, *v)
		}
		if seen[v] {
			t.Fatalf("value %d handed out twice", i)
		}
		seen[v] = true
		v.NextHop, v.HasRoute = ip.NextHop(i%251+1), true
		nodes[i] = v
	}
	for i, v := range nodes {
		if v.NextHop != ip.NextHop(i%251+1) || v.Child != [2]*Node{} {
			t.Fatalf("value %d was written through another: %+v", i, *v)
		}
	}
}

// boundaries returns, for every route, the first and last address its
// prefix covers and the addresses just outside them.
func boundaries(routes []ip.Route) []ip.Addr {
	var out []ip.Addr
	for _, r := range routes {
		first := r.Prefix.Addr
		last := first | ^ip.Mask(r.Prefix.Len)
		out = append(out, first, last, first-1, last+1)
	}
	return out
}

// TestRebuildIsAFreshBuild: a trie rebuilt in the memory of a larger and
// then of a smaller build is the trie Build makes — the same Stats and the
// same answer at every prefix boundary, before and after leaf pushing.
func TestRebuildIsAFreshBuild(t *testing.T) {
	small, large := randomRoutes(300, 31), randomRoutes(3000, 32)
	tr := Build(small)
	tr.LeafPush()
	for _, routes := range [][]ip.Route{large, small} {
		tr.Rebuild(routes)
		fresh := Build(routes)
		for _, pushed := range []bool{false, true} {
			if pushed {
				tr.LeafPush()
				fresh.LeafPush()
			}
			if got, want := tr.Stats(), fresh.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d routes, pushed %v: Stats %+v, fresh build %+v", len(routes), pushed, got, want)
			}
			if tr.Routes() != fresh.Routes() || tr.LeafPushed() != pushed {
				t.Fatalf("%d routes, pushed %v: %d routes, pushed %v", len(routes), pushed, tr.Routes(), tr.LeafPushed())
			}
			for _, addr := range boundaries(routes) {
				if got, want := tr.Lookup(addr), fresh.Lookup(addr); got != want {
					t.Fatalf("%d routes, pushed %v: Lookup(%s) = %d, fresh build %d", len(routes), pushed, addr, got, want)
				}
			}
		}
	}
}

// TestRebuildAllocatesNothing: once a trie has been built over a table,
// rebuilding and leaf pushing it over the same table reuses every node.
func TestRebuildAllocatesNothing(t *testing.T) {
	routes := randomRoutes(2000, 33)
	tr := Build(routes)
	tr.LeafPush()
	if n := testing.AllocsPerRun(5, func() {
		tr.Rebuild(routes)
		tr.LeafPush()
	}); n != 0 {
		t.Errorf("Rebuild + LeafPush allocates %v times, want 0", n)
	}
}

// TestArenaResetHandsBackZeroedSlabs: after Reset the arena hands out the
// same values again, zeroed and in the same order, and makes no new slab;
// a Slice wider than the slab in turn skips it rather than overrun it.
func TestArenaResetHandsBackZeroedSlabs(t *testing.T) {
	var a Arena[Node]
	const n = 2*arenaMax + 5
	first := make([]*Node, n)
	for i := range first {
		first[i] = a.New()
		first[i].NextHop, first[i].HasRoute = ip.NextHop(i%251+1), true
	}
	slabs := len(a.slabs)
	a.Reset()
	for i := range first {
		v := a.New()
		if v != first[i] || *v != (Node{}) {
			t.Fatalf("value %d after Reset: %p %+v, want %p zeroed", i, v, *v, first[i])
		}
	}
	if len(a.slabs) != slabs {
		t.Fatalf("Reset then the same requests made %d slabs, had %d", len(a.slabs), slabs)
	}

	var b Arena[ip.NextHop]
	head := b.Slice(3)            // the first slab holds arenaMin values
	wide := b.Slice(arenaMin + 1) // too wide for what is left: a slab of its own
	if len(wide) != arenaMin+1 || cap(wide) != arenaMin+1 || cap(head) != 3 {
		t.Fatalf("Slice lengths %d/%d, caps %d/%d", len(head), len(wide), cap(head), cap(wide))
	}
	b.Reset()
	if v := b.Slice(arenaMin + 1); &v[0] != &wide[0] {
		t.Fatal("after Reset, a wide Slice did not skip the narrow slab for the wide one")
	}
}

// TestLevelsAreThePushedShape: after any run of Inserts and Deletes — a /0
// and /32s among them, down to the empty trie and back, and through Rebuild —
// Levels is LeafPush followed by Stats().PerLevel, and pushing leaves it as
// it was. A zero Trie has no levels.
func TestLevelsAreThePushedShape(t *testing.T) {
	if got := (&Trie{}).Levels(); got != nil {
		t.Errorf("zero Trie: Levels %v, want nil", got)
	}
	rng := rand.New(rand.NewSource(9))
	// A small pool, so deletes hit and prefixes nest: a /0, /32s and lengths
	// in between over a few address bases.
	var pool []ip.Prefix
	for _, base := range []uint32{0, 0x0a000000, 0x0a010200, 0xc0a80101, 0xffffffff} {
		for _, l := range []int{0, 1, 7, 8, 16, 23, 24, 31, 32} {
			pool = append(pool, ip.MustPrefix(ip.Addr(base)&ip.Mask(l), l))
		}
	}
	live := map[ip.Prefix]ip.NextHop{}
	routes := func() []ip.Route {
		var out []ip.Route
		for _, p := range pool {
			if nh, ok := live[p]; ok {
				out = append(out, ip.Route{Prefix: p, NextHop: nh})
			}
		}
		return out
	}
	check := func(tr *Trie, what string) {
		t.Helper()
		ref := Build(routes())
		ref.LeafPush()
		if got, want := tr.Levels(), ref.Stats().PerLevel; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Levels %v, pushed Stats %v", what, got, want)
		}
	}
	tr := Build(nil)
	check(tr, "empty")
	for op := 0; op < 3000; op++ {
		p := pool[rng.Intn(len(pool))]
		if rng.Intn(3) == 0 {
			tr.Delete(p)
			delete(live, p)
		} else {
			nh := ip.NextHop(1 + rng.Intn(9))
			tr.Insert(p, nh)
			live[p] = nh
		}
		check(tr, "after op")
	}
	for _, p := range pool {
		tr.Delete(p)
		delete(live, p)
	}
	check(tr, "deleted down to empty")
	if got := tr.Levels(); !reflect.DeepEqual(got, []Level{{Nodes: 1, Leaves: 1}}) {
		t.Errorf("empty trie: Levels %v, want the root leaf alone", got)
	}
	for _, p := range pool[:len(pool)/2] {
		live[p] = 3
	}
	tr.Rebuild(routes())
	check(tr, "rebuilt")
	for _, rs := range [][]ip.Route{randomRoutes(3000, 34), randomRoutes(300, 35)} {
		tr.Rebuild(rs)
		want := Build(rs)
		want.LeafPush()
		if got := tr.Levels(); !reflect.DeepEqual(got, want.Stats().PerLevel) {
			t.Fatalf("rebuilt over %d routes: Levels %v, pushed Stats %v", len(rs), got, want.Stats().PerLevel)
		}
		levels := tr.Levels()
		tr.LeafPush()
		if got := tr.Levels(); !reflect.DeepEqual(got, levels) || !reflect.DeepEqual(got, tr.Stats().PerLevel) {
			t.Fatalf("%d routes: Levels after LeafPush %v, before %v, Stats %v", len(rs), got, levels, tr.Stats().PerLevel)
		}
	}
}

// sameNodes reports whether two tries are equal node for node: the same
// shape, and the same route at every node. (A node whose route was deleted
// keeps its stale NextHop, which nothing reads.)
func sameNodes(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.HasRoute == b.HasRoute && (!a.HasRoute || a.NextHop == b.NextHop) &&
		sameNodes(a.Child[0], b.Child[0]) && sameNodes(a.Child[1], b.Child[1])
}

// TestInsertOrderDoesNotMatter: an insert resumes at the deepest node it
// shares with the last one, and the trie must not depend on it. Built from
// sorted, shuffled and reversed copies of one table, rebuilt in place from
// each, or taken from other routes to the table by interleaved Deletes and
// Inserts, the trie equals the sorted table's node for node, with the same
// route count, per-level counts and Stats, before and after leaf pushing.
func TestInsertOrderDoesNotMatter(t *testing.T) {
	tbl, err := rib.Generate("t", 2000, 45)
	if err != nil {
		t.Fatal(err)
	}
	sorted := tbl.Routes
	rng := rand.New(rand.NewSource(45))
	shuffled := slices.Clone(sorted)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)

	// Interleaved: start from half the table plus routes it does not hold,
	// then insert the other half and delete those routes, mixed with pairs
	// of sibling more-specifics of table routes, each inserted and deleted
	// in turn: the second's insert shares the first's pruned path.
	type op struct {
		r   ip.Route
		del bool
	}
	inTable := map[ip.Prefix]bool{}
	for _, r := range sorted {
		inTable[r.Prefix] = true
	}
	var extra []ip.Route
	var ops [][]op
	for _, r := range shuffled[1000:] {
		ops = append(ops, []op{{r, false}})
	}
	for _, r := range randomRoutes(300, 46) {
		if !inTable[r.Prefix] {
			extra = append(extra, r)
			ops = append(ops, []op{{r, true}})
		}
	}
	for _, r := range shuffled[:300] {
		if r.Prefix.Len > 28 {
			continue
		}
		x := ip.Route{Prefix: ip.MustPrefix(r.Prefix.Addr|ip.Addr(rng.Uint32())&^ip.Mask(r.Prefix.Len), r.Prefix.Len+3), NextHop: 7}
		z := ip.Route{Prefix: ip.Prefix{Addr: x.Prefix.Addr ^ 1<<(32-x.Prefix.Len), Len: x.Prefix.Len}, NextHop: 8}
		if !inTable[x.Prefix] && !inTable[z.Prefix] {
			ops = append(ops, []op{{x, false}, {x, true}, {z, false}, {z, true}})
		}
	}
	edited := Build(append(slices.Clone(shuffled[:1000]), extra...))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for _, unit := range ops {
		for _, o := range unit {
			if !o.del {
				edited.Insert(o.r.Prefix, o.r.NextHop)
			} else if !edited.Delete(o.r.Prefix) {
				t.Fatalf("Delete(%s) found no route", o.r.Prefix)
			}
		}
	}
	rebuilt := Build(extra)

	for _, c := range []struct {
		name  string
		build func() *Trie
	}{
		{"shuffled", func() *Trie { return Build(shuffled) }},
		{"reversed", func() *Trie { return Build(reversed) }},
		{"interleaved", func() *Trie { return edited }},
		{"rebuilt", func() *Trie { rebuilt.Rebuild(reversed); return rebuilt }},
	} {
		got, want := c.build(), Build(sorted)
		for _, pushed := range []bool{false, true} {
			if pushed {
				got.LeafPush()
				want.LeafPush()
			}
			if !sameNodes(got.Root(), want.Root()) {
				t.Fatalf("%s, pushed %v: the trie differs node for node from the sorted table's", c.name, pushed)
			}
			if got.Routes() != want.Routes() || !reflect.DeepEqual(got.Levels(), want.Levels()) || !reflect.DeepEqual(got.Stats(), want.Stats()) {
				t.Fatalf("%s, pushed %v: %d routes, levels %v; the sorted table's trie %d, %v",
					c.name, pushed, got.Routes(), got.Levels(), want.Routes(), want.Levels())
			}
		}
	}
}
