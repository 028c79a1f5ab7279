package merge

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vrpower/internal/ip"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

func buildSet(t *testing.T, k, prefixes int, share float64, seed int64) []*rib.Table {
	t.Helper()
	set, err := rib.GenerateVirtualSet(k, prefixes, share, seed)
	if err != nil {
		t.Fatal(err)
	}
	return set.Tables
}

func TestBuildEmpty(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Error("Build(nil) succeeded, want error")
	}
}

func TestLookupMatchesPerVNReference(t *testing.T) {
	tables := buildSet(t, 4, 400, 0.5, 21)
	m, err := Build(tables)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*ip.Table, len(tables))
	for i, tbl := range tables {
		refs[i] = tbl.Reference()
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		addr := ip.Addr(rng.Uint32())
		vn := rng.Intn(len(tables))
		if got, want := m.Lookup(vn, addr), refs[vn].Lookup(addr); got != want {
			t.Fatalf("pre-push Lookup(vn=%d, %s) = %d, want %d", vn, addr, got, want)
		}
	}
	m.LeafPush()
	for i := 0; i < 3000; i++ {
		addr := ip.Addr(rng.Uint32())
		vn := rng.Intn(len(tables))
		if got, want := m.Lookup(vn, addr), refs[vn].Lookup(addr); got != want {
			t.Fatalf("post-push Lookup(vn=%d, %s) = %d, want %d", vn, addr, got, want)
		}
	}
}

func TestLookupTargetedAddresses(t *testing.T) {
	// Probe each table's own route addresses, which stresses nesting.
	tables := buildSet(t, 3, 200, 0.3, 5)
	m, err := Build(tables)
	if err != nil {
		t.Fatal(err)
	}
	m.LeafPush()
	for vn, tbl := range tables {
		ref := tbl.Reference()
		for _, r := range tbl.Routes {
			addr := r.Prefix.Addr | ^ip.Mask(r.Prefix.Len)&0x5555
			if got, want := m.Lookup(vn, addr), ref.Lookup(addr); got != want {
				t.Fatalf("Lookup(vn=%d, %s) = %d, want %d (route %s)", vn, addr, got, want, r.Prefix)
			}
		}
	}
}

func TestLookupVNIsolation(t *testing.T) {
	// A route private to VN 0 must not leak into VN 1's lookups.
	t0 := &rib.Table{Name: "vn0"}
	t1 := &rib.Table{Name: "vn1"}
	p, _ := ip.ParsePrefix("10.0.0.0/8")
	q, _ := ip.ParsePrefix("10.1.0.0/16")
	t0.Add(ip.Route{Prefix: p, NextHop: 7})
	t1.Add(ip.Route{Prefix: q, NextHop: 9})
	m, err := Build([]*rib.Table{t0, t1})
	if err != nil {
		t.Fatal(err)
	}
	m.LeafPush()
	addr, _ := ip.ParseAddr("10.1.2.3")
	if got := m.Lookup(0, addr); got != 7 {
		t.Errorf("vn0 lookup = %d, want 7", got)
	}
	if got := m.Lookup(1, addr); got != 9 {
		t.Errorf("vn1 lookup = %d, want 9", got)
	}
	addr, _ = ip.ParseAddr("10.2.2.3")
	if got := m.Lookup(1, addr); got != ip.NoRoute {
		t.Errorf("vn1 lookup outside its /16 = %d, want NoRoute (no leak from vn0)", got)
	}
}

func TestLookupPanicsOnBadVN(t *testing.T) {
	m, err := Build(buildSet(t, 2, 50, 0.5, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Lookup with vn out of range did not panic")
		}
	}()
	m.Lookup(2, 0)
}

func TestLeafPushInvariants(t *testing.T) {
	m, err := Build(buildSet(t, 5, 300, 0.4, 9))
	if err != nil {
		t.Fatal(err)
	}
	m.LeafPush()
	if !m.LeafPushed() {
		t.Fatal("LeafPushed false after push")
	}
	s := m.Stats()
	if s.Leaves != s.Internal+1 {
		t.Errorf("full binary tree broken: leaves=%d internal=%d", s.Leaves, s.Internal)
	}
	var walk func(n *Node) bool
	walk = func(n *Node) bool {
		if n.IsLeaf() {
			if len(n.NHI) != m.K() {
				t.Fatalf("leaf NHI width = %d, want %d", len(n.NHI), m.K())
			}
			return true
		}
		if n.NHI != nil {
			t.Fatal("internal node has NHI vector")
		}
		return walk(n.Child[0]) && walk(n.Child[1])
	}
	walk(m.Root())
}

func TestLeafPushIdempotent(t *testing.T) {
	m, err := Build(buildSet(t, 3, 100, 0.5, 4))
	if err != nil {
		t.Fatal(err)
	}
	m.LeafPush()
	n1 := m.Stats().Nodes
	m.LeafPush()
	if n2 := m.Stats().Nodes; n2 != n1 {
		t.Errorf("second LeafPush changed nodes %d -> %d", n1, n2)
	}
}

func TestAlphaExtremes(t *testing.T) {
	// Identical tables: every pre-push node shared by all K, so α = 1.
	tables := buildSet(t, 4, 300, 1.0, 17)
	m, err := Build(tables)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Alpha < 0.999 {
		t.Errorf("identical tables: α = %.3f, want 1.0", s.Alpha)
	}
	// Disjoint tables: only near-root paths overlap, α must be small.
	tables = buildSet(t, 4, 300, 0.0, 17)
	m, err = Build(tables)
	if err != nil {
		t.Fatal(err)
	}
	s = m.Stats()
	if s.Alpha > 0.5 {
		t.Errorf("disjoint tables: α = %.3f, want well below identical case", s.Alpha)
	}
}

func TestAlphaMonotoneInShare(t *testing.T) {
	prev := -1.0
	for _, share := range []float64{0.0, 0.3, 0.6, 0.9} {
		m, err := Build(buildSet(t, 4, 500, share, 23))
		if err != nil {
			t.Fatal(err)
		}
		a := m.Stats().Alpha
		if a <= prev {
			t.Errorf("α not increasing with share: share=%.1f α=%.3f (prev %.3f)", share, a, prev)
		}
		prev = a
	}
}

func TestAlphaIgnoresPushFillers(t *testing.T) {
	m, err := Build(buildSet(t, 3, 200, 0.7, 31))
	if err != nil {
		t.Fatal(err)
	}
	pre := m.Stats()
	m.LeafPush()
	post := m.Stats()
	if post.Common != pre.Common {
		t.Errorf("Common changed across push: %d -> %d", pre.Common, post.Common)
	}
	if post.Nodes < pre.Nodes {
		t.Errorf("push removed nodes: %d -> %d", pre.Nodes, post.Nodes)
	}
}

func TestStatsPerLevelSums(t *testing.T) {
	m, err := Build(buildSet(t, 3, 300, 0.5, 2))
	if err != nil {
		t.Fatal(err)
	}
	m.LeafPush()
	s := m.Stats()
	nodes, leaves := 0, 0
	for _, lv := range s.PerLevel {
		nodes += lv.Nodes
		leaves += lv.Leaves
	}
	if nodes != s.Nodes || leaves != s.Leaves {
		t.Errorf("per-level sums (%d,%d) != totals (%d,%d)", nodes, leaves, s.Nodes, s.Leaves)
	}
	if s.Height > 32 {
		t.Errorf("height %d > 32", s.Height)
	}
}

func TestAnalyticNodesProperties(t *testing.T) {
	const m = 10000
	if got := AnalyticNodes(1, m, 0.5); got != m {
		t.Errorf("K=1: %g, want %g", got, float64(m))
	}
	if got := AnalyticNodes(5, m, 1); got != m {
		t.Errorf("α=1: %g, want %g (full overlap collapses to one trie)", got, float64(m))
	}
	if got := AnalyticNodes(5, m, 0); got != 5*m {
		t.Errorf("α=0: %g, want %g (no overlap)", got, float64(5*m))
	}
	if AnalyticNodes(0, m, 0.5) != 0 {
		t.Error("K=0 should give 0")
	}
	// Monotone: more overlap, fewer nodes; more VNs, more nodes.
	for k := 2; k <= 16; k++ {
		if AnalyticNodes(k, m, 0.8) >= AnalyticNodes(k, m, 0.2) {
			t.Errorf("K=%d: α=0.8 should need fewer nodes than α=0.2", k)
		}
		if AnalyticNodes(k, m, 0.5) <= AnalyticNodes(k-1, m, 0.5) {
			t.Errorf("K=%d: node count should grow with K", k)
		}
	}
}

// TestAnalyticTracksEmpirical ties the analytic sharing model to measured
// merges: plugging the measured α into AnalyticNodes must land within 30% of
// the actual merged pre-push node count. (The analytic model assumes shared
// nodes are shared by all K; real overlap is messier, hence the loose band.)
func TestAnalyticTracksEmpirical(t *testing.T) {
	for _, share := range []float64{0.2, 0.5, 0.8} {
		tables := buildSet(t, 4, 800, share, 29)
		m, err := Build(tables)
		if err != nil {
			t.Fatal(err)
		}
		s := m.Stats()
		// Mean individual trie size.
		var sum float64
		for _, tbl := range tables {
			sum += float64(len(tbl.Routes))
		}
		// Use per-table trie node counts for m, not route counts.
		var nodeSum float64
		for _, tbl := range tables {
			nodeSum += float64(trieNodes(tbl))
		}
		mean := nodeSum / float64(len(tables))
		predicted := AnalyticNodes(4, mean, s.Alpha)
		ratio := predicted / float64(s.Nodes)
		if math.Abs(ratio-1) > 0.30 {
			t.Errorf("share=%.1f: analytic %.0f vs empirical %d (ratio %.2f) at α=%.3f",
				share, predicted, s.Nodes, ratio, s.Alpha)
		}
	}
}

func trieNodes(tbl *rib.Table) int {
	m, err := Build([]*rib.Table{tbl})
	if err != nil {
		panic(err)
	}
	return m.Stats().Nodes
}

// markPresence is the presence count Build used to make: it walks the
// individual trie of one network alongside the merged trie, adding one to
// every merged node the individual trie contains. It is the oracle for the
// count Build now makes while it inserts.
func markPresence(dst *Node, src *trie.Node) {
	dst.Present++
	for b := 0; b < 2; b++ {
		if src.Child[b] != nil {
			markPresence(dst.Child[b], src.Child[b])
		}
	}
}

// presence lists every node's Present in pre-order, and zeroes it if zero is
// set.
func presence(n *Node, zero bool, out []int) []int {
	out = append(out, n.Present)
	if zero {
		n.Present = 0
	}
	for _, c := range n.Child {
		if c != nil {
			out = presence(c, zero, out)
		}
	}
	return out
}

// TestPresenceMatchesPerTableTries: over random table sets — an empty
// table, a default route, a /32, and prefixes shared between networks and
// disjoint — every node's Present as Build counts it equals what walking
// each network's own trie over the merged one gives.
func TestPresenceMatchesPerTableTries(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	randPrefix := func() ip.Prefix {
		l := rng.Intn(33)
		return ip.Prefix{Addr: ip.Addr(rng.Uint32()) & ip.Mask(l), Len: l}
	}
	for trial := 0; trial < 200; trial++ {
		shared := make([]ip.Prefix, rng.Intn(20))
		for i := range shared {
			shared[i] = randPrefix()
		}
		tables := make([]*rib.Table, 1+rng.Intn(6))
		for vn := range tables {
			tbl := &rib.Table{}
			switch rng.Intn(5) {
			case 0: // empty
			case 1:
				tbl.Add(ip.Route{Prefix: ip.Prefix{}, NextHop: 1}) // the default route
			case 2:
				tbl.Add(ip.Route{Prefix: ip.Prefix{Addr: ip.Addr(rng.Uint32()), Len: 32}, NextHop: 2})
			default:
				for _, p := range shared {
					if rng.Intn(2) == 0 {
						tbl.Add(ip.Route{Prefix: p, NextHop: ip.NextHop(vn + 1)})
					}
				}
				for i := rng.Intn(20); i > 0; i-- {
					tbl.Add(ip.Route{Prefix: randPrefix(), NextHop: ip.NextHop(vn + 10)})
				}
			}
			tables[vn] = tbl
		}
		m, err := Build(tables)
		if err != nil {
			t.Fatal(err)
		}
		got := presence(m.Root(), true, nil)
		for _, tbl := range tables {
			markPresence(m.Root(), trie.Build(tbl.Routes).Root())
		}
		want := presence(m.Root(), false, nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%d tables): node %d in pre-order has Present %d, per-table tries give %d", trial, len(tables), i, got[i], want[i])
			}
		}
	}
}

// TestRebuildIsAFreshBuild: a merged trie rebuilt in the memory of a larger
// and then of a smaller build — and of one over fewer networks — is the trie
// Build makes: the same Stats (α included) and the same answer for every
// network at every prefix boundary, before and after leaf pushing.
func TestRebuildIsAFreshBuild(t *testing.T) {
	small, large, fewer := buildSet(t, 3, 300, 0.5, 41), buildSet(t, 3, 2000, 0.5, 42), buildSet(t, 2, 500, 0.3, 43)
	m, err := Build(small)
	if err != nil {
		t.Fatal(err)
	}
	m.LeafPush()
	for _, tables := range [][]*rib.Table{large, small, fewer} {
		if err := m.Rebuild(tables); err != nil {
			t.Fatal(err)
		}
		fresh, err := Build(tables)
		if err != nil {
			t.Fatal(err)
		}
		var addrs []ip.Addr
		for _, tbl := range tables {
			for _, r := range tbl.Routes {
				first := r.Prefix.Addr
				last := first | ^ip.Mask(r.Prefix.Len)
				addrs = append(addrs, first, last, first-1, last+1)
			}
		}
		for _, pushed := range []bool{false, true} {
			if pushed {
				m.LeafPush()
				fresh.LeafPush()
			}
			if got, want := m.Stats(), fresh.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("K=%d, pushed %v: Stats %+v, fresh build %+v", len(tables), pushed, got, want)
			}
			if m.K() != len(tables) || m.LeafPushed() != pushed {
				t.Fatalf("K=%d, pushed %v: K %d, pushed %v", len(tables), pushed, m.K(), m.LeafPushed())
			}
			for vn := range tables {
				for _, addr := range addrs {
					if got, want := m.Lookup(vn, addr), fresh.Lookup(vn, addr); got != want {
						t.Fatalf("K=%d, pushed %v: Lookup(%d, %s) = %d, fresh build %d", len(tables), pushed, vn, addr, got, want)
					}
				}
			}
		}
	}
	if err := m.Rebuild(nil); err == nil || m.K() != len(fewer) {
		t.Errorf("Rebuild(nil) = %v, K %d; want an error and the trie unchanged", err, m.K())
	}
}

// TestRebuildAllocatesNothing: once a merged trie has been built over a set,
// rebuilding and leaf pushing it over the same set reuses every node, route
// link and leaf vector.
func TestRebuildAllocatesNothing(t *testing.T) {
	tables := buildSet(t, 4, 1000, 0.5, 44)
	m, err := Build(tables)
	if err != nil {
		t.Fatal(err)
	}
	m.LeafPush()
	if n := testing.AllocsPerRun(5, func() {
		if err := m.Rebuild(tables); err != nil {
			t.Fatal(err)
		}
		m.LeafPush()
	}); n != 0 {
		t.Errorf("Rebuild + LeafPush allocates %v times, want 0", n)
	}
}

// TestLevelsAreThePushedShape: after Build and after Rebuild over a larger, a
// smaller and a narrower set, Levels is LeafPush followed by
// Stats().PerLevel, before pushing and after. A zero Trie has no levels.
func TestLevelsAreThePushedShape(t *testing.T) {
	if got := (&Trie{}).Levels(); got != nil {
		t.Errorf("zero Trie: Levels %v, want nil", got)
	}
	first := buildSet(t, 3, 300, 0.5, 51)
	m, err := Build(first)
	if err != nil {
		t.Fatal(err)
	}
	for _, tables := range [][]*rib.Table{first, buildSet(t, 4, 2000, 0.3, 52), buildSet(t, 2, 1, 0, 53), buildSet(t, 1, 500, 1, 54)} {
		if err := m.Rebuild(tables); err != nil {
			t.Fatal(err)
		}
		levels := m.Levels()
		m.LeafPush()
		if got, want := levels, m.Stats().PerLevel; !reflect.DeepEqual(got, want) {
			t.Fatalf("K=%d: Levels %v, pushed Stats %v", len(tables), got, want)
		}
		if got := m.Levels(); !reflect.DeepEqual(got, levels) {
			t.Fatalf("K=%d: Levels after LeafPush %v, before %v", len(tables), got, levels)
		}
	}
}

// sameMerged reports whether two merged tries are equal node for node: the
// same shape, presence counts and per-network routes at every node, and
// after leaf pushing the same leaf vectors.
func sameMerged(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	la, lb := a.routes, b.routes
	for ; la != nil && lb != nil; la, lb = la.next, lb.next {
		if la.vnRoute != lb.vnRoute {
			return false
		}
	}
	return la == nil && lb == nil && a.Present == b.Present && slices.Equal(a.NHI, b.NHI) &&
		sameMerged(a.Child[0], b.Child[0]) && sameMerged(a.Child[1], b.Child[1])
}

// TestInsertOrderDoesNotMatter: each insert resumes at the deepest node its
// route shares with its network's last one, and the merged trie must not
// depend on it. Built, or rebuilt in place, from sorted, shuffled and
// reversed copies of every table, it equals the sorted set's node for node,
// with the same per-level counts and Stats, before and after leaf pushing.
func TestInsertOrderDoesNotMatter(t *testing.T) {
	sorted := buildSet(t, 4, 1500, 0.5, 45)
	rng := rand.New(rand.NewSource(45))
	reorder := func(f func([]ip.Route)) []*rib.Table {
		out := make([]*rib.Table, len(sorted))
		for i, tbl := range sorted {
			out[i] = &rib.Table{Name: tbl.Name, Routes: slices.Clone(tbl.Routes)}
			f(out[i].Routes)
		}
		return out
	}
	shuffled := reorder(func(r []ip.Route) { rng.Shuffle(len(r), func(i, j int) { r[i], r[j] = r[j], r[i] }) })
	reversed := reorder(slices.Reverse[[]ip.Route])
	reused, err := Build(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		tables  []*rib.Table
		rebuild bool
	}{
		{"shuffled", shuffled, false},
		{"reversed", reversed, false},
		{"rebuilt reversed", reversed, true},
		{"rebuilt sorted", sorted, true},
	} {
		want, err := Build(sorted)
		if err != nil {
			t.Fatal(err)
		}
		got := reused
		if c.rebuild {
			err = reused.Rebuild(c.tables)
		} else {
			got, err = Build(c.tables)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, pushed := range []bool{false, true} {
			if pushed {
				got.LeafPush()
				want.LeafPush()
			}
			if !sameMerged(got.Root(), want.Root()) {
				t.Fatalf("%s, pushed %v: the merged trie differs node for node from the sorted set's", c.name, pushed)
			}
			if !reflect.DeepEqual(got.Levels(), want.Levels()) || !reflect.DeepEqual(got.Stats(), want.Stats()) {
				t.Fatalf("%s, pushed %v: levels %v, the sorted set's %v", c.name, pushed, got.Levels(), want.Levels())
			}
		}
	}
}
