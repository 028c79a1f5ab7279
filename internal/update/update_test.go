package update

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"vrpower/internal/ip"
	"vrpower/internal/pipeline"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

func genTable(t *testing.T, n int, seed int64) *rib.Table {
	t.Helper()
	tbl, err := rib.Generate("t", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func compile(t *testing.T, tbl *rib.Table) *pipeline.Image {
	t.Helper()
	// Fixed 28 stages with a fixed 33-level map so diffs across rebuilds
	// compare like with like even if the new trie is shallower/deeper.
	sm, err := trie.NewStageMap(28, 32)
	if err != nil {
		t.Fatal(err)
	}
	img, err := pipeline.NewRoutes([]*rib.Table{tbl}).Compile(sm)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestChurnValidation(t *testing.T) {
	if _, err := Churn(&rib.Table{}, 5, ChurnConfig{}); err == nil {
		t.Error("empty table accepted")
	}
	tbl := genTable(t, 50, 1)
	if _, err := Churn(tbl, 5, ChurnConfig{AnnounceFrac: 0.9, WithdrawFrac: 0.9}); err == nil {
		t.Error("op mix > 1 accepted")
	}
	if _, err := Churn(tbl, 5, ChurnConfig{AnnounceFrac: -0.1}); err == nil {
		t.Error("negative mix accepted")
	}
}

func TestChurnDeterministicAndMixed(t *testing.T) {
	tbl := genTable(t, 500, 2)
	a, err := Churn(tbl, 300, ChurnConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Churn(tbl, 300, ChurnConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[OpKind]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs with same seed", i)
		}
		counts[a[i].Kind]++
	}
	for _, k := range []OpKind{Announce, Withdraw, Change} {
		if counts[k] == 0 {
			t.Errorf("no %s ops in a 300-op stream", k)
		}
	}
}

func TestChurnWithdrawsNameLiveRoutes(t *testing.T) {
	tbl := genTable(t, 200, 3)
	ops, err := Churn(tbl, 400, ChurnConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Replay: every withdraw must hit a present prefix.
	present := make(map[ip.Prefix]bool)
	for _, r := range tbl.Routes {
		present[r.Prefix] = true
	}
	for i, op := range ops {
		switch op.Kind {
		case Announce:
			if present[op.Prefix] {
				t.Fatalf("op %d announces already-present %s", i, op.Prefix)
			}
			present[op.Prefix] = true
		case Withdraw:
			if !present[op.Prefix] {
				t.Fatalf("op %d withdraws absent %s", i, op.Prefix)
			}
			delete(present, op.Prefix)
		case Change:
			if !present[op.Prefix] {
				t.Fatalf("op %d changes absent %s", i, op.Prefix)
			}
		}
	}
}

func TestApplySemantics(t *testing.T) {
	tbl := &rib.Table{Name: "t"}
	p1, _ := ip.ParsePrefix("10.0.0.0/8")
	p2, _ := ip.ParsePrefix("20.0.0.0/8")
	tbl.Add(ip.Route{Prefix: p1, NextHop: 1})
	out := Apply(tbl, []Op{
		{Kind: Announce, Prefix: p2, NextHop: 2},
		{Kind: Change, Prefix: p1, NextHop: 5},
		{Kind: Withdraw, Prefix: p2},
		{Kind: Withdraw, Prefix: p2}, // idempotent
	})
	if out.Len() != 1 {
		t.Fatalf("Len = %d, want 1", out.Len())
	}
	if out.Routes[0].Prefix != p1 || out.Routes[0].NextHop != 5 {
		t.Errorf("route = %+v", out.Routes[0])
	}
	// Original untouched.
	if tbl.Routes[0].NextHop != 1 {
		t.Error("Apply mutated the input table")
	}
}

func TestAppliedTableForwardsCorrectly(t *testing.T) {
	tbl := genTable(t, 400, 4)
	ops, err := Churn(tbl, 200, ChurnConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	updated := Apply(tbl, ops)
	img := compile(t, updated)
	ref := updated.Reference()
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 2000; i++ {
		addr := ip.Addr(rng.Uint32())
		if got, want := pipeline.Lookup(img, pipeline.Request{Addr: addr}), ref.Lookup(addr); got != want {
			t.Fatalf("post-update lookup(%s) = %d, want %d", addr, got, want)
		}
	}
}

func TestDiffIdenticalImagesIsEmpty(t *testing.T) {
	tbl := genTable(t, 300, 5)
	a, b := compile(t, tbl), compile(t, tbl)
	writes, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(writes) != 0 {
		t.Errorf("identical images diff to %d writes", len(writes))
	}
}

func TestDiffGrowsWithChurn(t *testing.T) {
	tbl := genTable(t, 500, 6)
	base := compile(t, tbl)
	prev := 0
	for _, n := range []int{10, 100, 400} {
		ops, err := Churn(tbl, n, ChurnConfig{Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		img := compile(t, Apply(tbl, ops))
		writes, err := Diff(base, img)
		if err != nil {
			t.Fatal(err)
		}
		if len(writes) <= prev {
			t.Errorf("%d ops produced %d writes, not above %d", n, len(writes), prev)
		}
		prev = len(writes)
	}
}

func TestDiffStageMismatch(t *testing.T) {
	tbl := genTable(t, 50, 7)
	img8, err := pipeline.Compile([]*rib.Table{tbl}, 8)
	if err != nil {
		t.Fatal(err)
	}
	img28 := compile(t, tbl)
	if _, err := Diff(img8, img28); err == nil {
		t.Error("stage count mismatch accepted")
	}
}

// TestMergedUpdateCostlier reproduces the core claim of the authors'
// companion work [6]: one network's churn forces far more memory writes in
// the merged structure (shared nodes, K-wide leaf vectors shift) than in
// that network's separate engine.
func TestMergedUpdateCostlier(t *testing.T) {
	set, err := rib.GenerateVirtualSet(4, 400, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := Churn(set.Tables[0], 50, ChurnConfig{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	updated := Apply(set.Tables[0], ops)

	// Separate: only engine 0 changes.
	sepWrites, err := Diff(compile(t, set.Tables[0]), compile(t, updated))
	if err != nil {
		t.Fatal(err)
	}

	// Merged: rebuild the shared structure.
	sm, err := trie.NewStageMap(28, 32)
	if err != nil {
		t.Fatal(err)
	}
	compileMerged := func(tables []*rib.Table) *pipeline.Image {
		img, err := pipeline.NewRoutes(tables).Compile(sm)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	before := compileMerged(set.Tables)
	after := compileMerged([]*rib.Table{updated, set.Tables[1], set.Tables[2], set.Tables[3]})
	mergedWrites, err := Diff(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if len(mergedWrites) <= len(sepWrites) {
		t.Errorf("merged update writes %d not above separate %d", len(mergedWrites), len(sepWrites))
	}
	if widestStage(mergedWrites) <= widestStage(sepWrites) {
		t.Errorf("merged bubbles %d not above separate %d", widestStage(mergedWrites), widestStage(sepWrites))
	}
}

// widestStage is the bubble count of a write list: a bubble performs at most
// one write per stage, so the largest per-stage write count.
func widestStage(writes []Write) int {
	perStage := map[int]int{}
	widest := 0
	for _, w := range writes {
		perStage[w.Stage]++
		widest = max(widest, perStage[w.Stage])
	}
	return widest
}

// TestBubbles: Cost's bubble count is the widest stage's write count, not
// the total — three writes in stage 0 and one in stage 1 take three bubbles —
// and identical images cost nothing.
func TestBubbles(t *testing.T) {
	entry := func(nh ip.NextHop) pipeline.Entry {
		e := pipeline.Entry{Leaf: true, NHI: []ip.NextHop{nh}}
		e.Parity = e.DataParity()
		return e
	}
	sm, err := trie.NewStageMap(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	image := func(stages ...[]pipeline.Entry) *pipeline.Image {
		img, err := pipeline.NewImage(1, sm, stages)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	oldImg := image([]pipeline.Entry{entry(1), entry(2), entry(3), entry(4)}, []pipeline.Entry{entry(5)})
	newImg := image([]pipeline.Entry{entry(1), entry(7), entry(8), entry(9)}, []pipeline.Entry{entry(6)})
	if w, b, err := Cost(oldImg, oldImg); err != nil || w != 0 || b != 0 {
		t.Errorf("Cost(img, img) = %d writes, %d bubbles, %v; want 0, 0, nil", w, b, err)
	}
	if w, b, err := Cost(oldImg, newImg); err != nil || w != 4 || b != 3 {
		t.Errorf("Cost = %d writes, %d bubbles, %v; want 4, 3 (stage 0 has 3 writes), nil", w, b, err)
	}
}

func TestThroughputRetained(t *testing.T) {
	if got := ThroughputRetained(0, 200); got != 1 {
		t.Errorf("no updates: retained %g, want 1", got)
	}
	got := ThroughputRetained(100_000_000, 200) // 100M bubbles at 200 MHz
	if got < 0.49 || got > 0.51 {
		t.Errorf("half-rate bubbles: retained %g, want 0.5", got)
	}
	if ThroughputRetained(1_000_000_000, 200) != 0 {
		t.Error("oversubscribed bubbles should clamp to 0")
	}
	if ThroughputRetained(1, 0) != 0 {
		t.Error("zero clock should return 0")
	}
}

func TestOpKindString(t *testing.T) {
	if Announce.String() != "announce" || Withdraw.String() != "withdraw" || Change.String() != "change" {
		t.Error("op kind names wrong")
	}
}

// TestDiffShrinkEmitsClearingWrites is the regression test for the shrink
// bug: a stage whose new entry list is shorter than the old one must diff to
// clearing writes over the truncated tail, not to silence — otherwise the
// bubble budget undercounts and stale entries are never cleared.
func TestDiffShrinkEmitsClearingWrites(t *testing.T) {
	entry := func(nh ip.NextHop) pipeline.Entry {
		e := pipeline.Entry{Leaf: true, NHI: []ip.NextHop{nh}}
		e.Parity = e.DataParity()
		return e
	}
	sm, err := trie.NewStageMap(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	image := func(stages ...[]pipeline.Entry) *pipeline.Image {
		img, err := pipeline.NewImage(1, sm, stages)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	oldImg := image([]pipeline.Entry{entry(1), entry(2), entry(3), entry(4), entry(5)}, []pipeline.Entry{entry(6)})
	newImg := image([]pipeline.Entry{entry(1), entry(2), entry(9)}, []pipeline.Entry{entry(6)})
	writes, err := Diff(oldImg, newImg)
	if err != nil {
		t.Fatal(err)
	}
	// Index 2 changed; indices 3 and 4 were truncated and must be cleared.
	want := map[Write]bool{{Stage: 0, Index: 2}: true, {Stage: 0, Index: 3}: true, {Stage: 0, Index: 4}: true}
	if len(writes) != len(want) {
		t.Fatalf("shrink diff = %v, want exactly the changed word plus the 2 cleared tail words", writes)
	}
	for _, w := range writes {
		if !want[w] {
			t.Errorf("unexpected write %+v", w)
		}
	}
	if got := widestStage(writes); got != 3 {
		t.Errorf("shrink bubbles = %d, want 3", got)
	}
}

// TestDiffShrinkOnRealTables exercises the shrink path end-to-end: a batch
// of pure withdrawals shrinks the compiled image, and the diff must still
// produce a non-zero write budget covering the removed entries.
func TestDiffShrinkOnRealTables(t *testing.T) {
	tbl := genTable(t, 400, 21)
	var ops []Op
	for _, r := range tbl.Routes[:200] {
		ops = append(ops, Op{Kind: Withdraw, Prefix: r.Prefix})
	}
	before, after := compile(t, tbl), compile(t, Apply(tbl, ops))
	if after.Words() >= before.Words() {
		t.Fatalf("withdrawing half the table did not shrink the image (%d -> %d words)", before.Words(), after.Words())
	}
	writes, err := Diff(before, after)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for s := 0; s < before.Stages(); s++ {
		oldN, newN := before.StageLen(s), after.StageLen(s)
		if oldN <= newN {
			continue
		}
		tail := map[uint32]bool{}
		for _, w := range writes {
			if w.Stage == s && int(w.Index) >= newN {
				tail[w.Index] = true
			}
		}
		if len(tail) != oldN-newN {
			t.Errorf("stage %d: %d of %d truncated words cleared", s, len(tail), oldN-newN)
		}
		covered += len(tail)
	}
	if covered == 0 {
		t.Error("no stage shrank positionally; diff shrink path untested")
	}
}

// TestChurnHonorsOpMix pins the op-mix fix: collisions re-draw only the
// prefix, so the realized announce/withdraw/change fractions track the
// configured mix.
func TestChurnHonorsOpMix(t *testing.T) {
	// The table must stay populated for the whole stream: a withdraw-heavy
	// mix shrinks it by (wf-af) routes per op on average, so size it well
	// above ops*(wf-af) or the mix becomes unrealizable mid-stream.
	tbl := genTable(t, 2000, 22)
	for _, tc := range []struct{ af, wf float64 }{{0, 0}, {0.6, 0.2}, {0.2, 0.6}} {
		ops, err := Churn(tbl, 1500, ChurnConfig{Seed: 23, AnnounceFrac: tc.af, WithdrawFrac: tc.wf})
		if err != nil {
			t.Fatal(err)
		}
		counts := map[OpKind]int{}
		for _, op := range ops {
			counts[op.Kind]++
		}
		af, wf := tc.af, tc.wf
		if af == 0 && wf == 0 {
			af, wf = 0.4, 0.3
		}
		n := float64(len(ops))
		for _, c := range []struct {
			kind OpKind
			want float64
		}{{Announce, af}, {Withdraw, wf}, {Change, 1 - af - wf}} {
			got := float64(counts[c.kind]) / n
			if got < c.want-0.03 || got > c.want+0.03 {
				t.Errorf("mix %g/%g: realized %s fraction %.3f, want %.3f +/- 0.03", tc.af, tc.wf, c.kind, got, c.want)
			}
		}
	}
}

// TestCoalesceSupersedes checks last-op-wins semantics and the equivalence
// Apply(tbl, Coalesce(ops)) == Apply(tbl, ops).
func TestCoalesceSupersedes(t *testing.T) {
	p1, _ := ip.ParsePrefix("10.0.0.0/8")
	p2, _ := ip.ParsePrefix("20.0.0.0/8")
	ops := []Op{
		{Kind: Announce, Prefix: p1, NextHop: 1},
		{Kind: Announce, Prefix: p2, NextHop: 2},
		{Kind: Change, Prefix: p1, NextHop: 3},
		{Kind: Withdraw, Prefix: p2},
		{Kind: Withdraw, Prefix: p1},
		{Kind: Announce, Prefix: p1, NextHop: 7},
	}
	co := Coalesce(ops)
	if len(co) != 2 {
		t.Fatalf("coalesced to %d ops, want 2: %v", len(co), co)
	}
	byPrefix := map[ip.Prefix]Op{}
	for _, op := range co {
		byPrefix[op.Prefix] = op
	}
	if op := byPrefix[p1]; op.Kind != Announce || op.NextHop != 7 {
		t.Errorf("p1 coalesced to %+v, want the final announce with hop 7", op)
	}
	if op := byPrefix[p2]; op.Kind != Withdraw {
		t.Errorf("p2 coalesced to %+v, want the final withdraw", op)
	}

	// Property: coalescing never changes the applied result.
	tbl := genTable(t, 300, 24)
	churn, err := Churn(tbl, 1200, ChurnConfig{Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	a, b := Apply(tbl, churn), Apply(tbl, Coalesce(churn))
	if a.Len() != b.Len() {
		t.Fatalf("coalesced apply has %d routes, raw %d", b.Len(), a.Len())
	}
	for i := range a.Routes {
		if a.Routes[i] != b.Routes[i] {
			t.Fatalf("route %d differs: %+v vs %+v", i, a.Routes[i], b.Routes[i])
		}
	}
	if len(Coalesce(nil)) != 0 {
		t.Error("Coalesce(nil) not empty")
	}
}

// applySequential is the definition Apply is held to: the ops one at a time,
// in order, each against the table the one before left (rib.Table.Add and a
// linear scan — the first implementation, verbatim semantics).
func applySequential(tbl *rib.Table, ops []Op) *rib.Table {
	ref := &rib.Table{Name: tbl.Name}
	ref.Routes = append(ref.Routes, tbl.Routes...)
	for _, op := range ops {
		switch op.Kind {
		case Announce, Change:
			ref.Add(ip.Route{Prefix: op.Prefix, NextHop: op.NextHop})
		case Withdraw:
			for i := range ref.Routes {
				if ref.Routes[i].Prefix == op.Prefix {
					ref.Routes[i] = ref.Routes[len(ref.Routes)-1]
					ref.Routes = ref.Routes[:len(ref.Routes)-1]
					break
				}
			}
		}
	}
	ref.Sort()
	return ref
}

func assertSameRoutes(t *testing.T, got, want *rib.Table) {
	t.Helper()
	if got.Name != want.Name || got.Len() != want.Len() {
		t.Fatalf("Apply gives table %q of %d routes, the sequential definition %q of %d", got.Name, got.Len(), want.Name, want.Len())
	}
	for i := range want.Routes {
		if got.Routes[i] != want.Routes[i] {
			t.Fatalf("route %d differs: %+v vs %+v", i, got.Routes[i], want.Routes[i])
		}
	}
}

// TestApplyMatchesLinearScan cross-checks Apply against the sequential
// definition on a random churn stream.
func TestApplyMatchesLinearScan(t *testing.T) {
	tbl := genTable(t, 300, 26)
	ops, err := Churn(tbl, 900, ChurnConfig{Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRoutes(t, Apply(tbl, ops), applySequential(tbl, ops))
}

// TestApplyRepeatedPrefixes: Apply folds a batch to each prefix's last op, so
// batches that come back to a prefix are where it could part from the
// sequential definition — every order of two ops on a present and an absent
// prefix, then random batches over a handful of prefixes.
func TestApplyRepeatedPrefixes(t *testing.T) {
	tbl := genTable(t, 60, 28)
	present := tbl.Routes[7].Prefix
	absent, err := ip.ParsePrefix("203.0.113.128/25")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tbl.Routes {
		if r.Prefix == absent {
			t.Fatalf("fixture: %v is in the table", absent)
		}
	}
	kinds := []OpKind{Announce, Withdraw, Change}
	for _, p := range []ip.Prefix{present, absent} {
		for _, first := range kinds {
			assertSameRoutes(t, Apply(tbl, []Op{{Kind: first, Prefix: p, NextHop: 3}}),
				applySequential(tbl, []Op{{Kind: first, Prefix: p, NextHop: 3}}))
			for _, second := range kinds {
				ops := []Op{{Kind: first, Prefix: p, NextHop: 3}, {Kind: second, Prefix: p, NextHop: 4}}
				got, want := Apply(tbl, ops), applySequential(tbl, ops)
				if got.Len() != want.Len() {
					t.Errorf("%v then %v on %v: %d routes, want %d", first, second, p, got.Len(), want.Len())
				}
				assertSameRoutes(t, got, want)
			}
		}
	}

	pool := []ip.Prefix{present, absent, tbl.Routes[0].Prefix, tbl.Routes[59].Prefix}
	for i := 0; i < 4; i++ {
		p, err := ip.PrefixFrom(ip.Addr(0xC6336400+uint32(i)<<4), 28) // 198.51.100.x/28, not generated
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, p)
	}
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 200; round++ {
		ops := make([]Op, 1+rng.Intn(24))
		for i := range ops {
			ops[i] = Op{Kind: kinds[rng.Intn(3)], Prefix: pool[rng.Intn(len(pool))], NextHop: ip.NextHop(1 + rng.Intn(16))}
		}
		assertSameRoutes(t, Apply(tbl, ops), applySequential(tbl, ops))
		assertSameRoutes(t, Apply(tbl, Coalesce(ops)), applySequential(tbl, ops))
	}
	if tbl.Len() != 60 {
		t.Error("Apply mutated the input table")
	}

	// A table is whatever order its routes were added in; Apply's merge must
	// not depend on finding them sorted, nor sort them where they lie.
	shuffled := &rib.Table{Name: "shuffled", Routes: append([]ip.Route(nil), tbl.Routes...)}
	rng.Shuffle(len(shuffled.Routes), func(i, j int) {
		shuffled.Routes[i], shuffled.Routes[j] = shuffled.Routes[j], shuffled.Routes[i]
	})
	before := append([]ip.Route(nil), shuffled.Routes...)
	ops := []Op{{Kind: Withdraw, Prefix: present}, {Kind: Announce, Prefix: absent, NextHop: 9}, {Kind: Change, Prefix: tbl.Routes[0].Prefix, NextHop: 2}}
	assertSameRoutes(t, Apply(shuffled, ops), applySequential(shuffled, ops))
	assertSameRoutes(t, Apply(shuffled, nil), applySequential(shuffled, nil))
	if !slices.Equal(shuffled.Routes, before) {
		t.Error("Apply reordered the input table")
	}
}

// BenchmarkApply measures the map-indexed Apply; before the fix this was
// O(N·B) (rib.Table.Add linear-scans per op) and large batches were
// quadratic.
func BenchmarkApply(b *testing.B) {
	for _, size := range []struct{ routes, ops int }{{1000, 1000}, {10000, 10000}} {
		tbl, err := rib.Generate("b", size.routes, 1)
		if err != nil {
			b.Fatal(err)
		}
		ops, err := Churn(tbl, size.ops, ChurnConfig{Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("routes=%d/ops=%d", size.routes, size.ops), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Apply(tbl, ops)
			}
		})
	}
}

// BenchmarkChurn measures churn generation, whose shadow was the other
// O(N·B) path before the prefix-map rework.
func BenchmarkChurn(b *testing.B) {
	for _, size := range []struct{ routes, ops int }{{1000, 1000}, {10000, 10000}} {
		tbl, err := rib.Generate("b", size.routes, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("routes=%d/ops=%d", size.routes, size.ops), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Churn(tbl, size.ops, ChurnConfig{Seed: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// churnCopyAndMap is Churn as it was first written, over a full copy of the
// routes and a map of every prefix: the oracle the overlay draw is held to.
func churnCopyAndMap(tbl *rib.Table, n int, cfg ChurnConfig) []Op {
	af, wf := cfg.AnnounceFrac, cfg.WithdrawFrac
	if af == 0 && wf == 0 {
		af, wf = 0.4, 0.3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	routes := slices.Clone(tbl.Routes)
	present := make(map[ip.Prefix]bool, len(routes))
	for _, r := range routes {
		present[r.Prefix] = true
	}
	ops := make([]Op, 0, n)
	for len(ops) < n {
		r := rng.Float64()
		switch {
		case r < af:
			for try := 0; try < 100; try++ {
				base := routes[rng.Intn(len(routes))]
				length := min(base.Prefix.Len+1+rng.Intn(3), 32)
				ext := ip.Addr(rng.Uint32()) &^ ip.Mask(base.Prefix.Len)
				p, err := ip.PrefixFrom(base.Prefix.Addr|ext, length)
				if err != nil {
					panic(err)
				}
				if present[p] {
					continue
				}
				nh := ip.NextHop(1 + rng.Intn(16))
				ops = append(ops, Op{Kind: Announce, Prefix: p, NextHop: nh})
				routes = append(routes, ip.Route{Prefix: p, NextHop: nh})
				present[p] = true
				break
			}
		case r < af+wf:
			if len(routes) == 1 {
				continue
			}
			i := rng.Intn(len(routes))
			p := routes[i].Prefix
			ops = append(ops, Op{Kind: Withdraw, Prefix: p})
			routes[i] = routes[len(routes)-1]
			routes = routes[:len(routes)-1]
			delete(present, p)
		default:
			i := rng.Intn(len(routes))
			nh := ip.NextHop(1 + rng.Intn(16))
			ops = append(ops, Op{Kind: Change, Prefix: routes[i].Prefix, NextHop: nh})
			routes[i].NextHop = nh
		}
	}
	return ops
}

// TestChurnMatchesCopyAndMap: the overlay draw emits exactly the ops of the
// copy-and-map generator, over many seeds and op mixes, over sorted and
// shuffled tables, a single-route table and a table whose more-specific
// space is saturated (every announce retry collides until a withdraw opens
// a hole).
func TestChurnMatchesCopyAndMap(t *testing.T) {
	sorted := genTable(t, 300, 4)
	shuffled := &rib.Table{Routes: slices.Clone(sorted.Routes)}
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled.Routes), func(i, j int) {
		shuffled.Routes[i], shuffled.Routes[j] = shuffled.Routes[j], shuffled.Routes[i]
	})
	if slices.IsSortedFunc(shuffled.Routes, byPrefix) {
		t.Fatal("shuffled table is sorted")
	}
	prefix := func(s string) ip.Prefix {
		p, err := ip.ParsePrefix(s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	single := &rib.Table{Routes: []ip.Route{{Prefix: prefix("10.1.2.0/24"), NextHop: 3}}}
	// 10.0.0.0/30 and everything under it: no more-specific is free.
	saturated := &rib.Table{}
	for _, s := range []string{"10.0.0.0/30", "10.0.0.0/31", "10.0.0.2/31",
		"10.0.0.0/32", "10.0.0.1/32", "10.0.0.2/32", "10.0.0.3/32"} {
		saturated.Routes = append(saturated.Routes, ip.Route{Prefix: prefix(s), NextHop: 1})
	}
	tables := map[string]*rib.Table{"sorted": sorted, "shuffled": shuffled, "single": single, "saturated": saturated}
	mixes := []ChurnConfig{{}, {AnnounceFrac: 0.8, WithdrawFrac: 0.15}, {AnnounceFrac: 0.1, WithdrawFrac: 0.6}}
	for name, tbl := range tables {
		before := slices.Clone(tbl.Routes)
		for _, mix := range mixes {
			for seed := int64(0); seed < 40; seed++ {
				cfg := mix
				cfg.Seed = seed
				got, err := Churn(tbl, 60, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if want := churnCopyAndMap(tbl, 60, cfg); !slices.Equal(got, want) {
					t.Fatalf("%s table, mix %+v: ops differ from the copy-and-map draw\n got %v\nwant %v", name, cfg, got, want)
				}
			}
		}
		if !slices.Equal(tbl.Routes, before) {
			t.Fatalf("%s table: Churn modified its input", name)
		}
	}
}

// TestChurnAllocatesWhatItChanges: a 24-op batch against a 100 000-route
// table allocates for its ops and overlay, not for the table (a copy of the
// routes alone is 2.4 MB).
func TestChurnAllocatesWhatItChanges(t *testing.T) {
	tbl := genTable(t, 100_000, 6)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for seed := int64(0); seed < runs; seed++ {
		if _, err := Churn(tbl, 24, ChurnConfig{Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Errorf("Churn of 24 ops on %d routes allocates %d B, want < 64 KiB", tbl.Len(), per)
	}
}

// TestCostCountsDiff: over random image pairs — stages that grow, stages
// that shrink, identical images — Cost's writes are len(Diff) and its
// bubbles Diff's widest stage; mismatched stage counts fail both the same
// way.
func TestCostCountsDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	grew, shrank := false, false
	for i := 0; i < 30; i++ {
		a := genTable(t, 20+rng.Intn(400), rng.Int63())
		var b *rib.Table
		switch i % 3 {
		case 0:
			b = genTable(t, 20+rng.Intn(400), rng.Int63()) // unrelated: grows some stages, shrinks others
		case 1:
			ops, err := Churn(a, 1+rng.Intn(80), ChurnConfig{Seed: rng.Int63(), AnnounceFrac: rng.Float64() * 0.5, WithdrawFrac: rng.Float64() * 0.5})
			if err != nil {
				t.Fatal(err)
			}
			b = Apply(a, ops)
		default:
			b = a
		}
		oldImg, newImg := compile(t, a), compile(t, b)
		for s := 0; s < oldImg.Stages(); s++ {
			grew = grew || newImg.StageLen(s) > oldImg.StageLen(s)
			shrank = shrank || newImg.StageLen(s) < oldImg.StageLen(s)
		}
		list, err := Diff(oldImg, newImg)
		if err != nil {
			t.Fatal(err)
		}
		writes, bubbles, err := Cost(oldImg, newImg)
		if err != nil {
			t.Fatal(err)
		}
		if writes != len(list) || bubbles != widestStage(list) {
			t.Fatalf("pair %d: Cost = %d writes, %d bubbles; Diff lists %d writes, widest stage %d",
				i, writes, bubbles, len(list), widestStage(list))
		}
	}
	if !grew || !shrank {
		t.Fatalf("no pair grew (%v) or none shrank (%v) a stage", grew, shrank)
	}

	tbl := genTable(t, 50, 7)
	img8, err := pipeline.Compile([]*rib.Table{tbl}, 8)
	if err != nil {
		t.Fatal(err)
	}
	img28 := compile(t, tbl)
	_, diffErr := Diff(img8, img28)
	w, b, costErr := Cost(img8, img28)
	if diffErr == nil || costErr == nil || diffErr.Error() != costErr.Error() || w != 0 || b != 0 {
		t.Errorf("stage mismatch: Diff error %v, Cost (%d, %d, %v); want the same error and no counts", diffErr, w, b, costErr)
	}
}
