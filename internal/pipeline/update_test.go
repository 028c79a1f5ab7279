package pipeline

// Tests for the hitless-update path: BeginUpdate arms a shadow-bank image,
// InjectBubble spends the write budget, and the commit bubble's bank flip
// must keep every in-flight lookup on a consistent image — lookups injected
// before the commit bubble resolve against the old table, lookups injected
// after against the new one, with no mixed-epoch result in between.

import (
	"math/rand"
	"testing"

	"vrpower/internal/ip"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

// compilePinned compiles tbl under the fixed 28-stage, 33-level map, so two
// compilations share stage geometry and diff word-for-word.
func compilePinned(t *testing.T, tbl *rib.Table) *Image {
	t.Helper()
	sm, err := trie.NewStageMap(28, 32)
	if err != nil {
		t.Fatal(err)
	}
	img, err := NewRoutes([]*rib.Table{tbl}).Compile(sm)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func genTables(t *testing.T) (*rib.Table, *rib.Table) {
	t.Helper()
	oldTbl, err := rib.Generate("old", 400, 31)
	if err != nil {
		t.Fatal(err)
	}
	// The "updated" table: rewrite some hops and drop some routes, so the
	// new image differs (and some stages shrink).
	newTbl := &rib.Table{Name: "new"}
	for i, r := range oldTbl.Routes {
		switch {
		case i%7 == 0:
			continue // withdrawn
		case i%3 == 0:
			r.NextHop = ip.NextHop(1 + (int(r.NextHop) % 14))
		}
		newTbl.Routes = append(newTbl.Routes, r)
	}
	newTbl.Sort()
	return oldTbl, newTbl
}

func TestBeginUpdateValidation(t *testing.T) {
	oldTbl, newTbl := genTables(t)
	sim := NewSim(compilePinned(t, oldTbl))
	if err := sim.BeginUpdate(nil, 1); err == nil {
		t.Error("nil image accepted")
	}
	img8, err := Compile([]*rib.Table{newTbl}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.BeginUpdate(img8, 1); err == nil {
		t.Error("stage-count mismatch accepted")
	}
	next := compilePinned(t, newTbl)
	if err := sim.BeginUpdate(next, 3); err != nil {
		t.Fatal(err)
	}
	if err := sim.BeginUpdate(next, 3); err == nil {
		t.Error("second update armed while one is in flight")
	}
	if !sim.Updating() || sim.PendingBubbles() != 3 {
		t.Errorf("Updating=%v PendingBubbles=%d, want true/3", sim.Updating(), sim.PendingBubbles())
	}
}

func TestInjectBubbleWithoutUpdateFails(t *testing.T) {
	oldTbl, _ := genTables(t)
	sim := NewSim(compilePinned(t, oldTbl))
	if _, _, err := sim.InjectBubble(); err == nil {
		t.Error("bubble injected with no update armed")
	}
}

// TestHitlessUpdateEpochConsistency drives continuous traffic across an
// update and checks every lookup against the reference table of the epoch
// it was injected in: old before the commit bubble, new after.
func TestHitlessUpdateEpochConsistency(t *testing.T) {
	oldTbl, newTbl := genTables(t)
	oldImg, newImg := compilePinned(t, oldTbl), compilePinned(t, newTbl)
	oldRef, newRef := oldTbl.Reference(), newTbl.Reference()

	sim := NewSim(oldImg)
	sim.EnableParityCheck()
	rng := rand.New(rand.NewSource(33))
	const bubbles = 24

	type expect struct {
		addr ip.Addr
		ref  *ip.Table
	}
	var pending []expect
	var done []expect
	var results []Result
	collect := func(res Result, ok bool) {
		if !ok {
			return
		}
		results = append(results, res)
		done = append(done, pending[0])
		pending = pending[1:]
	}

	inject := func(ref *ip.Table) {
		addr := ip.Addr(rng.Uint32())
		pending = append(pending, expect{addr: addr, ref: ref})
		res, ok := sim.Inject(&Request{Addr: addr})
		collect(res, ok)
	}

	// Phase 1: old-epoch traffic.
	for i := 0; i < 100; i++ {
		inject(oldRef)
	}
	if err := sim.BeginUpdate(newImg, bubbles); err != nil {
		t.Fatal(err)
	}
	// Phase 2: interleave bubbles with lookups (alternating), so lookups are
	// genuinely in flight around every bubble including the commit.
	epoch := oldRef
	for sim.PendingBubbles() > 0 {
		if sim.PendingBubbles() == 1 {
			// Everything injected after the commit bubble sees the new bank.
			epoch = newRef
		}
		res, ok, err := sim.InjectBubble()
		if err != nil {
			t.Fatal(err)
		}
		collect(res, ok)
		inject(epoch)
	}
	// Phase 3: new-epoch traffic, spanning the commit bubble's drain.
	for i := 0; i < 100; i++ {
		inject(newRef)
	}
	if sim.Updating() {
		t.Fatal("update still in flight after commit bubble drained")
	}
	// Drain the pipeline.
	for i := 0; i < oldImg.Stages()+1; i++ {
		res, ok := sim.Inject(nil)
		collect(res, ok)
	}

	if len(pending) != 0 {
		t.Fatalf("%d lookups never drained", len(pending))
	}
	for i, res := range results {
		if res.Faulted {
			t.Fatalf("lookup %d faulted during a hitless update", i)
		}
		if want := done[i].ref.Lookup(done[i].addr); res.NHI != want {
			t.Fatalf("lookup %d (%s) = %d, want %d from its injection epoch", i, done[i].addr, res.NHI, want)
		}
	}
	if got := sim.Stats().Bubbles; got != bubbles {
		t.Errorf("Stats.Bubbles = %d, want %d", got, bubbles)
	}
}

// TestHitlessUpdateServesNewImage checks that after the commit the sim is
// indistinguishable from one built over the new image directly.
func TestHitlessUpdateServesNewImage(t *testing.T) {
	oldTbl, newTbl := genTables(t)
	sim := NewSim(compilePinned(t, oldTbl))
	if err := sim.BeginUpdate(compilePinned(t, newTbl), 5); err != nil {
		t.Fatal(err)
	}
	for sim.PendingBubbles() > 0 {
		if _, _, err := sim.InjectBubble(); err != nil {
			t.Fatal(err)
		}
	}
	for sim.Updating() {
		sim.Inject(nil)
	}
	ref := newTbl.Reference()
	rng := rand.New(rand.NewSource(34))
	reqs := make([]Request, 2000)
	for i := range reqs {
		reqs[i] = Request{Addr: ip.Addr(rng.Uint32())}
	}
	results, st, err := sim.Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if want := ref.Lookup(res.Addr); res.NHI != want {
			t.Fatalf("post-commit lookup(%s) = %d, want %d", res.Addr, res.NHI, want)
		}
	}
	if st.Lookups != int64(len(reqs)) {
		t.Errorf("Lookups = %d, want %d (bubbles must not count)", st.Lookups, len(reqs))
	}
}
