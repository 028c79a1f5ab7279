package pipeline

// Tests for AbortUpdate (the data-plane half of a journaled rollback) and
// the post-recovery invariant auditor.

import (
	"math/rand"
	"reflect"
	"testing"

	"vrpower/internal/ip"
)

// lookupAll resolves every route's address through a fresh pipeline and
// compares against the table's reference oracle.
func assertServes(t *testing.T, img *Image, oracle func(ip.Addr) ip.NextHop, addrs []ip.Addr) {
	t.Helper()
	for _, a := range addrs {
		if got, want := Lookup(img, Request{Addr: a}), oracle(a); got != want {
			t.Fatalf("addr %v: got %d, want %d", a, got, want)
		}
	}
}

// TestAbortUpdateBeforeCommitBubble: an update aborted while bubbles are
// still pending must leave the sim serving the old image, with the shadow
// bank fully disarmed and a fresh update armable.
func TestAbortUpdateBeforeCommitBubble(t *testing.T) {
	oldTbl, newTbl := genTables(t)
	oldImg, newImg := compilePinned(t, oldTbl), compilePinned(t, newTbl)
	sim := NewSim(oldImg)
	if err := sim.BeginUpdate(newImg, 5); err != nil {
		t.Fatal(err)
	}
	// Spend part of the budget, then crash-and-roll-back.
	for i := 0; i < 3; i++ {
		if _, _, err := sim.InjectBubble(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.AbortUpdate(); err != nil {
		t.Fatalf("AbortUpdate: %v", err)
	}
	if sim.Updating() || sim.PendingBubbles() != 0 {
		t.Fatalf("still updating after abort: %v/%d", sim.Updating(), sim.PendingBubbles())
	}
	// The old image must keep serving.
	ref := oldTbl.Reference()
	var addrs []ip.Addr
	for _, r := range oldTbl.Routes[:20] {
		addrs = append(addrs, r.Prefix.Addr)
	}
	assertServes(t, sim.cur, ref.Lookup, addrs)
	// A fresh update can be armed and committed after the abort.
	if err := sim.BeginUpdate(newImg, 1); err != nil {
		t.Fatalf("re-arm after abort: %v", err)
	}
	if _, _, err := sim.InjectBubble(); err != nil {
		t.Fatal(err)
	}
	for sim.Updating() {
		sim.Inject(nil)
	}
	newRef := newTbl.Reference()
	addrs = addrs[:0]
	for _, r := range newTbl.Routes[:20] {
		addrs = append(addrs, r.Prefix.Addr)
	}
	assertServes(t, sim.cur, newRef.Lookup, addrs)
}

// TestAbortUpdateRejectedAfterCommitBubble: once the commit bubble is in
// the pipe the update is unabortable — stages flip as it passes.
func TestAbortUpdateRejectedAfterCommitBubble(t *testing.T) {
	oldTbl, newTbl := genTables(t)
	sim := NewSim(compilePinned(t, oldTbl))
	if sim.AbortUpdate() == nil {
		t.Fatal("abort with no update in flight accepted")
	}
	if err := sim.BeginUpdate(compilePinned(t, newTbl), 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.InjectBubble(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.InjectBubble(); err != nil { // commit bubble
		t.Fatal(err)
	}
	if err := sim.AbortUpdate(); err == nil {
		t.Fatal("abort accepted after the commit bubble was injected")
	}
}

// TestAuditImageCleanAndTorn: a clean image audits with zero mismatches; an
// image whose entries were swapped in from a different table (misforwarding
// corruption with recomputed parity, so the parity column cannot catch it)
// must surface mismatches.
func TestAuditImageCleanAndTorn(t *testing.T) {
	oldTbl, newTbl := genTables(t)
	oldImg, newImg := compilePinned(t, oldTbl), compilePinned(t, newTbl)
	ref := oldTbl.Reference()
	var probes []Probe
	for _, r := range oldTbl.Routes {
		probes = append(probes, Probe{Addr: r.Prefix.Addr, VN: 0, Want: ref.Lookup(r.Prefix.Addr)})
	}
	res := AuditImage(oldImg, probes)
	if res.Probes != len(probes) || res.Mismatches != 0 || res.Faulted != 0 {
		t.Fatalf("clean image audit %+v", res)
	}
	if !res.Clean() {
		t.Fatal("clean image reported dirty")
	}

	// A torn image: the first half of the stages serve the new table, the
	// rest the old — exactly what a crash mid-reload leaves behind. Parity
	// is consistent per entry, so only the oracle cross-check can see it.
	torn := Splice(newImg, oldImg, oldImg.Stages()/2)
	tornRes := AuditImage(torn, probes)
	if tornRes.Mismatches == 0 && tornRes.Faulted == 0 {
		t.Fatal("torn image audited fully clean; want mismatches or faults")
	}

	// Bit-flip corruption with stale parity must fault (drop), not
	// misforward — the detectable half of the invariant.
	flipped := oldImg.Clone()
	flipped.FlipBit(0, 0, 3)
	fres := AuditImage(flipped, probes)
	if fres.Faulted == 0 {
		t.Fatal("parity-stale corruption did not fault any probe")
	}
}

// TestAuditImageMatchesScalarOracle: the audit runs on the batched engine;
// on pristine, bit-flipped and torn images it must report what the same
// probes report through a parity-checking Sim, and move the pipeline.* run
// counters by the same amounts.
func TestAuditImageMatchesScalarOracle(t *testing.T) {
	oldTbl, newTbl := genTables(t)
	pristine, newImg := compilePinned(t, oldTbl), compilePinned(t, newTbl)
	flipped := pristine.Clone()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 25; i++ {
		s, idx, bit, _ := flipped.Locate(rng.Int63n(flipped.DataBits()))
		flipped.FlipBit(s, idx, bit)
	}
	torn := Splice(newImg, pristine, pristine.Stages()/2)
	ref := oldTbl.Reference()
	var probes []Probe
	for _, r := range oldTbl.Routes {
		probes = append(probes, Probe{Addr: r.Prefix.Addr, Want: ref.Lookup(r.Prefix.Addr)})
	}
	for name, img := range map[string]*Image{"pristine": pristine, "flipped": flipped, "torn": torn} {
		var want, got AuditResult
		wantDelta := counterDeltas(func() {
			sim := NewSim(img)
			sim.EnableParityCheck()
			reqs := make([]Request, len(probes))
			for i, p := range probes {
				reqs[i] = Request{Addr: p.Addr, VN: p.VN}
			}
			results, _, err := sim.Run(reqs, 1)
			if err != nil {
				t.Fatal(err)
			}
			want.Probes = len(results)
			for i, r := range results {
				switch {
				case r.Faulted:
					want.Faulted++
				case r.NHI != probes[i].Want:
					want.Mismatches++
				}
			}
		})
		gotDelta := counterDeltas(func() { got = AuditImage(img, probes) })
		if got != want {
			t.Errorf("%s: audit %+v, scalar oracle %+v", name, got, want)
		}
		if !reflect.DeepEqual(gotDelta, wantDelta) {
			t.Errorf("%s: obs counter deltas %v, scalar oracle %v", name, gotDelta, wantDelta)
		}
	}
	if res := AuditImage(flipped, probes); res.Faulted == 0 {
		t.Error("no probe crossed a flipped word; weaken the test")
	}
}

// TestAuditImageCountsPartialChunks: the audit counts a chunk at a time, so
// probe counts off the chunk width — one short of it, one past it, and two
// chunks and a part — must report what a parity-checking Sim reports probe by
// probe, on an image both torn and bit-flipped.
func TestAuditImageCountsPartialChunks(t *testing.T) {
	oldTbl, newTbl := genTables(t)
	img := Splice(compilePinned(t, newTbl), compilePinned(t, oldTbl), 14)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 25; i++ {
		s, idx, bit, _ := img.Locate(rng.Int63n(img.DataBits()))
		img.FlipBit(s, idx, bit)
	}
	ref := oldTbl.Reference()
	probes := make([]Probe, 2*batchFlights+276)
	for i := range probes {
		a := oldTbl.Routes[i%len(oldTbl.Routes)].Prefix.Addr | ip.Addr(rng.Intn(256))
		probes[i] = Probe{Addr: a, Want: ref.Lookup(a)}
	}
	for _, n := range []int{batchFlights - 1, batchFlights + 1, len(probes)} {
		sim := NewSim(img)
		sim.EnableParityCheck()
		want := AuditResult{Probes: n}
		for _, p := range probes[:n] {
			r, _, err := sim.Run([]Request{{Addr: p.Addr}}, 1)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case r[0].Faulted:
				want.Faulted++
			case r[0].NHI != p.Want:
				want.Mismatches++
			}
		}
		if got := AuditImage(img, probes[:n]); got != want {
			t.Errorf("%d probes: audit %+v, scalar oracle %+v", n, got, want)
		}
		if n == len(probes) && (want.Faulted == 0 || want.Mismatches == 0) {
			t.Errorf("%d probes: %+v: want faults and mismatches both", n, want)
		}
	}
}

// TestAuditImageEdgeCases: nil image and empty probe sets audit clean.
func TestAuditImageEdgeCases(t *testing.T) {
	if res := AuditImage(nil, []Probe{{}}); !res.Clean() || res.Probes != 0 {
		t.Fatalf("nil image audit %+v", res)
	}
	oldTbl, _ := genTables(t)
	if res := AuditImage(compilePinned(t, oldTbl), nil); !res.Clean() || res.Probes != 0 {
		t.Fatalf("empty probe audit %+v", res)
	}
}
