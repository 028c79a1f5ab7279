// Soak tests: larger-scale end-to-end runs, skipped under -short. They
// exercise the system at core-router scale and long traffic streams, where
// allocation and indexing bugs that small tests miss tend to surface.
package vrpower_test

import (
	"fmt"
	"testing"

	"vrpower"
)

func TestSoakCoreScaleTable(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	// 50k routes: build, compact, merge with a second table, compile, and
	// forward a long stream without a single oracle mismatch.
	tbl, err := vrpower.Generate("core", 50000, 1)
	if err != nil {
		t.Fatal(err)
	}
	compact := vrpower.CompactTable(tbl)
	if compact.Len() >= tbl.Len() {
		t.Errorf("compaction did not shrink: %d -> %d", tbl.Len(), compact.Len())
	}
	ref := tbl.Reference()
	cref := compact.Reference()
	gen, err := vrpower.NewTraffic(vrpower.TrafficConfig{
		K: 1, Seed: 2, Addr: vrpower.RoutedAddr, Tables: []*vrpower.Table{tbl},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range gen.Batch(5000) {
		if a, b := ref.Lookup(p.Addr), cref.Lookup(p.Addr); a != b {
			t.Fatalf("compaction broke forwarding at %s: %d vs %d", p.Addr, a, b)
		}
	}

	r, err := vrpower.Build(vrpower.Config{Scheme: vrpower.VS, K: 1, ClockGating: true},
		[]*vrpower.Table{tbl})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := vrpower.NewForwarding(r, []*vrpower.Table{tbl})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Forward(gen.Batch(50000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 {
		t.Errorf("%d mismatches at core scale", rep.Mismatches)
	}
}

func TestSoakMergedManyNetworks(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	// 24 merged networks, well past the paper's VS ceiling.
	const k = 24
	set, err := vrpower.GenerateVirtualSet(k, 2000, 0.6, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := vrpower.Build(vrpower.Config{Scheme: vrpower.VM, K: k, ClockGating: true}, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := vrpower.NewForwarding(r, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := vrpower.NewTraffic(vrpower.TrafficConfig{
		K: k, Seed: 4, Addr: vrpower.RoutedAddr, Tables: set.Tables,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Forward(gen.Batch(60000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 {
		t.Errorf("%d mismatches across %d merged networks", rep.Mismatches, k)
	}
	b, err := r.ModelPower()
	if err != nil {
		t.Fatal(err)
	}
	if b.Total() < 4.5 || b.Total() > 10 {
		t.Errorf("K=24 merged power %.2f W implausible", b.Total())
	}
}

func TestSoakLongChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	// 2000 updates applied through the lifecycle manager without drift
	// between the live tables and the compiled engines.
	tables := func() []*vrpower.Table {
		set, err := vrpower.GenerateVirtualSet(3, 1500, 0.5, 5)
		if err != nil {
			t.Fatal(err)
		}
		return set.Tables
	}()
	mgr, err := vrpower.NewManager(vrpower.Config{Scheme: vrpower.VS, ClockGating: true}, tables)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		ops, err := vrpower.GenerateChurn(mgr.Tables()[round%3], 200, int64(round))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.ApplyUpdates(round%3, ops); err != nil {
			t.Fatal(err)
		}
	}
	live := mgr.Tables()
	sys, err := vrpower.NewForwarding(mgr.Router(), live)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := vrpower.NewTraffic(vrpower.TrafficConfig{
		K: 3, Seed: 6, Addr: vrpower.RoutedAddr, Tables: live,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Forward(gen.Batch(20000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 {
		t.Errorf("%d mismatches after sustained churn", rep.Mismatches)
	}
}

func TestSoakFaultInjectionVS(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	// A 50k-route separate-scheme router under SEU fire plus an engine
	// kill: healthy VNIDs must never disagree with the oracle, corruption
	// must only ever drop packets (never misforward), and the scrubs must
	// bring every upset and the killed engine back before the run ends.
	const k = 2
	set, err := vrpower.GenerateVirtualSet(k, 25000, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	r, err := vrpower.Build(vrpower.Config{Scheme: vrpower.VS, K: k, ClockGating: true}, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := vrpower.NewForwarding(r, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := vrpower.NewTraffic(vrpower.TrafficConfig{
		K: k, Seed: 8, Addr: vrpower.RoutedAddr, Tables: set.Tables,
	})
	if err != nil {
		t.Fatal(err)
	}
	var bits int64
	for _, img := range r.Images() {
		bits += img.DataBits()
	}
	const cycles = 32 * 1024
	spec, err := vrpower.ParseScenario(fmt.Sprintf("load=const:0.5,faults=seu:%g,kill=1@9000,cycles=%d,seed=9",
		4/(float64(bits)*float64(cycles)), cycles))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunScenario(gen, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SEUs) == 0 {
		t.Fatal("no SEUs landed at core scale; rate tuning is off")
	}
	if rep.Mismatches != 0 {
		t.Errorf("%d lookups disagreed with the oracle under faults", rep.Mismatches)
	}
	if got := rep.RepairedSEUs(); got != len(rep.SEUs) {
		t.Errorf("repaired %d of %d SEUs", got, len(rep.SEUs))
	}
	if rep.Kill == nil || rep.Kill.RepairedAt < 0 {
		t.Errorf("killed engine never repaired: %+v", rep.Kill)
	}
	if !rep.Recovered {
		t.Error("router did not fully recover after scrubbing")
	}
	if rep.MTTRCycles() <= 0 {
		t.Errorf("MTTR = %.1f cycles, want > 0", rep.MTTRCycles())
	}
	// Both networks kept forwarding outside their own engines' repair
	// windows (SEUs land on either engine, so neither is fully spared, but
	// the separate scheme never couples one engine's outage to the other's
	// VNID — every drop on a VN traces to its own engine's faults).
	for vn := 0; vn < k; vn++ {
		if rep.DeliveredPerVN[vn] == 0 {
			t.Errorf("VN %d delivered nothing across the fault run", vn)
		}
		if a := rep.Availability(vn); a <= 0 || a > 1 {
			t.Errorf("VN %d availability %.4f outside (0,1]", vn, a)
		}
	}
}
