package netsim

// Churn stressor on the composed runner: hitless update batches under a 1/K
// constant load, with ingress queues deep enough to hold what a bubble train
// displaces — updates delay packets, they never drop them.

import (
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/scenario"
	"vrpower/internal/traffic"
)

// hitlessSpec is the canonical churn run: per-network load 1/3 (an aggregate
// packet a cycle at K=3) and queues sized for the longest bubble train.
const hitlessSpec = "load=const:0.3333,queue=4096,"

// checkHitless asserts the invariants every completed hitless run must hold:
// all batches committed, zero oracle mismatches, zero parity faults, and
// every offered packet delivered — delayed by bubbles, never dropped.
func checkHitless(t *testing.T, rep ScenarioReport, wantBatches int) {
	t.Helper()
	if !rep.Completed {
		t.Fatalf("run did not complete: %d/%d batches applied", rep.BatchesApplied, wantBatches)
	}
	if rep.BatchesApplied != wantBatches || rep.BatchesAborted != 0 {
		t.Errorf("applied %d / aborted %d batches, want %d / 0", rep.BatchesApplied, rep.BatchesAborted, wantBatches)
	}
	if rep.Mismatches != 0 {
		t.Errorf("oracle mismatches = %d, want 0 (shadow-bank commit leaked a mixed image)", rep.Mismatches)
	}
	if rep.FaultedLookups != 0 {
		t.Errorf("faulted lookups = %d, want 0 (updates must write clean words)", rep.FaultedLookups)
	}
	for vn := range rep.OfferedPerVN {
		if rep.DeliveredPerVN[vn] != rep.OfferedPerVN[vn] {
			t.Errorf("VN %d delivered %d of %d offered: hitless means delayed, never dropped",
				vn, rep.DeliveredPerVN[vn], rep.OfferedPerVN[vn])
		}
	}
	if rep.BubbleCycles != rep.PlannedBubbles {
		t.Errorf("spent %d bubble cycles, planned %d", rep.BubbleCycles, rep.PlannedBubbles)
	}
	// Every planned bubble was injected, so the retained throughput the
	// engines measured is the analytic prediction for the same bubble count.
	if meas, ana := rep.MeasuredThroughputRetained(), rep.AnalyticThroughputRetained(); meas != ana || meas >= 1 {
		t.Errorf("measured retained %.6f vs analytic %.6f, want equal and below 1", meas, ana)
	}
	for i, b := range rep.Batches {
		if b.Writes <= 0 || b.Bubbles <= 0 {
			t.Errorf("batch %d: writes=%d bubbles=%d, want > 0 for real churn", i, b.Writes, b.Bubbles)
		}
		if b.DoneAt <= b.ArmedAt {
			t.Errorf("batch %d: done at %d, armed at %d", i, b.DoneAt, b.ArmedAt)
		}
		if b.CoalescedOps > b.RawOps {
			t.Errorf("batch %d: coalesced %d > raw %d", i, b.CoalescedOps, b.RawOps)
		}
	}
}

func TestRunUpdatesHitlessVS(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 3)
	rep := runSpec(t, s, 23, hitlessSpec+"churn=4x64,cycles=16384")
	checkHitless(t, rep, 4)
	// Round-robin targeting: each batch rewrites only its network's engine.
	for i, b := range rep.Batches {
		if b.VN != i%3 || b.Engine != b.VN {
			t.Errorf("batch %d: VN=%d engine=%d, want round-robin VN %d on its own engine", i, b.VN, b.Engine, i%3)
		}
	}
	if rep.BacklogPeak == 0 {
		t.Error("backlog never grew: bubbles should displace arrivals under sustained traffic")
	}
}

func TestRunUpdatesHitlessVM(t *testing.T) {
	s, _ := buildSystem(t, core.VM, 3)
	rep := runSpec(t, s, 29, hitlessSpec+"churn=4x64,cycles=16384")
	checkHitless(t, rep, 4)
	for i, b := range rep.Batches {
		if b.Engine != 0 {
			t.Errorf("batch %d on engine %d, want 0 (the shared merged engine)", i, b.Engine)
		}
	}
}

// TestRunUpdatesVMCostlierThanVS pins the paper's update asymmetry under
// live traffic: the same churn schedule costs the merged scheme more writes
// and bubbles (the shared structure is rewritten) and retains less
// throughput than the separate scheme.
func TestRunUpdatesVMCostlierThanVS(t *testing.T) {
	run := func(sc core.Scheme) ScenarioReport {
		s, _ := buildSystem(t, sc, 3)
		// Pinned to one network: an identical churn schedule on both schemes.
		rep := runSpec(t, s, 31, hitlessSpec+"churn=4x64:vn=1,cycles=16384")
		checkHitless(t, rep, 4)
		return rep
	}
	vs, vm := run(core.VS), run(core.VM)
	if vm.UpdateWrites <= vs.UpdateWrites || vm.PlannedBubbles <= vs.PlannedBubbles {
		t.Errorf("VM (writes=%d bubbles=%d) not costlier than VS (writes=%d bubbles=%d)",
			vm.UpdateWrites, vm.PlannedBubbles, vs.UpdateWrites, vs.PlannedBubbles)
	}
	if vm.MeasuredThroughputRetained() >= vs.MeasuredThroughputRetained() {
		t.Errorf("VM retained %.6f >= VS retained %.6f, want lower (more bubbles over fewer engine-cycles)",
			vm.MeasuredThroughputRetained(), vs.MeasuredThroughputRetained())
	}
}

// TestRunUpdatesDeterministicAcrossWorkers: the full report — batch stamps,
// delay sums, per-VN counters — must be identical at -j 1 and -j 8.
func TestRunUpdatesDeterministicAcrossWorkers(t *testing.T) {
	spec := mustParse(t, "load=const:0.25,queue=4096,churn=4x64,cycles=8192")
	j1, _ := runScenario(t, core.VS, 4, spec, 1)
	j8, _ := runScenario(t, core.VS, 4, spec, 8)
	if dumpJSON(t, j1) != dumpJSON(t, j8) {
		t.Errorf("churn reports differ across worker counts:\n-j1: %+v\n-j8: %+v", j1, j8)
	}
}

// TestRunUpdatesSoak applies ten churn batches under sustained traffic —
// each diffed against the previous batch's committed table — and requires
// zero mismatches throughout.
func TestRunUpdatesSoak(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 3)
	rep := runSpec(t, s, 41, hitlessSpec+"churn=10x48,cycles=40960")
	checkHitless(t, rep, 10)
	// The batches must actually land inside the traffic window, not pile up
	// in the drain: this is churn under load, not churn after it.
	underTraffic := 0
	for _, b := range rep.Batches {
		if b.DoneAt < rep.TrafficCycles {
			underTraffic++
		}
	}
	if underTraffic < 10 {
		t.Errorf("only %d/10 batches committed inside the traffic window", underTraffic)
	}
}

// TestRunUpdatesValidation: a churn run that cannot work is refused by the
// spec grammar before it reaches the runner, or by the runner against the
// system it is given (the per-system cases: TestScenarioInvalidOnSystem).
func TestRunUpdatesValidation(t *testing.T) {
	for _, bad := range []string{"churn=4x64,cycles=0", "churn=-1x64", "churn=0x64", "churn=4x0", "churn=4x64:vn=-1"} {
		if _, err := scenario.Parse(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestScrubAfterCommitBubbleKeepsTheOracle: a scrub that starts while an
// armed batch's commit bubble is in the pipe aborts the batch, and the
// manager keeps the old table, so the oracle that lookups injected from then
// on are checked against must be that table's again — not the post-update
// one the commit bubble flipped it to.
func TestScrubAfterCommitBubbleKeepsTheOracle(t *testing.T) {
	s, tables := buildSystem(t, core.VS, 3)
	g, err := traffic.New(traffic.Config{K: 3, Seed: 13, Addr: traffic.RoutedAddr, Tables: tables})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Parse("load=const:0.3,churn=1x64,cycles=4096,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := s.newScenRun(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := (scenChurn{r: r}).Boundary(0, false); err != nil {
		t.Fatal(err)
	}
	const vn = 0
	e := r.home[vn]
	h := e.handle
	if h == nil || h.VN() != vn {
		t.Fatalf("no batch armed on network %d's engine", vn)
	}
	// Serve, a cycle a slice, until the commit bubble is in the pipe.
	cyc := int64(0)
	for ; e.sim.PendingBubbles() > 0 || !e.sim.Updating(); cyc++ {
		if cyc > 1<<16 {
			t.Fatal("the commit bubble never entered the pipe")
		}
		if _, err := r.RunSlice(cyc, 1, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := (scenFaults{r: r, dev: e.dev}).startScrub(e, cyc); err != nil {
		t.Fatal(err)
	}
	if r.rep.BatchesAborted != 1 || e.dev.mgr.Tables()[vn] == h.Table() {
		t.Fatalf("the scrub did not abort the batch: %d aborted", r.rep.BatchesAborted)
	}
	kept, updated := e.dev.mgr.Tables()[vn].Reference(), h.Table().Reference()
	changed := 0
	for _, op := range h.Ops() {
		addr := op.Prefix.Addr
		if got, want := r.refs[vn].Lookup(addr), kept.Lookup(addr); got != want {
			t.Errorf("after the abort, the oracle answers %s with %d; the kept table routes it to %d", addr, got, want)
		}
		if updated.Lookup(addr) != kept.Lookup(addr) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("the batch changed no answer at its own prefixes: the test cannot tell the oracles apart")
	}
}
