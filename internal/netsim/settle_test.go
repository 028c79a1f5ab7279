package netsim

// Tests for batch settling: a serve loop pushes lookups into its engines and
// settles their exits a batch at a time, and every report, series row and
// trace must come out as when each exit was handled on the cycle it left.
// The equivalence goldens hold the runners to that byte for byte; the tests
// here take the places where settling in a batch could go wrong one at a
// time, each with an assertion that names what went wrong.

import (
	"fmt"
	"sort"
	"strconv"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/ctrl"
	"vrpower/internal/governor"
	"vrpower/internal/ip"
	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
	"vrpower/internal/update"
)

// A frequency-stepped engine sits cycles out: its own clock trails the run's,
// and a delay taken from it would come out short by every cycle it sat out —
// soon negative. Delay is arrival to exit on the run's clock: never less than
// the pipe's depth, and longer than that at a stepped clock.
func TestSettledDelayIsInRunCyclesUnderSteppedClock(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 3)
	stages := float64(s.router.Images()[0].Stages())
	const cycles = 32 * 1024
	const spec = "load=const:0.3,cycles=32768"
	free := runSpec(t, s, 31, spec)
	if free.MeanDelayCycles != stages {
		t.Fatalf("ungoverned VS at load 0.3: mean delay %.2f, want the pipe depth %v", free.MeanDelayCycles, stages)
	}
	s.SetGovernor(&governor.Config{CapWatts: capBelowSteady(s, 0.3, 0.5)})
	rep := runSpec(t, s, 31, spec)
	if g := rep.Governor; g.TimeAtRung[0] > cycles/4 {
		t.Fatalf("the cap left the clock at full rate for %d of %d cycles: %+v", g.TimeAtRung[0], cycles, g)
	}
	if rep.MeanDelayCycles <= stages {
		t.Errorf("mean delay %.2f cycles under a stepped clock, want more than the pipe depth %v: the exit stamp is not the runner's cycle",
			rep.MeanDelayCycles, stages)
	}
}

// A browned-out fleet device sits alternate cycles out, and from then on its
// engines' clocks trail the run's by every cycle lost. Same trap, other
// runner: the mean delay must stay above the pipe depth, and above what the
// same fleet reads without the brownout.
func TestSettledDelayIsInRunCyclesUnderBrownout(t *testing.T) {
	const spec = "load=const:0.4,fleet=2:spare=1,cycles=16384,queue=32,seed=11"
	calm := runFleet(t, 8, spec)
	rep := runFleet(t, 8, "chaos=brownout:1,"+spec)
	var browned int64
	for _, d := range rep.Fleet.PerDevice {
		browned += d.BrownedCycles
	}
	if browned == 0 {
		t.Fatal("no device browned out")
	}
	s, _ := buildSystem(t, core.VS, 8)
	if stages := float64(s.router.Images()[0].Stages()); calm.MeanDelayCycles < stages || rep.MeanDelayCycles <= calm.MeanDelayCycles {
		t.Errorf("mean delay %.3f cycles with %d cycles browned out, %.3f without: want both at least the pipe depth and the first above the second",
			rep.MeanDelayCycles, browned, calm.MeanDelayCycles)
	}
}

// traceRun runs spec on a VS system with every lookup traced into a ring of
// ringCap entries.
func traceRun(t *testing.T, k int, spec string, ringCap int) (ScenarioReport, []*obs.FlightTrace) {
	t.Helper()
	s, _ := buildSystem(t, core.VS, k)
	tel := &Telemetry{Sampler: obs.NewTraceSampler(1, 1), Traces: obs.NewTraceRing(ringCap)}
	s.SetTelemetry(tel)
	rep, err := s.RunScenario(faultGen(t, s, 17), mustParse(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	return rep, tel.Traces.Snapshot()
}

// A parity-refused lookup raises its engine's detection flag, and the next
// slice boundary turns the flag into a scrub. The flag must be up by the end
// of the slice the lookup left in, however its exit is batched: every slice
// in which an engine refused a lookup ends in a detection on that engine
// (by access, or by the sweep if that saw the upset first), and every
// detection by access follows a slice with a refusal. (Ungoverned per-network
// engines without churn never queue, so a lookup arriving at cycle c leaves
// at c + Stages on the run's clock; the trace's own stamps are the engine's
// clock, which a reload resets.)
func TestAccessDetectionSeenBySameBoundary(t *testing.T) {
	const k, slice = 2, 1024
	s, _ := buildSystem(t, core.VS, k)
	stages := int64(s.router.Images()[0].Stages())
	rate := seuRateFor(s, 24, 16384)
	rep, traces := traceRun(t, k, "load=const:0.9,faults=seu:"+strconv.FormatFloat(rate, 'g', -1, 64)+",cycles=16384,queue=32,seed=5", 1<<16)
	type at struct {
		engine   int
		boundary int64
	}
	refusedBefore, detected, byAccess := map[at]bool{}, map[at]bool{}, 0
	for _, ft := range traces {
		if ft.Outcome == "drop-fault" {
			left := ft.Seq/k + stages
			refusedBefore[at{ft.Engine, (left/slice + 1) * slice}] = true
		}
	}
	for _, u := range rep.SEUs {
		detected[at{u.Engine, u.DetectedAt}] = true
		if u.Via == ViaAccess {
			byAccess++
			if !refusedBefore[at{u.Engine, u.DetectedAt}] {
				t.Errorf("upset %d on engine %d detected by access at %d, but the engine refused no lookup in the slice before", u.Seq, u.Engine, u.DetectedAt)
			}
		}
	}
	for r := range refusedBefore {
		if !detected[r] {
			t.Errorf("engine %d refused a lookup in [%d, %d) and nothing was detected on it at %d: the flag went up late",
				r.engine, r.boundary-slice, r.boundary, r.boundary)
		}
	}
	if byAccess == 0 {
		t.Fatalf("no upset was detected by access (%d upsets): pick another seed", len(rep.SEUs))
	}
}

// Past its capacity the trace ring keeps what was put last, so the order of
// Puts is observable. The per-cycle loops put a cycle's traces engine by
// engine; settling puts them in the same order although it meets them engine
// by engine, a batch of cycles at a time. On per-network engines that never
// queue, that order is the order of Seq: a ring a tenth the size of the run
// retains exactly the highest Seqs.
func TestTracePutOrderSurvivesBatchSettling(t *testing.T) {
	const spec = "load=const:0.9,cycles=4096,queue=32,seed=3"
	_, all := traceRun(t, 3, spec, 1<<14)
	_, kept := traceRun(t, 3, spec, 1024)
	if len(all) < 8*1024 || len(kept) != 1024 {
		t.Fatalf("%d traces in all, %d retained; want over 8192 and exactly 1024", len(all), len(kept))
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	for i, want := range all[len(all)-1024:] {
		if kept[i].Seq != want.Seq {
			t.Fatalf("retained trace %d has seq %d, want %d: traces were not put in (cycle, engine) order", i, kept[i].Seq, want.Seq)
		}
	}
}

// One batch can hold lookups injected before a commit bubble and after it. A
// lookup is checked against the table of its injection epoch — the reference
// it was pushed with — not against whatever serves when it is settled. And
// settled, an engine's in-flight list is exactly its pipe: what a flush then
// drops is what the hardware would lose.
func TestSettleAcrossCommitBubbleAndFlush(t *testing.T) {
	s, tables := buildSystem(t, core.VS, 1)
	mgr, err := ctrl.New(s.router.Config(), tables)
	if err != nil {
		t.Fatal(err)
	}
	images, err := mgr.PinnedImages()
	if err != nil {
		t.Fatal(err)
	}
	ops, err := update.Churn(tables[0], 64, update.ChurnConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	h, err := mgr.BeginHitlessUpdate(0, ops)
	if err != nil {
		t.Fatal(err)
	}
	oldRef, newRef := tables[0].Reference(), h.Table().Reference()
	var moved []ip.Addr
	for _, op := range ops {
		if a := op.Prefix.Addr; oldRef.Lookup(a) != newRef.Lookup(a) {
			moved = append(moved, a)
		}
	}
	if len(moved) < 8 {
		t.Fatalf("the batch moved %d probe addresses, want eight", len(moved))
	}
	moved = moved[:8] // both groups fit in the pipe with the bubbles between them

	stages := images[0].Stages()
	run := func(refBefore, refAfter *ip.Table) *settler {
		sim := pipeline.NewBatchSim(images[0])
		sim.EnableParityCheck()
		if err := sim.BeginUpdate(h.Image(), 3); err != nil {
			t.Fatal(err)
		}
		st := &settler{tel: noTelemetry, seqStride: 1, delivered: make([]int64, 1), dropped: make([]int64, 1),
			dropVN: []*obs.Counter{obs.NewCounter("netsim.fault_drops.vn00")}} // the run's K=1 fixture
		meter, cyc := s.meter(), int64(0)
		e := &scenEng{sim: sim, served: []int{0}, flights: newFlights(images[0]), pending: make([]int64, 1)}
		inject := func(ref *ip.Table) {
			for _, a := range moved {
				e.flights = append(e.flights, inflight{arrival: cyc, ref: ref})
				e.pending[0]++
				sim.Inject(pipeline.Request{Addr: a}, cyc)
				cyc++
			}
		}
		inject(refBefore)
		for sim.PendingBubbles() > 0 {
			if err := sim.InjectBubble(cyc); err != nil {
				t.Fatal(err)
			}
			cyc++
		}
		inject(refAfter)
		for sim.Updating() {
			sim.Idle(cyc)
			cyc++
		}
		// The commit bubble has just left: every lookup ahead of it has too,
		// none behind it has, and nothing is settled yet.
		st.settle(e, meter, 0, 0)
		if len(e.flights) != len(moved) || e.pending[0] != int64(len(moved)) {
			t.Fatalf("%d lookups in flight after settling (%d counted), want the %d still in the pipe", len(e.flights), e.pending[0], len(moved))
		}
		for i := 0; i < stages; i++ {
			sim.Idle(cyc)
			cyc++
		}
		st.settle(e, meter, 0, 0)
		if len(e.flights) != 0 || e.pending[0] != 0 || st.total+st.mismatches != int64(2*len(moved)) || st.faulted != 0 {
			t.Fatalf("%d in flight, %d delivered, %d mismatched, %d refused of %d lookups", len(e.flights), st.total, st.mismatches, st.faulted, 2*len(moved))
		}
		if meter.Lookups != int64(2*len(moved)) || st.delaySum != st.total*int64(stages) {
			t.Fatalf("meter charged %d lookups, %d delivered with delays summing to %d; want %d charged and a pipe depth of %d each",
				meter.Lookups, st.total, st.delaySum, 2*len(moved), stages)
		}
		return st
	}
	if st := run(oldRef, newRef); st.mismatches != 0 {
		t.Errorf("%d mismatches with every lookup checked against the table of its epoch", st.mismatches)
	}
	if st := run(newRef, newRef); st.mismatches != int64(len(moved)) {
		t.Errorf("%d mismatches with the lookups ahead of the commit bubble checked against the new table, want %d: the check has no teeth",
			st.mismatches, len(moved))
	}
}

// TestLongSliceSettlesEveryEngineBound: a slice 64 times pipeline.SettleCycles
// long is settled every SettleCycles cycles, so no engine is stepped past its
// bound (it would panic) and no in-flight list — an engine's unsettled
// lookups — outgrows the room newFlights gives it, Stages+SettleCycles.
func TestLongSliceSettlesEveryEngineBound(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 2)
	spec := mustParse(t, fmt.Sprintf("load=const:0.95,slice=%d,cycles=%d", 64*pipeline.SettleCycles, 128*pipeline.SettleCycles))
	r, err := s.runScenario(faultGen(t, s, 5), spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.rep.SliceCycles != 64*pipeline.SettleCycles || !r.rep.Completed || r.rep.Mismatches != 0 {
		t.Fatalf("%d-cycle slices, completed %v, %d mismatches", r.rep.SliceCycles, r.rep.Completed, r.rep.Mismatches)
	}
	for _, e := range r.devs[0].engines {
		if bound := e.fs.img.Stages() + pipeline.SettleCycles; cap(e.flights) != bound {
			t.Errorf("engine %d: in-flight list grew to %d, want it within Stages+SettleCycles = %d", e.idx, cap(e.flights), bound)
		}
	}
}
