package pipeline

// Telemetry parity between the two lookup cores: the scalar Sim and the
// batched BatchSim must not only agree on every Result (the existing
// differential tests) but also emit identical observability — the same
// process-wide counter deltas, the same per-stage activity, and identical
// energy-meter contents when each run's results are charged to a meter.
// A core that resolved the same packets but visited different stages, or
// double-counted a fault, would pass a results-only diff and still corrupt
// every downstream energy and utilization report. Run under -race: the test
// is single-goroutine but shares the global obs registry with the rest of
// the suite.

import (
	"math/rand"
	"reflect"
	"testing"

	"vrpower/internal/energy"
	"vrpower/internal/ip"
	"vrpower/internal/obs"
	"vrpower/internal/power"
)

// parityCounters are the process-wide metrics both cores bump on Run.
var parityCounters = []string{
	"pipeline.lookups_resolved",
	"pipeline.cycles_simulated",
	"pipeline.faults_detected",
}

// counterDeltas runs fn and returns each parity counter's delta across it.
func counterDeltas(fn func()) map[string]int64 {
	before := obs.TakeSnapshot()
	fn()
	out := make(map[string]int64, len(parityCounters))
	for _, name := range parityCounters {
		out[name] = obs.NewCounter(name).Value() - before.Counter(name)
	}
	return out
}

// chargeMeter replays a run's results into a fresh energy meter the way the
// netsim harnesses do: every completed lookup pays stages 0..LastStage.
func chargeMeter(m *energy.Model, k int, results []Result) *energy.Meter {
	mt := energy.NewMeter(m, k)
	for _, r := range results {
		mt.Lookup(0, r.VN, r.LastStage)
	}
	return mt
}

// TestTelemetryParityScalarVsBatched feeds the same request vectors (with
// in-range VNs, a sprinkling of traces, and a few injected SEUs so faulted
// walks are exercised) through both cores and asserts the telemetry planes
// match: obs counter deltas, Stats.StageActive, and the full energy meter.
func TestTelemetryParityScalarVsBatched(t *testing.T) {
	const k, stages, n = 3, 8, 4096
	img := compileMerged(t, k, 700, 42, stages)

	// Corrupt a spread of words before either core is built so both see the
	// same stale-parity faults and mid-walk detection fires on shared state.
	seuRng := rand.New(rand.NewSource(99))
	for i := 0; i < 64; i++ {
		stage, index, bit, ok := img.Locate(seuRng.Int63n(img.DataBits()))
		if !ok {
			t.Fatal("Locate failed")
		}
		img.FlipBit(stage, index, bit)
	}

	design := power.SystemDesign{
		FMHz:    250,
		Devices: 1,
		Engines: []power.EngineDesign{{
			StageBits:   stageBitsOf(img),
			Utilization: 1,
		}},
	}
	model, err := energy.NewModel(design)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Addr: ip.Addr(rng.Uint32()), VN: rng.Intn(k)}
		if i%64 == 0 {
			reqs[i].Trace = true
		}
	}

	for _, interarrival := range []int{1, 3} {
		var sRes, bRes []Result
		var sSt, bSt Stats
		sDelta := counterDeltas(func() {
			var err error
			sRes, sSt, err = NewSim(img).Run(reqs, interarrival)
			if err != nil {
				t.Fatal(err)
			}
		})
		bDelta := counterDeltas(func() {
			var err error
			bRes, bSt, err = NewBatchSim(img).Run(reqs, interarrival)
			if err != nil {
				t.Fatal(err)
			}
		})

		if !reflect.DeepEqual(sDelta, bDelta) {
			t.Errorf("interarrival %d: obs counter deltas diverge:\nscalar  %v\nbatched %v",
				interarrival, sDelta, bDelta)
		}
		if sDelta["pipeline.lookups_resolved"] != int64(n) {
			t.Errorf("interarrival %d: scalar resolved %d lookups, want %d",
				interarrival, sDelta["pipeline.lookups_resolved"], n)
		}
		if sDelta["pipeline.faults_detected"] == 0 {
			t.Errorf("interarrival %d: no faults detected — SEU injection not exercised", interarrival)
		}
		if !reflect.DeepEqual(sSt.StageActive, bSt.StageActive) {
			t.Errorf("interarrival %d: StageActive diverges:\nscalar  %v\nbatched %v",
				interarrival, sSt.StageActive, bSt.StageActive)
		}

		sm, bm := chargeMeter(model, k, sRes), chargeMeter(model, k, bRes)
		if !reflect.DeepEqual(sm, bm) {
			t.Errorf("interarrival %d: energy meters diverge:\nscalar  %+v\nbatched %+v",
				interarrival, sm, bm)
		}
		if sm.DynTotalFJ() <= 0 {
			t.Errorf("interarrival %d: meter charged no dynamic energy", interarrival)
		}
	}
}

// TestTelemetryParityStreamedBubblesAndSEUs extends the parity check to the
// way the slice runners drive an engine: one input slot per cycle at load
// 0.9 with parity checking on, a hitless update whose write bubbles take
// input slots mid-run, upsets landing under the lookups in the log, and a
// sprinkling of traced lookups. The scalar core hands a Result back per cycle
// and is charged per lookup; the batched one is settled as the runners settle
// it — drained when it is full and at the end, every batch charged
// to the meter as one bulk charge per (VN, last stage) count, every bubble a
// write per stage. Both must leave the same results, traced visits included,
// the same meter and the same Stats — stage activity and occupancy included.
// The process-wide counters are the batched engine's to advance: its Drains
// publish, in bulk, every exit handed back, every step taken and every faulted
// exit; the scalar oracle publishes only from Run and leaves them alone.
func TestTelemetryParityStreamedBubblesAndSEUs(t *testing.T) {
	const k, stages, slots = 3, 12, 6000
	pristine, _ := compileSet(t, k, 500, stages, 42)
	updated, _ := compileSet(t, k, 500, stages, 43)
	design := power.SystemDesign{
		FMHz:    250,
		Devices: 1,
		Engines: []power.EngineDesign{{
			StageBits:   stageBitsOf(pristine),
			Utilization: 1,
		}},
	}
	model, err := energy.NewModel(design)
	if err != nil {
		t.Fatal(err)
	}

	type run struct {
		st      Stats
		results []Result
		meter   *energy.Meter
		deltas  map[string]int64
	}
	// engine is what the schedule below needs of either core; slot feeds one
	// input slot — a write bubble, an idle cycle or a lookup — and patch
	// writes an upset under the core.
	type engine interface {
		BeginUpdate(*Image, int) error
		Updating() bool
		PendingBubbles() int
		EnableParityCheck()
		Stats() Stats
	}
	drive := func(eng engine, img *Image, slot func(r *run, c int, bubble bool, req *Request), patch func(write func()), finish func(r *run)) run {
		next := updated.Clone()
		eng.EnableParityCheck()
		r := run{meter: energy.NewMeter(model, k)}
		rng := rand.New(rand.NewSource(7))
		seu := rand.New(rand.NewSource(99))
		r.deltas = counterDeltas(func() {
			for c := 0; c < slots; c++ {
				if c == 2000 {
					if err := eng.BeginUpdate(next, 150); err != nil {
						t.Fatal(err)
					}
				}
				if c%400 == 399 {
					target := img
					if !eng.Updating() && c > 2000 {
						target = next // the commit drained: next serves now
					}
					s, idx, bit, _ := target.Locate(seu.Int63n(target.DataBits()))
					patch(func() { target.FlipBit(s, idx, bit) })
				}
				switch {
				case eng.PendingBubbles() > 0:
					slot(&r, c, true, nil)
					r.meter.Bubble(0, 0)
				case c%10 == 9:
					slot(&r, c, false, nil)
				default:
					slot(&r, c, false, &Request{Addr: ip.Addr(rng.Uint32()), VN: rng.Intn(k), Trace: c%64 == 0})
				}
			}
			finish(&r)
		})
		r.st = eng.Stats()
		return r
	}

	img := pristine.Clone()
	sim := NewSim(img)
	scalar := drive(sim, img, func(r *run, _ int, bubble bool, req *Request) {
		var res Result
		var ok bool
		if bubble {
			if res, ok, err = sim.InjectBubble(); err != nil {
				t.Fatal(err)
			}
		} else {
			res, ok = sim.Inject(req)
		}
		if ok {
			r.results = append(r.results, res)
			r.meter.Lookup(0, res.VN, res.LastStage)
		}
	}, func(write func()) { write() }, func(*run) {})

	img = pristine.Clone()
	bs := NewBatchSim(img)
	var exits []Exit
	settle := func(r *run) {
		exits = drainAll(bs, exits[:0])
		var counts [k][stages]int64
		for i := range exits {
			counts[exits[i].VN][exits[i].LastStage]++
			r.results = append(r.results, exits[i].Result)
		}
		for vn := range counts {
			for last, n := range counts[vn] {
				r.meter.LookupN(0, vn, last, n)
			}
		}
	}
	batched := drive(bs, img, func(r *run, c int, bubble bool, req *Request) {
		switch {
		case bubble:
			if err := bs.InjectBubble(int64(c)); err != nil {
				t.Fatal(err)
			}
		case req == nil:
			bs.Idle(int64(c))
		default:
			bs.Inject(*req, int64(c))
		}
		if bs.Full() {
			settle(r)
		}
	}, bs.Patch, settle)

	if !reflect.DeepEqual(scalar.results, batched.results) {
		t.Error("streamed results diverge")
	}
	traced, faulted := 0, 0
	for _, res := range batched.results {
		if len(res.Visits) > 0 {
			traced++
		}
		if res.Faulted {
			faulted++
		}
	}
	if !reflect.DeepEqual(scalar.st, batched.st) {
		t.Errorf("Stats diverge:\nscalar  %+v\nbatched %+v", scalar.st, batched.st)
	}
	if !reflect.DeepEqual(scalar.meter, batched.meter) {
		t.Errorf("energy meters diverge:\nscalar  %+v\nbatched %+v", scalar.meter, batched.meter)
	}
	wantDeltas := map[string]int64{
		"pipeline.lookups_resolved": int64(len(batched.results)),
		"pipeline.cycles_simulated": slots,
		"pipeline.faults_detected":  int64(faulted),
	}
	if !reflect.DeepEqual(batched.deltas, wantDeltas) {
		t.Errorf("batched obs counter deltas %v, want %v (exits handed back, steps taken, faulted exits)", batched.deltas, wantDeltas)
	}
	for name, d := range scalar.deltas {
		if d != 0 {
			t.Errorf("streamed scalar oracle moved %s by %d", name, d)
		}
	}
	if scalar.st.Bubbles != 150 || scalar.st.Faults == 0 || traced < slots/100 {
		t.Errorf("run had %d bubbles, %d faults and %d traced lookups; want 150, some and about %d — weaken the test",
			scalar.st.Bubbles, scalar.st.Faults, traced, slots/64)
	}
}

// TestPublishedCountersFollowStats: whatever mix of Run, streamed steps,
// Drain and Reset an engine sees, the process-wide counters advance by what
// its Stats count once everything is drained — nothing twice (a Run after
// streamed steps, a Drain after a Run), and nothing published is taken back
// by a Reset or by dropping the engine.
func TestPublishedCountersFollowStats(t *testing.T) {
	img := compileSingle(t, genTable(t, 300, 12), 28)
	reqs := randReqs(rand.New(rand.NewSource(13)), 700, 1, 0)
	var want Stats
	deltas := counterDeltas(func() {
		b := NewBatchSim(img)
		for i := 0; i < 5; i++ {
			b.Idle(int64(i)) // unpublished steps ahead of a Run
		}
		if _, _, err := b.Run(reqs, 2); err != nil {
			t.Fatal(err)
		}
		exits, st := streamAll(b, reqs[:300])
		if len(exits) != 300 {
			t.Fatalf("%d exits, want 300", len(exits))
		}
		want = st
		b.Reset()
		b.Inject(reqs[0], 0) // a step and a lookup the Reset below drops unpublished
		b.Reset()
	})
	got := Stats{Lookups: deltas["pipeline.lookups_resolved"], Cycles: deltas["pipeline.cycles_simulated"], Faults: deltas["pipeline.faults_detected"]}
	if got.Lookups != want.Lookups || got.Cycles != want.Cycles || got.Faults != want.Faults || want.Lookups != 1000 {
		t.Errorf("counters moved by %d lookups, %d cycles, %d faults; Stats say %d, %d, %d", got.Lookups, got.Cycles, got.Faults, want.Lookups, want.Cycles, want.Faults)
	}
}
