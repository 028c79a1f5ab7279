package pipeline

// Differential tests for the streaming engine: a Sim and a BatchSim are
// driven in lockstep, one input slot per step, through random interleavings
// of everything a slice runner does to an engine — inject, idle, write
// bubble, BeginUpdate, AbortUpdate, an upset in the serving (or armed) image
// followed by Patch, a reload (fresh engines over a fresh clone), parity
// checking switched on and Stats reads — and must agree on every Result,
// every error and every Stats field.

import (
	"math/rand"
	"reflect"
	"testing"

	"vrpower/internal/ip"
	"vrpower/internal/merge"
	"vrpower/internal/obs"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

// streamEngine is the call shape the slice runners use, which both engines
// offer.
type streamEngine interface {
	Inject(*Request) (Result, bool)
	InjectBubble() (Result, bool, error)
	BeginUpdate(*Image, int) error
	AbortUpdate() error
	Updating() bool
	PendingBubbles() int
	Stats() Stats
	EnableParityCheck()
}

var (
	_ streamEngine = (*Sim)(nil)
	_ streamEngine = (*BatchSim)(nil)
)

// compileSet compiles a K-network table set under the pinned fold-into-
// stage-0 map over all 33 levels, so images of different sets share stage
// geometry and can replace one another through BeginUpdate.
func compileSet(t testing.TB, k, prefixes, stages int, seed int64) (*Image, []ip.Addr) {
	t.Helper()
	set, err := rib.GenerateVirtualSet(k, prefixes, 0.5, seed)
	if err != nil {
		t.Skip() // degenerate generator parameters (fuzzing)
	}
	sm, err := trie.NewStageMap(stages, 32)
	if err != nil {
		t.Fatal(err)
	}
	var img *Image
	if k == 1 {
		tr := trie.Build(set.Tables[0].Routes)
		tr.LeafPush()
		img, err = CompileMapped(tr, sm)
	} else {
		var m *merge.Trie
		if m, err = merge.Build(set.Tables); err != nil {
			t.Fatal(err)
		}
		m.LeafPush()
		img, err = CompileMergedMapped(m, sm)
	}
	if err != nil {
		t.Fatal(err)
	}
	var routed []ip.Addr
	for _, tbl := range set.Tables {
		for _, r := range tbl.Routes {
			routed = append(routed, r.Prefix.Addr)
		}
	}
	return img, routed
}

// lockstep runs one op stream. ops picks the operation per step; every
// operand is drawn from the seed. With statsEveryStep the engines' Stats
// are compared after every step (so every batched walk has run ahead to its
// end one step after injection, and each patch or parity switch rolls a
// pipe-full of them back); without it only where the stream says so, which
// leaves lookups unwalked across bubbles, bank flips and patches until one
// of them leaves.
func lockstep(t testing.TB, seed int64, ops []byte, statsEveryStep bool) {
	rng := rand.New(rand.NewSource(seed))
	k := 1 + rng.Intn(3)
	stages := []int{3, 6, 12, 28}[rng.Intn(4)]
	parity := rng.Intn(3) > 0
	var pristine [2]*Image
	var routed []ip.Addr
	for i := range pristine {
		var r []ip.Addr
		pristine[i], r = compileSet(t, k, 30+rng.Intn(200), stages, seed+int64(i))
		routed = append(routed, r...)
	}

	var scalar, batched streamEngine
	var img, next *Image
	reload := func() {
		img, next = pristine[rng.Intn(2)].Clone(), nil
		scalar, batched = NewSim(img), NewBatchSim(img)
		if parity {
			scalar.EnableParityCheck()
			batched.EnableParityCheck()
		}
	}
	reload()

	checkStats := func(step int) {
		t.Helper()
		if want, got := scalar.Stats(), batched.Stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: stats diverge:\nbatched %+v\nscalar  %+v", step, got, want)
		}
	}
	checkStep := func(step int, op string, want, got Result, wantOK, gotOK bool, wantErr, gotErr error) {
		t.Helper()
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("step %d (%s): batched error %v, scalar %v", step, op, gotErr, wantErr)
		}
		if wantOK != gotOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): results diverge:\nbatched %v %+v\nscalar  %v %+v", step, op, gotOK, got, wantOK, want)
		}
		if scalar.Updating() != batched.Updating() || scalar.PendingBubbles() != batched.PendingBubbles() {
			t.Fatalf("step %d (%s): update state diverges: batched (%v, %d), scalar (%v, %d)", step, op,
				batched.Updating(), batched.PendingBubbles(), scalar.Updating(), scalar.PendingBubbles())
		}
		if next != nil && !scalar.Updating() {
			img, next = next, nil // the commit bubble drained: next now serves
		}
		if statsEveryStep {
			checkStats(step)
		}
	}

	for step, op := range ops {
		switch op % 16 {
		default: // inject a lookup
			addr := ip.Addr(rng.Uint32())
			if rng.Intn(2) == 0 {
				addr = routed[rng.Intn(len(routed))] | ip.Addr(rng.Intn(256))
			}
			req := Request{Addr: addr, VN: rng.Intn(k+2) - 1, Trace: rng.Intn(8) == 0}
			rs, okS := scalar.Inject(&req)
			rb, okB := batched.Inject(&req)
			checkStep(step, "inject", rs, rb, okS, okB, nil, nil)
		case 7, 8: // idle input slot
			rs, okS := scalar.Inject(nil)
			rb, okB := batched.Inject(nil)
			checkStep(step, "idle", rs, rb, okS, okB, nil, nil)
		case 9, 10: // write bubble (an error on both when none is pending)
			rs, okS, errS := scalar.InjectBubble()
			rb, okB, errB := batched.InjectBubble()
			checkStep(step, "bubble", rs, rb, okS, okB, errS, errB)
		case 11: // arm an update (an error on both when one is in flight)
			cand := pristine[rng.Intn(2)].Clone()
			bubbles := rng.Intn(2 * stages)
			errS, errB := scalar.BeginUpdate(cand, bubbles), batched.BeginUpdate(cand, bubbles)
			if errS == nil {
				next = cand
			}
			checkStep(step, "begin", Result{}, Result{}, false, false, errS, errB)
		case 12:
			errS, errB := scalar.AbortUpdate(), batched.AbortUpdate()
			if errS == nil {
				next = nil
			}
			checkStep(step, "abort", Result{}, Result{}, false, false, errS, errB)
		case 13: // an upset under in-flight lookups, then Patch
			target := img
			if next != nil && rng.Intn(3) == 0 {
				target = next
			}
			s, idx, bit, ok := target.Locate(rng.Int63n(target.DataBits()))
			if !ok {
				t.Fatal("Locate failed in range")
			}
			if e := &target.Stages[s].Entries[idx]; parity || e.Leaf {
				target.FlipBit(s, idx, bit)
			} else {
				// Unchecked, a flipped pointer could close a cycle inside a
				// folded stage; send it out of every stage's range instead,
				// in parity, so only the address decoder catches it.
				e.Child[bit&1] = 1<<29 + uint32(bit)
				e.Parity = e.DataParity()
			}
			batched.(*BatchSim).Patch(s, idx)
		case 14: // rarer than their op code: a reload, or parity switched on mid-flight
			switch r := rng.Intn(8); {
			case r < 2:
				reload()
			case r == 2 && !parity:
				parity = true
				scalar.EnableParityCheck()
				batched.EnableParityCheck()
			}
		case 15:
			checkStats(step)
		}
	}
	// Drain and compare the final state.
	for i := 0; i <= stages; i++ {
		rs, okS := scalar.Inject(nil)
		rb, okB := batched.Inject(nil)
		checkStep(len(ops)+i, "drain", rs, rb, okS, okB, nil, nil)
	}
	checkStats(len(ops) + stages)
}

// TestStreamMatchesSimOpStreams runs seeded op streams in both Stats modes.
func TestStreamMatchesSimOpStreams(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed * 7919))
		ops := make([]byte, 1500)
		rng.Read(ops)
		lockstep(t, seed, ops, false)
		lockstep(t, seed, ops, true)
	}
}

// FuzzStreamVsSim lets the fuzzer choose the interleaving.
func FuzzStreamVsSim(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 11, 9, 0, 13, 9, 9, 0, 15, 7, 0, 0, 12, 14})
	f.Add(int64(2), []byte{11, 10, 0, 13, 0, 0, 9, 9, 9, 9, 9, 9, 0, 15, 13, 0, 0, 0, 0})
	f.Add(int64(3), []byte{0, 0, 0, 0, 13, 15, 0, 0, 11, 13, 9, 0, 0, 0, 0, 0, 0, 11, 9, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		lockstep(t, seed, ops, seed%2 == 0)
	})
}

// TestStreamParitySwitchMidFlight: a lookup that read a stale-parity leaf
// before checking was switched on keeps its (corrupt) answer, as in the
// cycle-stepped engine; one still short of the leaf faults on it — also when
// a Stats read just before the switch has let both walks run ahead to the
// leaf unchecked.
func TestStreamParitySwitchMidFlight(t *testing.T) {
	for _, runAhead := range []bool{false, true} {
		img := compileSingle(t, genTable(t, 300, 65), 28)
		req := Request{Addr: genTable(t, 300, 65).Routes[150].Prefix.Addr, Trace: true}
		probe, _, err := NewSim(img).Run([]Request{req}, 1)
		if err != nil {
			t.Fatal(err)
		}
		leaf := probe[0].Visits[len(probe[0].Visits)-1]
		if leaf.Stage == 0 || leaf.Stage == 27 {
			t.Fatalf("leaf in stage %d; pick an address that resolves mid-pipe", leaf.Stage)
		}
		img.FlipBit(leaf.Stage, leaf.Entry, 0)
		engines := []streamEngine{NewSim(img), NewBatchSim(img)}
		var got [2][]Result
		for i, e := range engines {
			e.Inject(&req) // will be past the leaf at the switch
			for c := 0; c < leaf.Stage; c++ {
				e.Inject(nil)
			}
			e.Inject(&req) // will still be short of it
			if runAhead {
				e.Stats()
			}
			e.EnableParityCheck()
			for c := 0; c < 28; c++ {
				if r, ok := e.Inject(nil); ok {
					got[i] = append(got[i], r)
				}
			}
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("run-ahead %v: results diverge:\nscalar  %+v\nbatched %+v", runAhead, got[0], got[1])
		}
		if len(got[0]) != 2 || got[0][0].Faulted || !got[0][1].Faulted {
			t.Fatalf("run-ahead %v: want the first lookup served and the second faulted, got %+v", runAhead, got[0])
		}
	}
}

// pair drives a Sim and a BatchSim over the same images in lockstep for the
// directed run-ahead tests. Every step compares the Result and then both
// Stats, and that Stats read lets every walk in the batched ring run ahead
// to its end — so whatever changes next changes under run-ahead walks.
type pair struct {
	t       *testing.T
	scalar  *Sim
	batched *BatchSim
	steps   int
	out     []Result
}

func newPair(t *testing.T, img *Image) *pair {
	p := &pair{t: t, scalar: NewSim(img), batched: NewBatchSim(img)}
	p.scalar.EnableParityCheck()
	p.batched.EnableParityCheck()
	return p
}

func (p *pair) stats() Stats {
	p.t.Helper()
	want, got := p.scalar.Stats(), p.batched.Stats()
	if !reflect.DeepEqual(got, want) {
		p.t.Fatalf("after %d steps: stats diverge:\nbatched %+v\nscalar  %+v", p.steps, got, want)
	}
	return got
}

func (p *pair) check(want, got Result, wantOK, gotOK bool) {
	p.t.Helper()
	p.steps++
	if wantOK != gotOK || !reflect.DeepEqual(got, want) {
		p.t.Fatalf("step %d: results diverge:\nbatched %v %+v\nscalar  %v %+v", p.steps, gotOK, got, wantOK, want)
	}
	if gotOK {
		p.out = append(p.out, got)
	}
	p.stats()
}

// inject feeds req (nil: an idle slot) to both engines.
func (p *pair) inject(req *Request) {
	p.t.Helper()
	want, wantOK := p.scalar.Inject(req)
	got, gotOK := p.batched.Inject(req)
	p.check(want, got, wantOK, gotOK)
}

func (p *pair) bubble() {
	p.t.Helper()
	want, wantOK, errS := p.scalar.InjectBubble()
	got, gotOK, errB := p.batched.InjectBubble()
	if errS != nil || errB != nil {
		p.t.Fatalf("bubble: scalar %v, batched %v", errS, errB)
	}
	p.check(want, got, wantOK, gotOK)
}

// upset flips a bit of the entry v visited, in img, and tells the batched
// engine (the scalar one reads img itself).
func (p *pair) upset(img *Image, v obs.StageVisit) {
	p.t.Helper()
	if !img.FlipBit(v.Stage, v.Entry, 0) {
		p.t.Fatalf("no entry %d in stage %d", v.Entry, v.Stage)
	}
	p.batched.Patch(v.Stage, v.Entry)
}

// pathOf returns the first visit a lookup of addr makes in every stage of img,
// down to the stage it ends in.
func pathOf(t *testing.T, img *Image, addr ip.Addr) []obs.StageVisit {
	t.Helper()
	res, _, err := NewSim(img).Run([]Request{{Addr: addr, Trace: true}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	at := make([]obs.StageVisit, res[0].LastStage+1)
	for i := len(res[0].Visits) - 1; i >= 0; i-- {
		at[res[0].Visits[i].Stage] = res[0].Visits[i]
	}
	return at
}

// deepPath returns a traced request for the first of addrs whose walk in img
// goes through stage minStage, and its path.
func deepPath(t *testing.T, img *Image, addrs []ip.Addr, minStage int) (Request, []obs.StageVisit) {
	t.Helper()
	for _, a := range addrs {
		if at := pathOf(t, img, a); len(at) > minStage {
			return Request{Addr: a, Trace: true}, at
		}
	}
	t.Fatalf("no address is still walking in stage %d", minStage)
	return Request{}, nil
}

func routedAddrs(tbl *rib.Table) []ip.Addr {
	addrs := make([]ip.Addr, len(tbl.Routes))
	for i, r := range tbl.Routes {
		addrs[i] = r.Prefix.Addr
	}
	return addrs
}

// faultStages lists where the lookups came out: the stage each faulted in,
// -1 for one that was served.
func faultStages(results []Result) []int {
	var out []int
	for _, r := range results {
		if r.Faulted {
			out = append(out, r.LastStage)
		} else {
			out = append(out, -1)
		}
	}
	return out
}

// TestStreamTwoUpsetsUnderRunAhead: six lookups of one address, two cycles
// apart and every other one traced, all walked to their ends ahead of the
// clock; then an upset on their path in stage 4, which four of them have
// passed, and two steps later one in stage 10, which two have passed. Each
// lookup must come out as the cycle-stepped engine says — served if it was
// past both words when they were struck, faulted in the first struck stage it
// had still to reach — with every traced visit there once: a walk redone
// after an upset keeps what it read in the stages behind it, and reads the
// earlier upset only if it had not passed it then either.
func TestStreamTwoUpsetsUnderRunAhead(t *testing.T) {
	tbl := genTable(t, 300, 65)
	img := compileSingle(t, tbl, 28)
	req, at := deepPath(t, img, routedAddrs(tbl), 12)
	plain := req
	plain.Trace = false
	p := newPair(t, img)
	for i := 0; i < 3; i++ {
		p.inject(&req)
		p.inject(nil)
		p.inject(&plain)
		p.inject(nil)
	}
	// Twelve steps in: the lookups have been through stages 11, 9, 7, 5, 3, 1.
	p.upset(img, at[4])
	p.inject(nil)
	p.inject(nil)
	// Fourteen steps in: through 13, 11, 9, 7, 5, 3.
	p.upset(img, at[10])
	for i := 0; i < 28; i++ {
		p.inject(nil)
	}
	if got, want := faultStages(p.out), []int{-1, -1, 10, 10, 4, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("lookups ended %v, want %v (-1: served)", got, want)
	}
}

// TestStreamStatsBeforeFaultIsReached: a lookup bound to fault in stage 8 is
// walked to that fault by the first Stats read, one step after injection;
// the fault, and the end of the lookup's stage activity, must show in Stats
// only once the lookup has reached stage 8.
func TestStreamStatsBeforeFaultIsReached(t *testing.T) {
	tbl := genTable(t, 300, 65)
	img := compileSingle(t, tbl, 28)
	req, at := deepPath(t, img, routedAddrs(tbl), 12)
	req.Trace = false
	img.FlipBit(at[8].Stage, at[8].Entry, 0)
	p := newPair(t, img)
	p.inject(&req)
	for reached := 0; reached < 28; reached++ {
		st := p.stats()
		wantFaults, wantDeepest := int64(0), reached
		if reached >= 8 {
			wantFaults, wantDeepest = 1, 8
		}
		if st.Faults != wantFaults {
			t.Fatalf("through stage %d: Faults = %d, want %d", reached, st.Faults, wantFaults)
		}
		for s, n := range st.StageActive {
			if active := s <= wantDeepest; n > 1 || (n == 1) != active {
				t.Fatalf("through stage %d: StageActive = %v, want ones through stage %d", reached, st.StageActive, wantDeepest)
			}
		}
		p.inject(nil)
	}
	if got := faultStages(p.out); !reflect.DeepEqual(got, []int{8}) {
		t.Fatalf("lookup ended %v, want faulted in stage 8", got)
	}
}

// TestStreamCommitBubbleBetweenRunAheadBanks: lookups ahead of the commit
// bubble and behind it are in the pipe together, all walked ahead — each on
// the bank fixed when it was injected — when an upset strikes each bank on
// their path. The rollback redoes every walk on its own bank: old-bank
// lookups keep the old table's answer or fault on the old image's upset,
// new-bank ones the new table's or the armed image's.
func TestStreamCommitBubbleBetweenRunAheadBanks(t *testing.T) {
	oldTbl, newTbl := genTables(t)
	oldImg, newImg := compilePinned(t, oldTbl), compilePinned(t, newTbl)
	// An address the update gives another next hop, resolved well down the
	// pipe in both images.
	var moved []ip.Addr
	for _, a := range routedAddrs(oldTbl) {
		if Lookup(oldImg, Request{Addr: a}) != Lookup(newImg, Request{Addr: a}) && len(pathOf(t, newImg, a)) > 4 {
			moved = append(moved, a)
		}
	}
	req, atOld := deepPath(t, oldImg, moved, 10)
	atNew := pathOf(t, newImg, req.Addr)
	plain := req
	plain.Trace = false

	p := newPair(t, oldImg)
	for _, r := range []*Request{&req, &plain, &req, &plain} {
		p.inject(r)
	}
	for _, e := range []streamEngine{p.scalar, p.batched} {
		if err := e.BeginUpdate(newImg, 2); err != nil {
			t.Fatal(err)
		}
	}
	p.bubble()
	p.inject(&req) // between the bubbles: still the old bank
	p.bubble()     // the commit bubble
	for _, r := range []*Request{&plain, &req, &plain, &req} {
		p.inject(r)
	}
	// Eleven steps in. Old bank: through stages 10, 9, 8, 7 and 5; the commit
	// bubble through 4; new bank: through 3, 2, 1, 0.
	p.upset(newImg, atNew[2]) // stage 2: the last two new-bank lookups fault
	p.upset(oldImg, atOld[8]) // stage 8: the last two old-bank lookups fault
	p.inject(&plain)          // walked ahead on the struck shadow bank, never rolled back
	for i := 0; i < 28; i++ {
		p.inject(nil)
	}
	if got, want := faultStages(p.out), []int{-1, -1, -1, 8, 8, -1, -1, 2, 2, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("lookups ended %v, want %v (-1: served)", got, want)
	}
	if oldHop, newHop := p.out[0].NHI, p.out[5].NHI; oldHop == newHop || p.out[2].NHI != oldHop || p.out[6].NHI != newHop {
		t.Fatalf("next hops %d %d | %d %d: want the old table's ahead of the commit bubble, the new one's behind",
			p.out[0].NHI, p.out[2].NHI, p.out[5].NHI, p.out[6].NHI)
	}
}

// TestStreamedRunRejectedMidFlight: Run's closed-form schedule assumes an
// empty pipe, so it refuses an engine with streamed lookups in flight.
func TestStreamedRunRejectedMidFlight(t *testing.T) {
	img := compileSingle(t, genTable(t, 50, 63), 8)
	sim := NewBatchSim(img)
	sim.Inject(&Request{Addr: 1})
	if _, _, err := sim.Run(nil, 1); err == nil {
		t.Error("Run accepted an engine with a lookup in flight")
	}
	for i := 0; i < 8; i++ {
		sim.Inject(nil)
	}
	if _, _, err := sim.Run(nil, 1); err != nil {
		t.Errorf("Run refused a drained engine: %v", err)
	}
}

// TestEnginesShareFlatImageUntilPatched pins the ownership rule: engines
// over one Image read one flat form; an upset makes the patched engine take
// its own copy, and the engines built before and after it are untouched.
func TestEnginesShareFlatImageUntilPatched(t *testing.T) {
	img := compileSingle(t, genTable(t, 300, 64), 16)
	a, b := NewBatchSim(img), NewBatchSim(img)
	if a.cur.flat != b.cur.flat {
		t.Fatal("two engines over one image flattened it twice")
	}
	if c := NewBatchSim(img.Clone()); c.cur.flat == a.cur.flat {
		t.Fatal("a clone shares its source's flat form")
	}
	shared := a.cur.flat
	s, idx, bit, _ := img.Locate(img.DataBits() / 2)
	img.FlipBit(s, idx, bit)
	a.Patch(s, idx)
	if a.cur.flat == shared || b.cur.flat != shared {
		t.Fatal("Patch wrote a shared flat form")
	}
	if shared.stages[s].meta[idx]&metaParityBad != 0 {
		t.Fatal("the shared flat form took the upset")
	}
	if a.cur.flat.stages[s].meta[idx]&metaParityBad == 0 {
		t.Fatal("the patched engine does not see the upset")
	}
	if c := NewBatchSim(img); c.cur.flat == shared || c.cur.flat.stages[s].meta[idx]&metaParityBad == 0 {
		t.Fatal("an engine built after the upset reads the stale flat form")
	}
	// A second upset on the same engine patches its copy in place.
	own := a.cur.flat
	img.FlipBit(s, idx, bit)
	a.Patch(s, idx)
	if a.cur.flat != own || own.stages[s].meta[idx]&metaParityBad != 0 {
		t.Fatal("second Patch did not re-derive the entry in the engine's own copy")
	}
}
