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
// are compared after every step (so the batched walks are synced each
// cycle); without it only where the stream says so, which leaves walks
// lazy across bubbles, bank flips and patches.
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
// cycle-stepped engine; one still short of the leaf faults on it.
func TestStreamParitySwitchMidFlight(t *testing.T) {
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
		e.EnableParityCheck()
		for c := 0; c < 28; c++ {
			if r, ok := e.Inject(nil); ok {
				got[i] = append(got[i], r)
			}
		}
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("results diverge:\nscalar  %+v\nbatched %+v", got[0], got[1])
	}
	if len(got[0]) != 2 || got[0][0].Faulted || !got[0][1].Faulted {
		t.Fatalf("want the first lookup served and the second faulted, got %+v", got[0])
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
