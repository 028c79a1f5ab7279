package pipeline

// Differential tests for the streaming engine: a Sim and a BatchSim are
// driven in lockstep, one input slot per step, through random interleavings
// of everything a slice runner does to an engine — inject, idle, write
// bubble, BeginUpdate, AbortUpdate, an upset in the serving (or armed) image
// written through Patch, a reload (fresh engines over a fresh clone), a Reset,
// parity checking switched on and Stats reads. The scalar engine hands a
// Result back on the cycle a lookup leaves; the batched one hands its exits
// back when drained — every step, every seventh, or only when it is full and
// at the end. Whatever the cadence, the exits must equal the scalar
// results field for field, visits included, each with the caller's stamp of
// the step the scalar engine returned it on, and the engines must agree on
// every error and, wherever it is read, on every Stats field.

import (
	"math/rand"
	"reflect"
	"testing"

	"vrpower/internal/ip"
	"vrpower/internal/obs"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

// drainCadences are the drain policies every differential test runs under:
// Drain after every that many steps, 0 for only when the engine is full (and
// once at the end, as for all of them).
var drainCadences = []int{1, 7, 0}

// pair drives a Sim and a BatchSim over the same images in lockstep. The
// scalar results wait in want, each as the Exit the batched engine owes for
// it, until a Drain hands that exit back; out collects them once matched.
type pair struct {
	t       testing.TB
	scalar  *Sim
	batched *BatchSim
	every   int
	// eachStats compares Stats after every step — so the batched engine
	// settles every step, and whatever changes next changes under walks
	// brought to the clock. Without it walks stay undone, across bubbles and
	// bank flips, until a Drain, a Stats read, a Patch or a parity switch.
	eachStats bool
	steps     int
	want      []Exit
	exits     []Exit
	out       []Result
}

// drainAll is Drain appending every exit it hands back to dst.
func drainAll(b *BatchSim, dst []Exit) []Exit {
	b.Drain(func(exits []Exit) { dst = append(dst, exits...) })
	return dst
}

func newPair(t testing.TB, img *Image, parity bool, every int) *pair {
	p := &pair{t: t, every: every}
	p.load(img, parity)
	return p
}

// load replaces both engines with fresh ones over img, as a scrub reload
// does; what the old ones still owed is drained and checked first.
func (p *pair) load(img *Image, parity bool) {
	if p.batched != nil {
		p.drain()
	}
	p.scalar, p.batched = NewSim(img), NewBatchSim(img)
	if parity {
		p.scalar.EnableParityCheck()
		p.batched.EnableParityCheck()
	}
}

// stamp is the caller's name for the coming step: its own count, scaled and
// offset so that no engine clock is mistaken for it.
func (p *pair) stamp() int64 { return 1000 + 3*int64(p.steps) }

func (p *pair) stats() Stats {
	p.t.Helper()
	want, got := p.scalar.Stats(), p.batched.Stats()
	if !reflect.DeepEqual(got, want) {
		p.t.Fatalf("after %d steps: stats diverge:\nbatched %+v\nscalar  %+v", p.steps, got, want)
	}
	return got
}

// drain takes the batched engine's exits and holds them to the scalar
// results since the last drain: as many, in order, equal in every field.
func (p *pair) drain() {
	p.t.Helper()
	p.exits = drainAll(p.batched, p.exits[:0])
	if len(p.exits) != len(p.want) {
		p.t.Fatalf("after %d steps: Drain handed back %d exits, scalar returned %d results", p.steps, len(p.exits), len(p.want))
	}
	for i := range p.exits {
		if !reflect.DeepEqual(p.exits[i], p.want[i]) {
			p.t.Fatalf("after %d steps: exit %d of %d diverges:\nbatched %+v\nscalar  %+v", p.steps, i, len(p.exits), p.exits[i], p.want[i])
		}
		p.out = append(p.out, p.exits[i].Result)
	}
	p.want = p.want[:0]
}

// stepped closes a step both engines have taken: the scalar result, if any,
// is owed by the batched engine under this step's stamp.
func (p *pair) stepped(res Result, ok bool) {
	p.t.Helper()
	if ok {
		p.want = append(p.want, Exit{Result: res, Stamp: p.stamp()})
	}
	p.steps++
	if p.scalar.Updating() != p.batched.Updating() || p.scalar.PendingBubbles() != p.batched.PendingBubbles() {
		p.t.Fatalf("step %d: update state diverges: batched (%v, %d), scalar (%v, %d)", p.steps,
			p.batched.Updating(), p.batched.PendingBubbles(), p.scalar.Updating(), p.scalar.PendingBubbles())
	}
	if p.eachStats {
		p.stats()
	}
	if p.every > 0 && p.steps%p.every == 0 || p.batched.Full() {
		p.drain()
	}
}

// inject feeds req (nil: an idle slot) to both engines.
func (p *pair) inject(req *Request) {
	p.t.Helper()
	res, ok := p.scalar.Inject(req)
	if req == nil {
		p.batched.Idle(p.stamp())
	} else {
		p.batched.Inject(*req, p.stamp())
	}
	p.stepped(res, ok)
}

// bubble feeds both engines a write bubble; with none pending both must
// refuse, and neither steps.
func (p *pair) bubble() error {
	p.t.Helper()
	res, ok, errS := p.scalar.InjectBubble()
	errB := p.batched.InjectBubble(p.stamp())
	if (errS == nil) != (errB == nil) {
		p.t.Fatalf("step %d (bubble): batched error %v, scalar %v", p.steps, errB, errS)
	}
	if errS == nil {
		p.stepped(res, ok)
	}
	return errS
}

// finish drains both pipes and compares the final state.
func (p *pair) finish() {
	p.t.Helper()
	for i := 0; i <= len(p.scalar.regs); i++ {
		p.inject(nil)
	}
	p.drain()
	p.stats()
}

// upset flips a bit of the entry v visited, in img, under the batched engine
// (the scalar one reads img a stage a cycle and needs no telling).
func (p *pair) upset(img *Image, v obs.StageVisit) {
	p.t.Helper()
	p.batched.Patch(func() {
		if !img.FlipBit(v.Stage, v.Entry, 0) {
			p.t.Fatalf("no entry %d in stage %d", v.Entry, v.Stage)
		}
	})
}

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
	img, err := NewRoutes(set.Tables).Compile(sm)
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

// lockstep runs one op stream under one drain cadence. ops picks the
// operation per step; every operand is drawn from the seed. It reports
// whether the images served have a jump table.
func lockstep(t testing.TB, seed int64, ops []byte, eachStats bool, every int) (jumps bool) {
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

	img := pristine[rng.Intn(2)].Clone()
	var next *Image
	p := newPair(t, img, parity, every)
	p.eachStats = eachStats
	jumps = img.jump != nil
	for _, op := range ops {
		switch op % 16 {
		default: // inject a lookup
			addr := ip.Addr(rng.Uint32())
			if rng.Intn(2) == 0 {
				addr = routed[rng.Intn(len(routed))] | ip.Addr(rng.Intn(256))
			}
			p.inject(&Request{Addr: addr, VN: rng.Intn(k+2) - 1, Trace: rng.Intn(8) == 0})
		case 7, 8: // idle input slot
			p.inject(nil)
		case 9, 10: // write bubble (an error on both when none is pending)
			p.bubble()
		case 11: // arm an update (an error on both when one is in flight)
			cand := pristine[rng.Intn(2)].Clone()
			bubbles := rng.Intn(2 * stages)
			errS, errB := p.scalar.BeginUpdate(cand, bubbles), p.batched.BeginUpdate(cand, bubbles)
			if (errS == nil) != (errB == nil) {
				t.Fatalf("step %d (begin): batched error %v, scalar %v", p.steps, errB, errS)
			}
			if errS == nil {
				next = cand
			}
		case 12:
			errS, errB := p.scalar.AbortUpdate(), p.batched.AbortUpdate()
			if (errS == nil) != (errB == nil) {
				t.Fatalf("step %d (abort): batched error %v, scalar %v", p.steps, errB, errS)
			}
			if errS == nil {
				next = nil
			}
		case 13: // an upset under the lookups in the log, through Patch
			target := img
			if next != nil && rng.Intn(3) == 0 {
				target = next
			}
			s, idx, bit, ok := target.Locate(rng.Int63n(target.DataBits()))
			if !ok {
				t.Fatal("Locate failed in range")
			}
			p.batched.Patch(func() {
				if parity || target.Entry(s, idx).Leaf {
					target.FlipBit(s, idx, bit)
					return
				}
				// Unchecked, a flipped pointer could close a cycle inside a
				// folded stage; send it out of every stage's range instead,
				// in parity, so only the address decoder catches it.
				poke(target, s, idx, func(e *Entry) {
					e.Child[bit&1] = 1<<29 + uint32(bit)
					e.Parity = e.DataParity()
				})
			})
		case 14: // rarer than their op code: a reload, a Reset, or parity switched on under the log
			switch r := rng.Intn(8); {
			case r < 2:
				img, next = pristine[rng.Intn(2)].Clone(), nil
				p.load(img, parity)
			case r == 2 && !parity:
				parity = true
				p.scalar.EnableParityCheck()
				p.batched.EnableParityCheck()
			case r == 3:
				// Reset empties the pipe and the log alike: what has left the
				// pipe is taken first, as a runner settles before it reloads.
				p.drain()
				p.scalar.Reset()
				p.batched.Reset()
				next = nil
			}
		case 15:
			p.stats()
		}
		if next != nil && !p.scalar.Updating() {
			img, next = next, nil // the commit bubble drained: next now serves
		}
	}
	p.finish()
	return jumps
}

// TestStreamMatchesSimOpStreams runs seeded op streams in both Stats modes
// under every drain cadence, and their first SettleCycles-odd steps drained
// only at the end. A share of the seeds must draw images with a jump table
// (the 28-stage ones do), so bubbles, bank flips, upsets and reloads are all
// met by jumpers too.
func TestStreamMatchesSimOpStreams(t *testing.T) {
	jumps := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed * 7919))
		ops := make([]byte, 1500)
		rng.Read(ops)
		for _, every := range drainCadences {
			lockstep(t, seed, ops, false, every)
			lockstep(t, seed, ops, true, every)
		}
		if lockstep(t, seed, ops[:SettleCycles-40], false, 0) {
			jumps++
		}
	}
	if jumps < 5 {
		t.Errorf("%d of 40 seeds served images with a jump table; want a good share", jumps)
	}
}

// streamCorpus seeds FuzzStreamVsSim; seeds 1 and 6 draw 28-stage images,
// which have a jump table (TestFuzzCorporaReachJumpLane).
var streamCorpus = []struct {
	seed int64
	ops  []byte
}{
	{1, []byte{0, 1, 2, 11, 9, 0, 13, 9, 9, 0, 15, 7, 0, 0, 12, 14}},
	{2, []byte{11, 10, 0, 13, 0, 0, 9, 9, 9, 9, 9, 9, 0, 15, 13, 0, 0, 0, 0}},
	{3, []byte{0, 0, 0, 0, 13, 15, 0, 0, 11, 13, 9, 0, 0, 0, 0, 0, 0, 11, 9, 0}},
	{6, []byte{0, 0, 13, 0, 0, 0, 11, 9, 0, 13, 0, 9, 0, 15, 0, 14, 0, 0, 13, 0, 0}},
}

// FuzzStreamVsSim lets the fuzzer choose the interleaving; the seed also
// picks the drain cadence and the Stats mode.
func FuzzStreamVsSim(f *testing.F) {
	for _, c := range streamCorpus {
		f.Add(c.seed, c.ops)
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		lockstep(t, seed, ops, seed%2 == 0, drainCadences[uint64(seed)%uint64(len(drainCadences))])
	})
}

// TestStreamParitySwitchMidFlight: a lookup that read a stale-parity leaf
// before checking was switched on keeps its (corrupt) answer, as in the
// cycle-stepped engine; one still short of the leaf faults on it — also when
// a Stats read just before the switch has settled both walks, and whether or
// not anything was drained in between.
func TestStreamParitySwitchMidFlight(t *testing.T) {
	for _, every := range drainCadences {
		for _, settled := range []bool{false, true} {
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
			p := newPair(t, img, false, every)
			p.inject(&req) // will be past the leaf at the switch
			for c := 0; c < leaf.Stage; c++ {
				p.inject(nil)
			}
			p.inject(&req) // will still be short of it
			if settled {
				p.stats()
			}
			p.scalar.EnableParityCheck()
			p.batched.EnableParityCheck()
			p.finish()
			if len(p.out) != 2 || p.out[0].Faulted || !p.out[1].Faulted {
				t.Fatalf("drain every %d, settled %v: want the first lookup served and the second faulted, got %+v", every, settled, p.out)
			}
		}
	}
}

// directedPair is the pair of the directed tests: parity checked and Stats
// compared after every step — a read that settles the batched engine, so
// whatever the test changes next changes under walks brought to the clock.
func directedPair(t *testing.T, img *Image, every int) *pair {
	p := newPair(t, img, true, every)
	p.eachStats = true
	return p
}

// tracedVisits returns every visit a lookup of addr makes in img.
func tracedVisits(t *testing.T, img *Image, addr ip.Addr) []obs.StageVisit {
	t.Helper()
	res, _, err := NewSim(img).Run([]Request{{Addr: addr, Trace: true}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res[0].Visits
}

// pathOf returns the first visit a lookup of addr makes in every stage of img,
// down to the stage it ends in.
func pathOf(t *testing.T, img *Image, addr ip.Addr) []obs.StageVisit {
	t.Helper()
	visits := tracedVisits(t, img, addr)
	at := make([]obs.StageVisit, visits[len(visits)-1].Stage+1)
	for i := len(visits) - 1; i >= 0; i-- {
		at[visits[i].Stage] = visits[i]
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

// TestStreamTwoUpsetsInThePipe: six lookups of one address, two cycles apart
// and every other one traced, all in the pipe; then an upset on their path in
// stage 4, which four of them have passed, and two steps later one in stage
// 10, which two have passed. Each lookup must come out as the cycle-stepped
// engine says — served if it was past both words when they were struck,
// faulted in the first struck stage it had still to reach — with every
// traced visit there once: a walk resumed after an upset keeps what it read
// in the stages behind it, and reads the earlier upset only if it had not
// passed it then either.
func TestStreamTwoUpsetsInThePipe(t *testing.T) {
	for _, every := range drainCadences {
		tbl := genTable(t, 300, 65)
		img := compileSingle(t, tbl, 28)
		req, at := deepPath(t, img, routedAddrs(tbl), 12)
		plain := req
		plain.Trace = false
		p := directedPair(t, img, every)
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
		p.finish()
		if got, want := faultStages(p.out), []int{-1, -1, 10, 10, 4, 4}; !reflect.DeepEqual(got, want) {
			t.Fatalf("drain every %d: lookups ended %v, want %v (-1: served)", every, got, want)
		}
	}
}

// TestStreamStatsBeforeFaultIsReached: a lookup bound to fault in stage 8 is
// read by Stats every step from its injection on; the fault, and the end of
// the lookup's stage activity, must show in Stats only once the lookup has
// reached stage 8.
func TestStreamStatsBeforeFaultIsReached(t *testing.T) {
	for _, every := range drainCadences {
		tbl := genTable(t, 300, 65)
		img := compileSingle(t, tbl, 28)
		req, at := deepPath(t, img, routedAddrs(tbl), 12)
		req.Trace = false
		img.FlipBit(at[8].Stage, at[8].Entry, 0)
		p := directedPair(t, img, every)
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
		p.drain()
		if got := faultStages(p.out); !reflect.DeepEqual(got, []int{8}) {
			t.Fatalf("drain every %d: lookup ended %v, want faulted in stage 8", every, got)
		}
	}
}

// TestStreamCommitBubbleBetweenBanks: lookups ahead of the commit bubble and
// behind it are in the pipe together — each on the bank fixed when it was
// injected — when an upset strikes each bank on their path. Every walk goes
// on on its own bank: old-bank lookups keep the old table's answer or fault
// on the old image's upset, new-bank ones the new table's or the armed
// image's.
func TestStreamCommitBubbleBetweenBanks(t *testing.T) {
	for _, every := range drainCadences {
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

		p := directedPair(t, oldImg, every)
		for _, r := range []*Request{&req, &plain, &req, &plain} {
			p.inject(r)
		}
		if errS, errB := p.scalar.BeginUpdate(newImg, 2), p.batched.BeginUpdate(newImg, 2); errS != nil || errB != nil {
			t.Fatal(errS, errB)
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
		p.inject(&plain)          // on the struck shadow bank, injected after the upset
		p.finish()
		if got, want := faultStages(p.out), []int{-1, -1, -1, 8, 8, -1, -1, 2, 2, 2}; !reflect.DeepEqual(got, want) {
			t.Fatalf("drain every %d: lookups ended %v, want %v (-1: served)", every, got, want)
		}
		if oldHop, newHop := p.out[0].NHI, p.out[5].NHI; oldHop == newHop || p.out[2].NHI != oldHop || p.out[6].NHI != newHop {
			t.Fatalf("next hops %d %d | %d %d: want the old table's ahead of the commit bubble, the new one's behind",
				p.out[0].NHI, p.out[2].NHI, p.out[5].NHI, p.out[6].NHI)
		}
	}
}

// TestStreamedRunRejectedMidFlight: Run's closed-form schedule assumes an
// empty log, so it refuses an engine with streamed lookups in its pipe or
// waiting to be drained.
func TestStreamedRunRejectedMidFlight(t *testing.T) {
	img := compileSingle(t, genTable(t, 50, 63), 8)
	sim := NewBatchSim(img)
	sim.Inject(Request{Addr: 1}, 0)
	if _, _, err := sim.Run(nil, 1); err == nil {
		t.Error("Run accepted an engine with a lookup in flight")
	}
	for i := 0; i < 8; i++ {
		sim.Idle(0)
	}
	if _, _, err := sim.Run(nil, 1); err == nil {
		t.Error("Run accepted an engine with an exit waiting for Drain")
	}
	if exits := drainAll(sim, nil); len(exits) != 1 {
		t.Fatalf("Drain handed back %d exits, want the one lookup", len(exits))
	}
	if _, _, err := sim.Run(nil, 1); err != nil {
		t.Errorf("Run refused a drained engine: %v", err)
	}
}

// TestStreamedStepsAllocationFree: in steady state — the log filled and
// drained a few times — an untraced Inject, an Idle, a Stats read and the
// Drain a full engine asks for allocate nothing: the log, the checkpoints
// and the sweep arena are reused from settle to settle.
func TestStreamedStepsAllocationFree(t *testing.T) {
	img := compileSingle(t, genTable(t, 300, 7), 28)
	sim := NewBatchSim(img)
	sim.EnableParityCheck()
	exits := 0
	count := func(x []Exit) { exits += len(x) }
	step := func(i int) {
		if i%10 == 9 {
			sim.Idle(int64(i))
		} else {
			sim.Inject(Request{Addr: ip.Addr(0x0a000001 + i)}, int64(i))
		}
		if i%100 == 0 {
			sim.Stats() // a settle that hands nothing back
		}
		if sim.Full() {
			sim.Drain(count)
		}
	}
	i := 0
	for ; i < 3*SettleCycles; i++ {
		step(i)
	}
	if n := testing.AllocsPerRun(4*SettleCycles, func() { step(i); i++ }); n != 0 {
		t.Fatalf("a streamed step allocates %.2f per cycle, want 0", n)
	}
	if exits == 0 {
		t.Fatal("no exits handed back")
	}
}

// TestStreamedLogBound: an engine allocates no streaming state before its
// first streamed step, and then holds at most Stages+SettleCycles records
// and Stages checkpoints whatever the run length. It says when SettleCycles
// steps have passed since its last Drain, and a step past that is a bug in
// the runner, not something the engine absorbs.
func TestStreamedLogBound(t *testing.T) {
	img := compileSingle(t, genTable(t, 50, 63), 8)
	sim := NewBatchSim(img)
	if sim.log != nil || sim.side != nil || sim.notes != nil {
		t.Fatal("streaming state allocated before the first streamed step")
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < SettleCycles; i++ {
			if sim.Full() {
				t.Fatalf("round %d: full after %d steps", round, i)
			}
			sim.Inject(Request{Addr: ip.Addr(i)}, int64(i))
			if i == SettleCycles/2 {
				sim.Stats()
			}
		}
		if !sim.Full() {
			t.Fatalf("round %d: not full after %d steps", round, SettleCycles)
		}
		if len(sim.log) > 8+SettleCycles || cap(sim.log) > 8+SettleCycles || len(sim.side) > 8 {
			t.Fatalf("round %d: log of %d records (cap %d), %d checkpoints; want at most %d and 8",
				round, len(sim.log), cap(sim.log), len(sim.side), 8+SettleCycles)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a step past SettleCycles did not panic")
				}
			}()
			sim.Idle(0)
		}()
		want := SettleCycles
		if round == 0 {
			want -= 8 // the first 8 steps' lookups are still in the pipe
		}
		if exits := drainAll(sim, nil); len(exits) != want || sim.Full() || len(sim.log) != 8 {
			t.Fatalf("round %d: Drain handed back %d exits (want %d), full %v, %d records left (want the pipe's 8)",
				round, len(exits), want, sim.Full(), len(sim.log))
		}
	}
}

// TestEnginesReadImageWordsInPlace pins the ownership rule from the engine's
// side: an engine holds no form of its own — engines over one Image read the
// same words, an upset written through one engine's Patch is what the others
// and every later one read too, with every derived word following — so what
// keeps a neighbour clean is serving it a Clone, which shares nothing.
func TestEnginesReadImageWordsInPlace(t *testing.T) {
	img := compileSingle(t, genTable(t, 300, 64), 16)
	clone := img.Clone()
	a, b, c := NewBatchSim(img), NewBatchSim(img), NewBatchSim(clone)
	if a.cur != img || b.cur != img || c.cur != clone {
		t.Fatal("an engine serves something other than the image it was given")
	}
	s, idx, bit, _ := img.Locate(img.DataBits() / 2)
	a.Patch(func() { img.FlipBit(s, idx, bit) })
	if !img.ParityStale(s, idx) || clone.ParityStale(s, idx) {
		t.Fatal("the upset is not in the image alone")
	}
	if !Flatten(img).Equal(img) {
		t.Fatal("the struck image's derived words are not what Flatten derives")
	}
	if !clone.Equal(Flatten(compileSingle(t, genTable(t, 300, 64), 16))) {
		t.Fatal("the clone changed with its source")
	}
	// A second upset on the same bit restores parity: the verdict is
	// recomputed, not toggled blindly nor left set.
	a.Patch(func() { img.FlipBit(s, idx, bit) })
	if img.ParityStale(s, idx) || !img.Equal(clone) {
		t.Fatal("the healing flip did not restore the image, verdict included")
	}
}
