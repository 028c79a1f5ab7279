package pipeline

import (
	"fmt"
	"slices"

	"vrpower/internal/ip"
	"vrpower/internal/obs"
	"vrpower/internal/sweep"
)

// batchFlights is the per-slice batch width: the flight arena for one slice
// (index, address, VN, next hop, fault flag ≈ 20 bytes per flight) stays
// resident in L1 while a stage sweep streams the stage's word slices past
// it.
const batchFlights = 512

// shardMinReqs is the smallest request count RunSharded splits; below it the
// fan-out overhead beats the parallelism.
const shardMinReqs = 2 * batchFlights

// Per-request flags, indexed by position within the chunk.
const (
	flagFaulted uint8 = 1 // flight terminated by a detected memory fault
	flagTraced  uint8 = 2 // request took the recording path; result already written
)

// bFlight is one in-flight lookup in the arena: 16 bytes, four to a cache
// line, compacted in place as flights resolve so the live set is always a
// dense sequential stream.
type bFlight struct {
	addr uint32 // destination address
	idx  uint32 // current entry index in the current stage
	pos  int32  // request's position within the chunk
	vn   int32  // virtual network (out-of-int32 VNs clamp to -1: same no-route verdict)
}

// batchScratch is one worker's flight arena: index-based flight records in a
// flat slice plus per-position result slots, reused across runs, so the
// untraced batched path performs zero per-lookup heap allocations (the
// scalar engine's pooled *flight objects become plain array slots).
type batchScratch struct {
	fl   []bFlight    // live flights, dense, compacted every sweep step
	nhi  []ip.NextHop // resolved next hop, by chunk position
	flag []uint8      // flagFaulted / flagTraced, by chunk position
	last []uint8      // deepest active stage (Result.LastStage), by chunk position
}

func (sc *batchScratch) ensure(n int) {
	if cap(sc.fl) >= n {
		return
	}
	sc.fl = make([]bFlight, n)
	sc.nhi = make([]ip.NextHop, n)
	sc.flag = make([]uint8, n)
	sc.last = make([]uint8, n)
}

// sFlight is one slot of the streaming ring: a lookup (or write bubble)
// injected some steps ago. Its walk may have run ahead of the cycle clock:
// done, faulted, nhi and last are then the lookup's whole future, while
// (idx, stage) stay where the cycle clock last had to be honoured.
type sFlight struct {
	req Request
	// idx and stage are the walk's checkpoint: the entry index in the next
	// stage to walk, as of the last point where the image or the check
	// changed under this lookup (injection: entry 0 of stage 0). A traced
	// lookup's visits in stages below stage belong to it too.
	idx  uint32
	gen  uint32 // image generation the lookup reads (BatchSim.gen at injection, +1 behind a commit bubble)
	kind uint8  // slotEmpty / slotLookup / slotBubble / slotCommit
	// done marks a finished walk: resolved, faulted or out of pipe in stage last.
	done, faulted bool
	nhi           ip.NextHop
	stage, last   int16
	// newUntil is the last stage whose traced visits read the shadow bank
	// while the commit bubble ahead was still in the pipe (-1: none).
	newUntil int16
	trace    *traceLog
}

const (
	slotEmpty uint8 = iota
	slotLookup
	slotBubble
	slotCommit // the final write bubble: banks flip as it passes
)

// walk takes the lookup from its checkpoint through stage upto of flat, one
// dependent load after another, exactly as Sim.process does one stage per
// cycle: folded levels within a stage are followed in the same visit, a
// stale-parity word (when checked) or an out-of-range pointer ends the walk as
// a fault, a leaf resolves it. It is the path of traced lookups and of walks
// resumed mid-pipe; the rest go through batchScratch.sweep. The checkpoint is
// left alone: a walk that does not end returns the entry index it stands at
// in stage upto+1.
func (f *sFlight) walk(flat *FlatImage, parity bool, upto int) uint32 {
	addr, idx, tr := uint32(f.req.Addr), f.idx, f.trace
	for s := int(f.stage); s <= upto; s++ {
		meta := flat.stages[s].meta
		child := flat.stages[s].child[:len(meta)]
		for {
			if tr != nil {
				tr.visits = append(tr.visits, obs.StageVisit{Stage: s, Entry: idx, NewBank: s <= int(f.newUntil)})
			}
			if int(idx) >= len(meta) || parity && meta[idx]&metaParityBad != 0 {
				if tr != nil {
					tr.visits[len(tr.visits)-1].Fault = true
				}
				f.done, f.faulted, f.last = true, true, int16(s)
				return idx
			}
			m, c := meta[idx], child[idx]
			if m&metaLeaf != 0 {
				if vn := f.req.VN; vn >= 0 && vn < int(c[1]) {
					f.nhi = flat.nhi[c[0]+uint32(vn)]
				}
				f.done, f.last = true, int16(s)
				return idx
			}
			idx = c[addr>>(m&metaShiftMask)&1]
			if m&metaFold == 0 {
				break
			}
		}
	}
	return idx
}

// bank is one image generation an engine serves: the source image and its
// flat form, shared with the image's other engines until own is set.
type bank struct {
	img  *Image
	flat *FlatImage
	own  bool
}

// patch re-derives entry (stage, index) from the image after an upset. The
// first patch stops sharing: the engine flattens the image as it is now
// into a flat form of its own; later ones rewrite the one entry.
func (k *bank) patch(stage int, index uint32) {
	if !k.own {
		k.flat, k.own = Flatten(k.img), true
		return
	}
	k.flat.derive(k.img, stage, index)
}

// BatchSim is the production lookup engine: the same request→result
// semantics as the scalar Sim — next hops, fault verdicts, cycle stamps,
// traced visits and Stats are byte-identical, which the differential and
// fuzz tests enforce — computed on the flattened word slices without
// simulating a register shift per cycle. A linear pipeline's timing is
// fixed by its schedule: a lookup entering at cycle t leaves at t+Stages
// and occupies each stage for one cycle, so only the trie walk and the
// per-stage activity it causes depend on data.
//
// Run resolves a whole request slice in batches that sweep each stage
// across all in-flight lookups. Inject/InjectBubble stream one input slot
// per call, as the slice runners need: an injected lookup is a slot in a
// Stages-deep ring and leaves Stages steps later. The hardware resolves a
// pipe-depth of lookups at once, and so does the engine: when the slot
// leaving holds a lookup not yet walked, every such lookup in the ring is
// walked to its end through the same sweep (runAhead), so their loads overlap
// instead of forming one dependent chain per exit. Walks thus run ahead of
// the cycle clock, and whatever the scalar engine would book as a walk
// proceeds is booked when the slot leaves; Stats derives the share of the
// slots in flight from the stage each has reached. Where the image or the
// check changes under lookups in flight — Patch, EnableParityCheck — every
// walk that ran ahead is first rolled back to its checkpoint and redone, on
// the image as it still is, up to the stage its lookup has reached
// (rollback). A bank flip needs none of that: which bank a lookup reads
// during a hitless update, old or new, is fixed at injection by whether the
// commit bubble is ahead of it.
type BatchSim struct {
	cur, next bank // serving image; the shadow bank while an update is armed
	nStages   int
	parity    bool
	now       int64
	// st holds the scalar counters, and in its two slices the Run path's
	// share of stage activity; Stats adds the streaming share.
	st      Stats
	scratch batchScratch

	ring []sFlight // ring[head] is the oldest slot, leaving on the next step
	head int
	// ended[s] counts the slots that left whose walk ended in stage s (bubbles
	// and unresolved lookups: the last stage); exited counts them all.
	ended  []int64
	exited int64
	// active/occupied back the slices Stats returns.
	active, occupied []int64
	gen              uint32
	bubblesLeft      int
	commitAt         int64 // cycle the in-flight commit bubble entered
}

// NewBatchSim returns an engine serving img, reading the image's shared
// flat form.
func NewBatchSim(img *Image) *BatchSim {
	n := len(img.Stages)
	return &BatchSim{
		cur:      bank{img: img, flat: img.sharedFlat()},
		nStages:  n,
		st:       Stats{StageActive: make([]int64, n), StageOccupied: make([]int64, n)},
		ring:     make([]sFlight, n),
		ended:    make([]int64, n),
		active:   make([]int64, n),
		occupied: make([]int64, n),
	}
}

// EnableParityCheck turns on per-access parity verification, matching
// Sim.EnableParityCheck. The verdict per word was precomputed when the
// image was flattened, so the check is a bit test, not a parity recompute.
func (b *BatchSim) EnableParityCheck() {
	b.rollback()
	b.parity = true
}

// reached returns the slot injected s+1 steps ago, which has been through
// stages 0..s.
func (b *BatchSim) reached(s int) *sFlight {
	i := b.head - 1 - s
	if i < 0 {
		i += b.nStages
	}
	return &b.ring[i]
}

// runAhead finishes the walk of every lookup in the ring that is not walked
// yet, however far down the pipe it is: the untraced ones still at stage 0 as
// one group per bank through the sweep, a traced one or one resumed from a
// mid-pipe checkpoint by the chain walk. Checkpoints stay where they are.
func (b *BatchSim) runAhead() {
	last := b.nStages - 1
	sc := &b.scratch
	sc.ensure(b.nStages)
	for g, bk := range [2]*bank{&b.cur, &b.next} {
		if bk.flat == nil {
			break // no update armed: nothing reads the shadow bank
		}
		gen, n := b.gen+uint32(g), 0
		for i := range b.ring {
			f := &b.ring[i]
			if f.kind != slotLookup || f.done || f.gen != gen {
				continue
			}
			if f.trace != nil || f.stage > 0 {
				f.last = int16(last) // where a walk that never ends leaves the pipe
				f.walk(bk.flat, b.parity, last)
				f.done = true
				continue
			}
			sc.load(n, i, &f.req, last)
			n++
		}
		if n == 0 {
			continue
		}
		sc.sweep(bk.flat, b.parity, n, nil)
		for i := range b.ring {
			if f := &b.ring[i]; f.kind == slotLookup && !f.done && f.gen == gen {
				f.nhi, f.faulted, f.last, f.done = sc.nhi[i], sc.flag[i]&flagFaulted != 0, int16(sc.last[i]), true
			}
		}
	}
}

// rollback returns every walk in flight to the cycle clock, for the moment
// the image or the check is about to change: a walk that ran ahead of the
// stage its lookup has reached is undone to its checkpoint, and every
// unfinished walk is then taken, on the image as it still is, through the
// stage reached — its new checkpoint. Never further back: what a lookup read
// in the stages behind it stays read, whatever has struck them since.
func (b *BatchSim) rollback() {
	for r := 0; r < b.nStages; r++ {
		f := b.reached(r)
		if f.kind != slotLookup || f.done && int(f.last) <= r {
			continue
		}
		if f.done {
			f.done, f.faulted, f.nhi = false, false, ip.NoRoute
			if f.trace != nil {
				v := f.trace.visits
				for len(v) > 0 && v[len(v)-1].Stage >= int(f.stage) {
					v = v[:len(v)-1]
				}
				f.trace.visits = v
			}
		}
		flat := b.cur.flat
		if f.gen != b.gen {
			flat = b.next.flat
		}
		if idx := f.walk(flat, b.parity, r); !f.done {
			f.idx, f.stage = idx, int16(r+1)
		}
	}
}

// Stats returns the accumulated counters as of the current cycle. The
// slices are the engine's own and are rewritten by the next call.
func (b *BatchSim) Stats() Stats {
	b.runAhead()
	st := b.st
	st.StageActive, st.StageOccupied = b.active, b.occupied
	// A slot that left was in every stage and active through the stage its
	// walk ended in; one that has reached stage s, so far, in stages 0..s and
	// active through s or the end of its walk, whichever comes first — and its
	// fault counts once the stage it strikes in is reached. Either way a slot
	// is one count at its deepest active stage, never below the stage it has
	// reached, and a stage's activity is the sum over the stages from it on.
	copy(st.StageActive, b.ended)
	act, occ := int64(0), b.exited
	for s := b.nStages - 1; s >= 0; s-- {
		if f := b.reached(s); f.kind != slotEmpty {
			occ++
			deepest := s
			if f.kind == slotLookup && int(f.last) <= s {
				deepest = int(f.last)
				if f.faulted {
					st.Faults++
				}
			}
			st.StageActive[deepest]++
		}
		act += st.StageActive[s]
		st.StageActive[s] = b.st.StageActive[s] + act
		st.StageOccupied[s] = b.st.StageOccupied[s] + occ
	}
	return st
}

// Patch makes an upset visible: call it after flipping a bit of entry
// (stage, index) in the serving image (or the armed one). Lookups in flight
// have read the old word in the stages they are already through and read
// the new one from here on, as in hardware.
func (b *BatchSim) Patch(stage int, index uint32) {
	b.rollback()
	b.cur.patch(stage, index)
	if b.next.img != nil {
		b.next.patch(stage, index)
	}
}

// Reset returns the engine to its post-construction state over the same
// serving image — zero cycle clock, zeroed stats, empty pipe, any pending
// update discarded — while keeping the flight arena and stat slices
// allocated, so repeated runs (and benchmark iterations) measure lookups,
// not construction. The parity-check setting survives.
func (b *BatchSim) Reset() {
	b.now, b.exited, b.bubblesLeft, b.next = 0, 0, 0, bank{}
	b.st.Cycles, b.st.Lookups, b.st.Bubbles, b.st.Faults = 0, 0, 0, 0
	for s := range b.ring {
		b.ring[s], b.ended[s], b.st.StageActive[s], b.st.StageOccupied[s] = sFlight{}, 0, 0, 0
	}
}

// step advances one cycle: the oldest slot leaves — a lookup as a Result,
// a commit bubble by making the shadow bank the serving one — and in takes
// its place.
func (b *BatchSim) step(in sFlight) (res Result, ok bool) {
	f := &b.ring[b.head]
	last := b.nStages - 1
	commit := f.kind == slotCommit
	switch f.kind {
	case slotEmpty:
	case slotLookup:
		if !f.done {
			b.runAhead()
		}
		res, ok = Result{
			Request: f.req, NHI: f.nhi, Faulted: f.faulted, LastStage: int(f.last),
			EnterCycle: b.now - int64(b.nStages), ExitCycle: b.now,
		}, true
		if f.trace != nil {
			res.Visits = f.trace.visits
		}
		b.ended[f.last]++
		if f.faulted {
			b.st.Faults++
		}
		b.st.Lookups++
		b.exited++
	default: // a write bubble: one memory write in every stage
		b.ended[last]++
		b.exited++
	}
	*f = in
	if commit {
		b.cur, b.next = b.next, bank{}
		b.gen++
	}
	if b.head++; b.head == b.nStages {
		b.head = 0
	}
	b.now++
	b.st.Cycles++
	return res, ok
}

// Inject advances the pipeline one cycle, feeding req into stage 0 (nil for
// an idle cycle), and reports the lookup that left the last stage, if any —
// Sim.Inject's contract.
func (b *BatchSim) Inject(req *Request) (Result, bool) {
	if req == nil {
		return b.step(sFlight{})
	}
	in := sFlight{kind: slotLookup, req: *req, gen: b.gen, newUntil: -1}
	if b.next.img != nil && b.bubblesLeft == 0 {
		// Behind the commit bubble: every stage has flipped by the time this
		// lookup reaches it.
		in.gen++
		in.newUntil = int16(b.commitAt + int64(b.nStages) - b.now)
	}
	if req.Trace {
		in.trace = &traceLog{visits: make([]obs.StageVisit, 0, b.nStages)}
	}
	return b.step(in)
}

// BeginUpdate arms a hitless image update with Sim.BeginUpdate's contract:
// next replaces the serving image through bubbles write bubbles (at least
// one: the last doubles as the bank-flip commit), lookups keep flowing, and
// Updating turns false once the commit bubble has drained.
func (b *BatchSim) BeginUpdate(next *Image, bubbles int) error {
	if next == nil {
		return fmt.Errorf("pipeline: BeginUpdate with nil image")
	}
	if b.next.img != nil {
		return fmt.Errorf("pipeline: update already in flight (%d bubbles pending)", b.bubblesLeft)
	}
	if len(next.Stages) != b.nStages {
		return fmt.Errorf("pipeline: update stage counts differ (%d vs %d)", len(next.Stages), b.nStages)
	}
	if bubbles < 1 {
		bubbles = 1
	}
	b.next, b.bubblesLeft = bank{img: next, flat: next.sharedFlat()}, bubbles
	return nil
}

// Updating reports whether an armed update has not yet fully committed.
func (b *BatchSim) Updating() bool { return b.next.img != nil }

// PendingBubbles returns the write bubbles not yet injected.
func (b *BatchSim) PendingBubbles() int { return b.bubblesLeft }

// AbortUpdate disarms a pending update, legal only until the commit bubble
// is injected (Sim.AbortUpdate's contract): the serving image keeps serving.
func (b *BatchSim) AbortUpdate() error {
	if b.next.img == nil {
		return fmt.Errorf("pipeline: no update to abort")
	}
	if b.bubblesLeft == 0 {
		return fmt.Errorf("pipeline: commit bubble already in flight, update cannot be aborted")
	}
	b.next, b.bubblesLeft = bank{}, 0
	return nil
}

// InjectBubble advances one cycle feeding the next write bubble into stage
// 0 in place of a lookup; like Inject it reports the lookup leaving the
// last stage. It fails when no update is armed or the budget is spent.
func (b *BatchSim) InjectBubble() (Result, bool, error) {
	if b.next.img == nil || b.bubblesLeft == 0 {
		return Result{}, false, fmt.Errorf("pipeline: no write bubble pending")
	}
	in := sFlight{kind: slotBubble}
	if b.bubblesLeft--; b.bubblesLeft == 0 {
		in.kind, b.commitAt = slotCommit, b.now
	}
	b.st.Bubbles++
	res, ok := b.step(in)
	return res, ok, nil
}

// Run feeds the requests through the engine, one per interarrival cycles,
// and returns results in request order — the batched equivalent of
// Sim.Run(reqs, interarrival), including the trailing drain's cycle count.
func (b *BatchSim) Run(reqs []Request, interarrival int) ([]Result, Stats, error) {
	return b.RunAppend(make([]Result, 0, len(reqs)), reqs, interarrival)
}

// RunAppend is Run writing results into dst (grown as needed): with a
// pre-sized dst and a warm arena the untraced batched path allocates
// nothing per call.
func (b *BatchSim) RunAppend(dst []Result, reqs []Request, interarrival int) ([]Result, Stats, error) {
	if interarrival < 1 {
		return dst, Stats{}, fmt.Errorf("pipeline: interarrival %d, want >= 1", interarrival)
	}
	if err := b.idle(); err != nil {
		return dst, Stats{}, err
	}
	base := len(dst)
	dst = slices.Grow(dst, len(reqs))[:base+len(reqs)]
	out := dst[base:]
	g := int64(interarrival)
	startFaults := b.st.Faults // sweepChunk bumps b.st in place; snapshot first
	for chunk := 0; chunk < len(reqs); chunk += batchFlights {
		m := len(reqs) - chunk
		if m > batchFlights {
			m = batchFlights
		}
		b.sweepChunk(reqs[chunk:chunk+m], out[chunk:chunk+m], &b.scratch, &b.st, b.now+int64(chunk)*g, g)
	}
	b.finish(len(out), g, startFaults)
	return dst, b.Stats(), nil
}

// idle reports an error unless the pipe is empty and no update is armed:
// Run's closed-form schedule has no place for streamed slots.
func (b *BatchSim) idle() error {
	busy := b.next.img != nil
	for i := range b.ring {
		busy = busy || b.ring[i].kind != slotEmpty
	}
	if busy {
		return fmt.Errorf("pipeline: Run on an engine with streamed lookups or an update in flight")
	}
	return nil
}

// RunSharded is Run(reqs, 1) fanned over the sweep worker pool in
// contiguous shards — the coordinator split that lets one engine's
// simulated throughput scale with cores. Flight walks are independent and
// the cycle accounting is closed-form, so the sharded run is byte-identical
// to the unsharded one at any -j: results land in request order, per-shard
// stage-activity and fault counts merge additively in shard order.
func (b *BatchSim) RunSharded(reqs []Request) ([]Result, Stats, error) {
	workers := sweep.Workers()
	if len(reqs) < shardMinReqs || workers <= 1 {
		return b.Run(reqs, 1)
	}
	if err := b.idle(); err != nil {
		return nil, Stats{}, err
	}
	shards := workers
	if max := (len(reqs) + batchFlights - 1) / batchFlights; shards > max {
		shards = max
	}
	per := (len(reqs) + shards - 1) / shards
	out := make([]Result, len(reqs))
	type delta struct {
		active []int64
		faults int64
	}
	startFaults := b.st.Faults
	deltas, err := sweep.Run(shards, func(i int) (delta, error) {
		lo := i * per
		hi := lo + per
		if hi > len(reqs) {
			hi = len(reqs)
		}
		d := delta{active: make([]int64, b.nStages)}
		var sc batchScratch
		st := Stats{StageActive: d.active}
		for chunk := lo; chunk < hi; chunk += batchFlights {
			m := hi - chunk
			if m > batchFlights {
				m = batchFlights
			}
			b.sweepChunk(reqs[chunk:chunk+m], out[chunk:chunk+m], &sc, &st, b.now+int64(chunk), 1)
		}
		d.faults = st.Faults
		return d, nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	for _, d := range deltas {
		for s, a := range d.active {
			b.st.StageActive[s] += a
		}
		b.st.Faults += d.faults
	}
	b.finish(len(out), 1, startFaults)
	return out, b.Stats(), nil
}

// finish applies the closed-form cycle accounting of Sim.Run to a completed
// batch of n lookups: stage occupancy, the total step count (one step per
// arrival slot plus the drain) and the obs counters. The per-result
// entry/exit stamps were already written by the sweeps.
func (b *BatchSim) finish(n int, g int64, startFaults int64) {
	stages := int64(b.nStages)
	steps := stages // a zero-request run still drains, as the scalar loop does
	if n > 0 {
		steps = int64(n-1)*g + 1 + stages
	}
	b.st.Cycles += steps
	b.now += steps
	b.st.Lookups += int64(n)
	for s := range b.st.StageOccupied {
		b.st.StageOccupied[s] += int64(n)
	}
	obsLookups.Add(int64(n))
	obsCycles.Add(steps)
	obsFaults.Add(b.st.Faults - startFaults)
}

// sweepChunk resolves one batch of requests: untraced flights are loaded
// into the arena and swept stage by stage; traced flights take the recording
// walk. Results carry NHI, fault verdicts and their closed-form cycle stamps.
func (b *BatchSim) sweepChunk(reqs []Request, out []Result, sc *batchScratch, st *Stats, enter0, g int64) {
	sc.ensure(len(reqs))
	n := int64(b.nStages)
	nLive := 0
	for j := range reqs {
		if reqs[j].Trace {
			// Traced flights take the streaming engine's recording walk.
			f := sFlight{
				req: reqs[j], newUntil: -1, last: int16(b.nStages - 1),
				trace: &traceLog{visits: make([]obs.StageVisit, 0, b.nStages)},
			}
			f.walk(b.cur.flat, b.parity, b.nStages-1)
			enter := enter0 + int64(j)*g
			out[j] = Result{
				Request: reqs[j], NHI: f.nhi, Faulted: f.faulted, Visits: f.trace.visits,
				EnterCycle: enter, ExitCycle: enter + n, LastStage: int(f.last),
			}
			for s := 0; s <= int(f.last); s++ {
				st.StageActive[s]++
			}
			if f.faulted {
				st.Faults++
			}
			sc.flag[j] = flagTraced
			continue
		}
		sc.load(nLive, j, &reqs[j], b.nStages-1)
		nLive++
	}
	st.Faults += sc.sweep(b.cur.flat, b.parity, nLive, st.StageActive)
	// One sequential pass fills the untraced results with their next hop,
	// fault verdict and closed-form cycle stamps: resolved flights carry
	// their verdicts, flights that outlived the last stage exit with the
	// zero next hop and no fault mark, mirroring the scalar drain.
	for j := range reqs {
		if sc.flag[j]&flagTraced != 0 {
			continue
		}
		enter := enter0 + int64(j)*g
		out[j] = Result{
			Request:    reqs[j],
			NHI:        sc.nhi[j],
			Faulted:    sc.flag[j]&flagFaulted != 0,
			EnterCycle: enter,
			ExitCycle:  enter + n,
			LastStage:  int(sc.last[j]),
		}
	}
}

// load makes req, whose verdict slots are at position pos, flight number n of
// the next sweep. The verdict defaults to the full pipe: a flight that
// outlives the last stage was active in every one, resolved nothing and did
// not fault; the sweep's removal points overwrite it.
func (sc *batchScratch) load(n, pos int, req *Request, lastStage int) {
	sc.nhi[pos], sc.flag[pos], sc.last[pos] = ip.NoRoute, 0, uint8(lastStage)
	vn := req.VN
	if vn != int(int32(vn)) {
		vn = -1
	}
	sc.fl[n] = bFlight{addr: uint32(req.Addr), pos: int32(pos), vn: int32(vn)}
}

// sweep is the walk kernel of both modes: it takes the nLive flights loaded
// at the front of the arena from stage 0 to their ends in flat, every flight
// one stage at a time, leaving next hop, fault flag and last stage in the
// verdict slots of each one's position. It returns the number of faults and
// adds, where active is given, one count per stage per flight live in it —
// exactly what the scalar engine's per-cycle process calls count.
func (sc *batchScratch) sweep(flat *FlatImage, parity bool, nLive int, active []int64) (faults int64) {
	fl, slab := sc.fl, flat.nhi
	for s := 0; s < len(flat.stages) && nLive > 0; s++ {
		if active != nil {
			active[s] += int64(nLive)
		}
		fs := &flat.stages[s]
		// Reslicing child to meta's length lets one idx<len(meta) test prove
		// both accesses in bounds (Flatten builds them the same length).
		meta := fs.meta
		child := fs.child[:len(meta)]
		// Level-major sweep: every unresolved flight in this stage performs
		// the same fs.visits steps, so driving the intra-stage walk by level
		// removes the per-entry fold branch from the hot loop entirely; the
		// only data-dependent branches left are leaf resolution (once per
		// flight) and the rare fault paths. The bit select indexes the child
		// pair instead of branching on the address bit. Finished flights are
		// swap-removed (flight order is free: results key on pos), so the
		// common surviving path stores only the 4-byte index, not the whole
		// record. The loop is duplicated on the parity setting so the common
		// parity-off path carries no per-visit test at all.
		for v := 0; v < fs.visits && nLive > 0; v++ {
			if parity {
				for i := 0; i < nLive; {
					f := fl[i]
					idx := int(f.idx)
					if idx >= len(meta) {
						sc.flag[f.pos] = flagFaulted
						sc.last[f.pos] = uint8(s)
						faults++
						nLive--
						fl[i] = fl[nLive]
						continue
					}
					m := meta[idx]
					if m&metaParityBad != 0 {
						sc.flag[f.pos] = flagFaulted
						sc.last[f.pos] = uint8(s)
						faults++
						nLive--
						fl[i] = fl[nLive]
						continue
					}
					c := child[idx]
					if m&metaLeaf != 0 {
						if uint32(f.vn) < c[1] {
							sc.nhi[f.pos] = slab[c[0]+uint32(f.vn)]
						}
						sc.last[f.pos] = uint8(s)
						nLive--
						fl[i] = fl[nLive]
						continue
					}
					fl[i].idx = c[f.addr>>(m&metaShiftMask)&1]
					i++
				}
			} else {
				for i := 0; i < nLive; {
					f := fl[i]
					idx := int(f.idx)
					if idx >= len(meta) {
						// A corrupted child pointer escaped the stage's
						// address range — fatal for the lookup, as in the
						// scalar engine.
						sc.flag[f.pos] = flagFaulted
						sc.last[f.pos] = uint8(s)
						faults++
						nLive--
						fl[i] = fl[nLive]
						continue
					}
					m := meta[idx]
					c := child[idx]
					if m&metaLeaf != 0 {
						if uint32(f.vn) < c[1] { // unsigned compare: negative VNs miss too
							sc.nhi[f.pos] = slab[c[0]+uint32(f.vn)]
						}
						sc.last[f.pos] = uint8(s)
						nLive--
						fl[i] = fl[nLive]
						continue
					}
					fl[i].idx = c[f.addr>>(m&metaShiftMask)&1]
					i++
				}
			}
		}
	}
	return faults
}

// Lookups resolves a batch of probes with one batched engine — the bulk
// replacement for calling Lookup once per test vector.
func Lookups(img *Image, reqs []Request) []ip.NextHop {
	out := make([]ip.NextHop, len(reqs))
	results, _, err := NewBatchSim(img).Run(reqs, 1)
	if err != nil {
		return out
	}
	for i, r := range results {
		out[i] = r.NHI
	}
	return out
}
