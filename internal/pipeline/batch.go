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

// shardMinReqs is the smallest request count Shards splits; below it the
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

	// req and res are a batch run's chunk buffers (BatchSim.run): the requests
	// a filler writes and the results a visitor reads, a chunk at a time.
	req []Request
	res []Result
}

// shardArena is the arena of one shard of a fanned-out batch run, with what
// the shard adds to the engine's stage activity and fault count.
type shardArena struct {
	batchScratch
	delta Stats
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

// DrainWindow is how many input slots may leave the pipe between two Drain
// calls: an engine holds the Stages slots in its pipe plus at most this many
// that have left and wait to be walked and handed back. A slice runner steps
// its engines at most DrainWindow cycles between settles.
const DrainWindow = 256

// slot is one input slot of the streaming window: a lookup, a write bubble or
// an idle cycle, 32 bytes. A lookup's walk is done at the latest by the Drain
// that hands it back, and may have run ahead of the cycle clock before: done,
// faulted, nhi and last are then the lookup's whole future, while (idx, stage)
// stay where the cycle clock last had to be honoured. A traced lookup's visits
// are in the engine's side log, at the slot's index.
type slot struct {
	// stamp is the caller's cycle stamp of the step that pushed this slot — the
	// step on which the slot pushed Stages steps earlier left the pipe.
	stamp int64
	addr  uint32
	vn    int32 // out-of-int32 VNs clamp to -1: the same no-route verdict
	// idx and stage are the walk's checkpoint: the entry index in the next
	// stage to walk, as of the last point where the image or the check
	// changed under this lookup (injection: entry 0 of stage 0). A traced
	// lookup's visits in stages below stage belong to it too.
	idx uint32
	nhi ip.NextHop
	// newUntil is the last stage whose traced visits read the shadow bank
	// while the commit bubble ahead was still in the pipe (-1: none).
	newUntil int16
	kind     uint8 // slotEmpty / slotLookup / slotBubble / slotCommit
	flags    uint8 // slotDone / slotFaulted / slotTraced
	gen      uint8 // image generation the lookup reads: BatchSim.gen at injection, +1 behind a commit bubble (mod 256; two are live at most)
	stage    uint8
	last     uint8 // the stage a finished walk ended in
}

const (
	slotEmpty uint8 = iota
	slotLookup
	slotBubble
	slotCommit // the final write bubble: banks flip as it leaves
)

const (
	slotDone    uint8 = 1 << iota // finished walk: resolved, faulted or out of pipe in stage last
	slotFaulted                   // the walk ended on a detected memory fault
	slotTraced                    // visits are recorded in the side log
)

// walk takes the lookup from its checkpoint through stage upto of flat, one
// dependent load after another, exactly as Sim.process does one stage per
// cycle: folded levels within a stage are followed in the same visit, a
// stale-parity word (when checked) or an out-of-range pointer ends the walk as
// a fault, a leaf resolves it. It is the path of traced lookups (visits is
// their log) and of walks resumed mid-pipe; the rest go through
// batchScratch.sweep. The checkpoint is left alone: a walk that does not end
// returns the entry index it stands at in stage upto+1.
func (f *slot) walk(flat *Image, parity bool, upto int, visits *[]obs.StageVisit) uint32 {
	addr, idx := f.addr, f.idx
	for s := int(f.stage); s <= upto; s++ {
		meta := flat.stages[s].meta
		child := flat.stages[s].child[:len(meta)]
		for {
			if visits != nil {
				*visits = append(*visits, obs.StageVisit{Stage: s, Entry: idx, NewBank: s <= int(f.newUntil)})
			}
			if int(idx) >= len(meta) || parity && meta[idx]&metaParityBad != 0 {
				if visits != nil {
					(*visits)[len(*visits)-1].Fault = true
				}
				f.flags, f.last = f.flags|slotDone|slotFaulted, uint8(s)
				return idx
			}
			m, c := meta[idx], child[idx]
			if m&metaLeaf != 0 {
				if uint32(f.vn) < c[1] { // unsigned compare: negative VNs miss too
					f.nhi = flat.nhi[c[0]+uint32(f.vn)]
				}
				f.flags, f.last = f.flags|slotDone, uint8(s)
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

// left books a slot that has left the pipe into ended and st — it was in
// every stage, and active through the one its walk ended in (a write bubble:
// all of them) — and reports whether the slot held anything.
func (f *slot) left(ended []int64, st *Stats) int64 {
	switch f.kind {
	case slotEmpty:
		return 0
	case slotLookup:
		ended[f.last]++
		st.Lookups++
		if f.flags&slotFaulted != 0 {
			st.Faults++
		}
	default: // a write bubble: one memory write in every stage
		ended[len(ended)-1]++
	}
	return 1
}

// Exit is one streamed lookup that has left the pipe, as Drain hands it back:
// what Sim.Inject's Result says of it, plus the caller's stamp of the step it
// left on.
type Exit struct {
	Request
	NHI ip.NextHop
	// Faulted marks a lookup ended by a detected memory fault (Result.Faulted).
	Faulted bool
	// LastStage is the deepest stage that read memory for it (Result.LastStage).
	LastStage int
	// EnterCycle and ExitCycle are the engine's own clock: the steps it took
	// before this lookup's Inject, and Stages more.
	EnterCycle, ExitCycle int64
	// Stamp is what the caller passed with the step the lookup left on. A
	// runner whose engines sit cycles out (a frequency-stepped clock, a
	// brownout) passes its own cycle, which the engine's clock then trails.
	Stamp int64
	// Visits is the traced traversal (nil unless Request.Trace was set).
	Visits []obs.StageVisit
}

// Result is the exit in the shape the scalar Sim returns it.
func (x *Exit) Result() Result {
	return Result{
		Request: x.Request, NHI: x.NHI, Faulted: x.Faulted, LastStage: x.LastStage,
		EnterCycle: x.EnterCycle, ExitCycle: x.ExitCycle, Visits: x.Visits,
	}
}

// BatchSim is the production lookup engine: the same request→result
// semantics as the scalar Sim — next hops, fault verdicts, cycle stamps,
// traced visits and Stats are byte-identical, which the differential and
// fuzz tests enforce — computed on the image's word slices, read in place,
// without simulating a register shift per cycle. A linear pipeline's timing is
// fixed by its schedule: a lookup entering at cycle t leaves at t+Stages
// and occupies each stage for one cycle, so only the trie walk and the
// per-stage activity it causes depend on data.
//
// Run resolves a whole request slice in batches that sweep each stage
// across all in-flight lookups. Inject / Idle / InjectBubble stream one input
// slot per call, as the slice runners need, and hand nothing back: nothing a
// runner schedules depends on what a lookup resolves to. A step is a push
// into a window of the last Stages+DrainWindow slots; the newest Stages are
// the pipe, the older ones have left it and wait, unwalked, for Drain, which
// walks every lookup in the window through the same sweep as Run, at batch
// width, and hands back the ones that have left, oldest first. Walks thus
// run behind the cycle clock for the slots that wait and ahead of it for the
// slots still in the pipe; Stats books the first as left and derives the
// share of the second from the stage each has reached. Where the image or
// the check changes under lookups — Patch, EnableParityCheck, the bank flip
// as a commit bubble leaves — the waiting ones are first walked on the image
// as it still is, and (Patch, EnableParityCheck) every walk in the pipe that
// ran ahead is rolled back to its checkpoint and redone up to the stage its
// lookup has reached (rollback). Which bank a lookup in the pipe reads
// during a hitless update, old or new, is fixed at injection by whether the
// commit bubble is ahead of it.
type BatchSim struct {
	cur, next *Image // serving image; the shadow bank while an update is armed (else nil)
	nStages   int
	parity    bool
	now       int64
	// st holds the scalar counters, and in its two slices the Run path's
	// share of stage activity; Stats adds the streaming share. Lookups and
	// Faults count drained slots; Stats adds the window's.
	st      Stats
	scratch batchScratch
	// shards are the arenas of a fanned-out batch run, kept for the next.
	shards []shardArena

	// win is the window, a ring: count slots ending just before head, the
	// newest nStages of them the pipe, the rest waiting for Drain. Every
	// unwalked lookup is among the newest fresh.
	win                []slot
	head, count, fresh int
	// visits is the side log of traced lookups, by window index; nil until
	// the first one.
	visits [][]obs.StageVisit
	// ended[s] counts the drained slots whose walk ended in stage s (bubbles
	// and unresolved lookups: the last stage); exited counts them all.
	ended  []int64
	exited int64
	// active/occupied back the slices Stats returns.
	active, occupied []int64
	gen              uint32
	bubblesLeft      int
	commitAt         int64 // cycle the in-flight commit bubble entered
	// published is the cycle clock as of the last publish: the steps since are
	// not in pipeline.cycles_simulated yet.
	published int64
}

// NewBatchSim returns an engine serving img: it reads the image's words in
// place, as every other engine over img does.
func NewBatchSim(img *Image) *BatchSim {
	n := len(img.stages)
	return &BatchSim{
		cur:      img,
		nStages:  n,
		st:       Stats{StageActive: make([]int64, n), StageOccupied: make([]int64, n)},
		win:      make([]slot, n+DrainWindow),
		head:     n,
		count:    n,
		ended:    make([]int64, n),
		active:   make([]int64, n),
		occupied: make([]int64, n),
	}
}

// EnableParityCheck turns on per-access parity verification, matching
// Sim.EnableParityCheck. The verdict per word is kept in the image, so the
// check is a bit test, not a parity recompute.
func (b *BatchSim) EnableParityCheck() {
	b.rollback()
	b.parity = true
}

// back returns the window index of the slot pushed n+1 steps ago.
func (b *BatchSim) back(n int) int {
	i := b.head - 1 - n
	if i < 0 {
		i += len(b.win)
	}
	return i
}

// visitsOf returns the side-log entry of the lookup in window slot i, nil
// unless it is traced.
func (b *BatchSim) visitsOf(i int) *[]obs.StageVisit {
	if b.win[i].flags&slotTraced == 0 {
		return nil
	}
	return &b.visits[i]
}

// runAhead finishes the walk of every lookup in the window that is not walked
// yet, except the newest keep slots: the untraced ones still at stage 0 as
// one group per bank through the sweep, a traced one or one resumed from a
// mid-pipe checkpoint by the chain walk. Checkpoints stay where they are.
func (b *BatchSim) runAhead(keep int) {
	n := b.fresh - keep
	if n <= 0 {
		return
	}
	first, last := b.back(b.fresh-1), b.nStages-1
	sc := &b.scratch
	for g, flat := range [2]*Image{b.cur, b.next} {
		if flat == nil {
			break // no update armed: nothing reads the shadow bank
		}
		gen, live := uint8(b.gen)+uint8(g), 0
		for j, i := 0, first; j < n; j++ {
			f := &b.win[i]
			if f.kind == slotLookup && f.flags&slotDone == 0 && f.gen == gen {
				if f.flags&slotTraced != 0 || f.stage > 0 {
					f.last = uint8(last) // where a walk that never ends leaves the pipe
					f.walk(flat, b.parity, last, b.visitsOf(i))
					f.flags |= slotDone
				} else {
					if live == 0 {
						// Sized on first use: a window of no lookups (an
						// audit's after its parity check) needs no arena.
						sc.ensure(len(b.win))
					}
					sc.load(live, j, f.addr, f.vn, last)
					live++
				}
			}
			if i++; i == len(b.win) {
				i = 0
			}
		}
		if live == 0 {
			continue
		}
		sc.sweep(flat, b.parity, live, nil)
		for j, i := 0, first; j < n; j++ {
			if f := &b.win[i]; f.kind == slotLookup && f.flags&slotDone == 0 && f.gen == gen {
				f.nhi, f.last, f.flags = sc.nhi[j], sc.last[j], f.flags|slotDone
				if sc.flag[j]&flagFaulted != 0 {
					f.flags |= slotFaulted
				}
			}
			if i++; i == len(b.win) {
				i = 0
			}
		}
	}
	b.fresh = min(b.fresh, keep)
}

// rollback returns every walk to the cycle clock, for the moment the image or
// the check is about to change. The lookups that have left the pipe finish
// their walks first, on the image as it still is. Of those in the pipe, a
// walk that ran ahead of the stage its lookup has reached is undone to its
// checkpoint, and every unfinished walk is then taken through the stage
// reached — its new checkpoint. Never further back: what a lookup read in
// the stages behind it stays read, whatever has struck them since.
func (b *BatchSim) rollback() {
	b.runAhead(b.nStages)
	for r := 0; r < b.nStages; r++ {
		i := b.back(r)
		f := &b.win[i]
		done := f.flags&slotDone != 0
		if f.kind != slotLookup || done && int(f.last) <= r {
			continue
		}
		visits := b.visitsOf(i)
		if done {
			f.flags, f.nhi = f.flags&^(slotDone|slotFaulted), ip.NoRoute
			if visits != nil {
				v := *visits
				for len(v) > 0 && v[len(v)-1].Stage >= int(f.stage) {
					v = v[:len(v)-1]
				}
				*visits = v
			}
		}
		flat := b.cur
		if f.gen != uint8(b.gen) {
			flat = b.next
		}
		if idx := f.walk(flat, b.parity, r, visits); f.flags&slotDone == 0 {
			f.idx, f.stage = idx, uint8(r+1)
		}
	}
	b.fresh = max(b.fresh, b.nStages)
}

// Stats returns the accumulated counters as of the current cycle. The
// slices are the engine's own and are rewritten by the next call.
func (b *BatchSim) Stats() Stats {
	b.runAhead(0)
	st := b.st
	st.StageActive, st.StageOccupied = b.active, b.occupied
	// A slot that left was in every stage and active through the stage its
	// walk ended in, drained or not; one that has reached stage s, so far, in
	// stages 0..s and active through s or the end of its walk, whichever comes
	// first — and its fault counts once the stage it strikes in is reached.
	// Either way a slot is one count at its deepest active stage, never below
	// the stage it has reached, and a stage's activity is the sum over the
	// stages from it on.
	copy(st.StageActive, b.ended)
	act, occ := int64(0), b.exited
	for n := b.count - 1; n >= b.nStages; n-- {
		occ += b.win[b.back(n)].left(st.StageActive, &st)
	}
	for s := b.nStages - 1; s >= 0; s-- {
		if f := &b.win[b.back(s)]; f.kind != slotEmpty {
			occ++
			deepest := s
			if f.kind == slotLookup && int(f.last) <= s {
				deepest = int(f.last)
				if f.flags&slotFaulted != 0 {
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

// Patch is how a word of the serving image (or the armed one) is rewritten
// under the engine: it brings every walk to the cycle clock, then runs write
// (Image.FlipBit). Lookups in the pipe have read the old word in the stages
// they are already through and read the new one from here on, as in hardware;
// the ones that have left it read the old word wherever they met it. The
// engine reads the words in place, so a word written ahead of the rollback
// would be read by walks the clock has already taken past it.
func (b *BatchSim) Patch(write func()) {
	b.rollback()
	write()
}

// Reset returns the engine to its post-construction state over the same
// serving image — zero cycle clock, zeroed stats, empty window, any pending
// update discarded — while keeping the flight arena, the window and the stat
// slices allocated, so repeated runs (and benchmark iterations) measure
// lookups, not construction. The parity-check setting survives.
func (b *BatchSim) Reset() {
	b.now, b.published, b.exited, b.bubblesLeft, b.next = 0, 0, 0, 0, nil
	b.st.Cycles, b.st.Lookups, b.st.Bubbles, b.st.Faults = 0, 0, 0, 0
	clear(b.win)
	clear(b.visits)
	b.head, b.count, b.fresh = b.nStages, b.nStages, 0
	for s := range b.ended {
		b.ended[s], b.st.StageActive[s], b.st.StageOccupied[s] = 0, 0, 0
	}
}

// step advances one cycle: in enters the pipe and the slot pushed Stages
// steps ago leaves it — a commit bubble by making the shadow bank the serving
// one, once the lookups that left ahead of it are walked on the old one.
func (b *BatchSim) step(in slot) {
	if b.count == len(b.win) {
		panic("pipeline: BatchSim stepped with a full drain window (Drain every DrainWindow steps)")
	}
	if b.win[b.back(b.nStages-1)].kind == slotCommit {
		b.runAhead(b.nStages)
		b.cur, b.next = b.next, nil
		b.gen++
	}
	b.win[b.head] = in
	if b.head++; b.head == len(b.win) {
		b.head = 0
	}
	b.count++
	b.fresh++
	b.now++
	b.st.Cycles++
}

// Full reports that DrainWindow slots wait outside the pipe: the next step
// needs a Drain first.
func (b *BatchSim) Full() bool { return b.count == len(b.win) }

// Inject advances the pipeline one cycle, feeding req into stage 0; stamp is
// the caller's name for this cycle, handed back with whatever lookup the step
// pushes out of the last stage (Exit.Stamp).
func (b *BatchSim) Inject(req Request, stamp int64) {
	in := slot{stamp: stamp, addr: uint32(req.Addr), vn: clampVN(req.VN), kind: slotLookup, gen: uint8(b.gen), newUntil: -1}
	if b.next != nil && b.bubblesLeft == 0 {
		// Behind the commit bubble: every stage has flipped by the time this
		// lookup reaches it.
		in.gen++
		in.newUntil = int16(b.commitAt + int64(b.nStages) - b.now)
	}
	if req.Trace {
		if b.visits == nil {
			b.visits = make([][]obs.StageVisit, len(b.win))
		}
		in.flags = slotTraced
		b.visits[b.head] = make([]obs.StageVisit, 0, b.nStages)
	}
	b.step(in)
}

// Idle advances the pipeline one cycle with nothing entering stage 0.
func (b *BatchSim) Idle(stamp int64) { b.step(slot{stamp: stamp}) }

// Drain walks every lookup in the window that is not walked yet and appends
// to dst, oldest first, the ones that have left the pipe since the last call,
// with Sim.Inject's verdicts and cycle stamps. The slots they and the idle
// cycles and write bubbles between them held are free again.
func (b *BatchSim) Drain(dst []Exit) []Exit {
	b.runAhead(0)
	lookups, faults := b.st.Lookups, b.st.Faults
	n := b.count - b.nStages
	i, enter := b.back(b.count-1), b.now-int64(b.count)
	for ; n > 0; n-- {
		f := &b.win[i]
		b.exited += f.left(b.ended, &b.st)
		if f.kind == slotLookup {
			// The step that pushed this slot out pushed the slot Stages on in.
			out := i + b.nStages
			if out >= len(b.win) {
				out -= len(b.win)
			}
			// Written field by field into its place in dst: the exit is 80
			// bytes, and a literal would be built aside and copied in.
			if len(dst) == cap(dst) {
				dst = slices.Grow(dst, n)
			}
			dst = dst[:len(dst)+1]
			x := &dst[len(dst)-1]
			x.Addr, x.VN, x.Trace = ip.Addr(f.addr), int(f.vn), f.flags&slotTraced != 0
			x.NHI, x.Faulted, x.LastStage = f.nhi, f.flags&slotFaulted != 0, int(f.last)
			x.EnterCycle, x.ExitCycle, x.Stamp = enter, enter+int64(b.nStages), b.win[out].stamp
			x.Visits = nil
			if x.Trace {
				x.Visits, b.visits[i] = b.visits[i], nil
			}
		}
		enter++
		if i++; i == len(b.win) {
			i = 0
		}
	}
	b.count = b.nStages
	b.publish(b.st.Lookups-lookups, b.st.Faults-faults)
	return dst
}

// publish adds to the process-wide counters the lookups and faults the caller
// has finished with and the steps taken since the last publish: once per Drain
// and once per Run, never per lookup. What is published stays published
// through a Reset or the engine's replacement; steps not yet published then
// are dropped with the window.
func (b *BatchSim) publish(lookups, faults int64) {
	obsLookups.Add(lookups)
	obsCycles.Add(b.now - b.published)
	obsFaults.Add(faults)
	b.published = b.now
}

// BeginUpdate arms a hitless image update with Sim.BeginUpdate's contract:
// next replaces the serving image through bubbles write bubbles (at least
// one: the last doubles as the bank-flip commit), lookups keep flowing, and
// Updating turns false once the commit bubble has drained.
func (b *BatchSim) BeginUpdate(next *Image, bubbles int) error {
	if next == nil {
		return fmt.Errorf("pipeline: BeginUpdate with nil image")
	}
	if b.next != nil {
		return fmt.Errorf("pipeline: update already in flight (%d bubbles pending)", b.bubblesLeft)
	}
	if len(next.stages) != b.nStages {
		return fmt.Errorf("pipeline: update stage counts differ (%d vs %d)", len(next.stages), b.nStages)
	}
	if bubbles < 1 {
		bubbles = 1
	}
	b.next, b.bubblesLeft = next, bubbles
	return nil
}

// Updating reports whether an armed update has not yet fully committed.
func (b *BatchSim) Updating() bool { return b.next != nil }

// PendingBubbles returns the write bubbles not yet injected.
func (b *BatchSim) PendingBubbles() int { return b.bubblesLeft }

// AbortUpdate disarms a pending update, legal only until the commit bubble
// is injected (Sim.AbortUpdate's contract): the serving image keeps serving.
// No lookup reads the shadow bank before then, so no walk is affected.
func (b *BatchSim) AbortUpdate() error {
	if b.next == nil {
		return fmt.Errorf("pipeline: no update to abort")
	}
	if b.bubblesLeft == 0 {
		return fmt.Errorf("pipeline: commit bubble already in flight, update cannot be aborted")
	}
	b.next, b.bubblesLeft = nil, 0
	return nil
}

// InjectBubble advances one cycle feeding the next write bubble into stage
// 0 in place of a lookup; stamp is as for Inject. It fails, without a step,
// when no update is armed or the budget is spent.
func (b *BatchSim) InjectBubble(stamp int64) error {
	if b.next == nil || b.bubblesLeft == 0 {
		return fmt.Errorf("pipeline: no write bubble pending")
	}
	in := slot{stamp: stamp, kind: slotBubble}
	if b.bubblesLeft--; b.bubblesLeft == 0 {
		in.kind, b.commitAt = slotCommit, b.now
	}
	b.st.Bubbles++
	b.step(in)
	return nil
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
	b.run(len(reqs), source{reqs: reqs}, int64(interarrival), 1, dst[base:], nil)
	return dst, b.Stats(), nil
}

// source is where a batch run reads its requests: the caller's own slice
// (Run, RunAppend), or a filler that writes each chunk into the buffer of the
// shard about to sweep it (RunSharded). A struct, not a closure over the
// slice, so that Run allocates nothing for it.
type source struct {
	reqs []Request
	fill func(start int, reqs []Request)
}

// idle reports an error unless the window is empty and no update is armed:
// Run's closed-form schedule has no place for streamed slots.
func (b *BatchSim) idle() error {
	busy := b.next != nil
	for n := 0; n < b.count; n++ {
		busy = busy || b.win[b.back(n)].kind != slotEmpty
	}
	if busy {
		return fmt.Errorf("pipeline: Run on an engine with streamed lookups in flight or waiting for Drain, or an update in flight")
	}
	return nil
}

// Shards is the shard count RunSharded is meant to be given for n requests:
// one per sweep worker, but never more than there are batchFlights chunks,
// and one below shardMinReqs, where the fan-out costs more than it saves.
func Shards(n int) int {
	workers := sweep.Workers()
	if n < shardMinReqs || workers <= 1 {
		return 1
	}
	return min(workers, (n+batchFlights-1)/batchFlights)
}

// RunSharded is Run over n requests, one a cycle, split into contiguous
// shards on the sweep worker pool — the coordinator split that lets one
// engine's simulated throughput scale with cores — that stages no batch and
// keeps no results. Each shard builds its requests a chunk of up to
// batchFlights at a time: fill(start, reqs) writes every field of requests
// start..start+len(reqs)-1 into the shard's own buffer, which is then swept.
// The shard hands the chunk's results to visit, with its shard number and
// the chunk's first request index; res is the shard's own buffer and is
// rewritten by its next chunk. One shard's chunks come in request order from
// one goroutine; different shards' calls run concurrently, so fill reads
// only what no one writes during the run and visit keeps per-shard state
// (shard < shards). Flight walks are independent and the cycle accounting is
// closed-form, so the chunks and the Stats are byte-identical at any shard
// count: per-shard stage-activity and fault counts merge additively in shard
// order.
func (b *BatchSim) RunSharded(n, shards int, fill func(start int, reqs []Request), visit func(shard, start int, res []Result)) (Stats, error) {
	if err := b.idle(); err != nil {
		return Stats{}, err
	}
	b.run(n, source{fill: fill}, 1, shards, nil, visit)
	return b.Stats(), nil
}

// run is the one chunk loop behind Run, RunAppend and RunSharded: it sweeps
// n requests from src, one per g cycles, in up to shards contiguous shards,
// then books the batch. One shard runs on the engine's own arena and adds to
// its stats in place, as a lone Run did; more run on the sweep pool, each on
// an arena of its own (kept for the next run) whose deltas merge in shard
// order.
func (b *BatchSim) run(n int, src source, g int64, shards int, out []Result, visit func(shard, start int, res []Result)) {
	shards = max(1, min(shards, (n+batchFlights-1)/batchFlights))
	per := (n + shards - 1) / shards
	startFaults := b.st.Faults // a lone shard bumps b.st in place; snapshot first
	if shards == 1 {
		b.runShard(&b.scratch, &b.st, 0, 0, n, src, g, out, visit)
		b.finish(n, g, startFaults)
		return
	}
	if len(b.shards) < shards {
		b.shards = append(b.shards, make([]shardArena, shards-len(b.shards))...)
	}
	sweep.Run(shards, func(i int) (struct{}, error) { // a shard never fails
		sc := &b.shards[i]
		if sc.delta.StageActive == nil {
			sc.delta.StageActive = make([]int64, b.nStages)
		}
		clear(sc.delta.StageActive)
		sc.delta.Faults = 0
		b.runShard(&sc.batchScratch, &sc.delta, i, i*per, min(n, (i+1)*per), src, g, out, visit)
		return struct{}{}, nil
	})
	for i := range b.shards[:shards] {
		d := &b.shards[i].delta
		for s, a := range d.StageActive {
			b.st.StageActive[s] += a
		}
		b.st.Faults += d.Faults
	}
	b.finish(n, g, startFaults)
}

// runShard is shard number shard of a batch run: it sweeps requests lo..hi-1
// of src a chunk of up to batchFlights at a time on arena sc, adding stage
// activity and faults to st. A filled chunk is built in the arena's request
// buffer just before its sweep. Each chunk's results go into their place in
// out or, when out is nil, into the arena's buffer, and are handed to visit,
// if any.
func (b *BatchSim) runShard(sc *batchScratch, st *Stats, shard, lo, hi int, src source, g int64, out []Result, visit func(shard, start int, res []Result)) {
	// The arena is sized by the widest chunk, so an audit of a few dozen
	// probes allocates for those.
	n := min(hi-lo, batchFlights)
	sc.ensure(n)
	if src.fill != nil && len(sc.req) < n {
		sc.req = make([]Request, n)
	}
	if out == nil && len(sc.res) < n {
		sc.res = make([]Result, n)
	}
	for start := lo; start < hi; start += batchFlights {
		m := min(hi-start, batchFlights)
		var reqs []Request
		if src.fill != nil {
			reqs = sc.req[:m]
			src.fill(start, reqs)
		} else {
			reqs = src.reqs[start : start+m]
		}
		var res []Result
		if out != nil {
			res = out[start : start+m]
		} else {
			res = sc.res[:m]
		}
		b.sweepChunk(reqs, res, sc, st, b.now+int64(start)*g, g)
		if visit != nil {
			visit(shard, start, res)
		}
	}
}

// finish applies the closed-form cycle accounting of Sim.Run to a completed
// batch of n lookups: stage occupancy, the total step count (one step per
// arrival slot plus the drain) and the obs counters (with any idle steps
// streamed since the last publish). The per-result entry/exit stamps were
// already written by the sweeps.
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
	b.publish(int64(n), b.st.Faults-startFaults)
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
			f := slot{addr: uint32(reqs[j].Addr), vn: clampVN(reqs[j].VN), newUntil: -1, last: uint8(b.nStages - 1)}
			visits := make([]obs.StageVisit, 0, b.nStages)
			f.walk(b.cur, b.parity, b.nStages-1, &visits)
			enter := enter0 + int64(j)*g
			out[j] = Result{
				Request: reqs[j], NHI: f.nhi, Faulted: f.flags&slotFaulted != 0, Visits: visits,
				EnterCycle: enter, ExitCycle: enter + n, LastStage: int(f.last),
			}
			for s := 0; s <= int(f.last); s++ {
				st.StageActive[s]++
			}
			if out[j].Faulted {
				st.Faults++
			}
			sc.flag[j] = flagTraced
			continue
		}
		sc.load(nLive, j, uint32(reqs[j].Addr), clampVN(reqs[j].VN), b.nStages-1)
		nLive++
	}
	st.Faults += sc.sweep(b.cur, b.parity, nLive, st.StageActive)
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

// clampVN narrows a request's VN to the engines' 32 bits; a VN outside them
// reads -1, which misses every leaf as the VN itself would.
func clampVN(vn int) int32 {
	if vn != int(int32(vn)) {
		return -1
	}
	return int32(vn)
}

// load makes the lookup of addr in vn, whose verdict slots are at position
// pos, flight number n of the next sweep. The verdict defaults to the full
// pipe: a flight that outlives the last stage was active in every one,
// resolved nothing and did not fault; the sweep's removal points overwrite it.
func (sc *batchScratch) load(n, pos int, addr uint32, vn int32, lastStage int) {
	sc.nhi[pos], sc.flag[pos], sc.last[pos] = ip.NoRoute, 0, uint8(lastStage)
	sc.fl[n] = bFlight{addr: addr, pos: int32(pos), vn: vn}
}

// sweep is the walk kernel of both modes: it takes the nLive flights loaded
// at the front of the arena from stage 0 to their ends in flat, every flight
// one stage at a time, leaving next hop, fault flag and last stage in the
// verdict slots of each one's position. It returns the number of faults and
// adds, where active is given, one count per stage per flight live in it —
// exactly what the scalar engine's per-cycle process calls count.
//
// Where the image has a jump table the flights first part into two lanes.
// The jumpers — those whose top address bits the table resolves — move to the
// front of the arena with the entry index at which they enter stage jumpStage,
// and are credited as live in every stage they skip (they are: the table
// holds no walk that ends before it). The rest are walked behind them from
// stage 0 as ever, compacting towards the jumpers, so at jumpStage the two
// lanes are one dense set again.
func (sc *batchScratch) sweep(flat *Image, parity bool, nLive int, active []int64) (faults int64) {
	fl, slab := sc.fl, flat.nhi
	var bad uint16 // the meta bit that faults a walk: none unless parity is checked
	if parity {
		bad = metaParityBad
	}
	jumped := 0
	// (A table's shift is 16..31; the mask lets the compiler see it in range.)
	if jump, shift := flat.jump, flat.jumpShift&31; jump != nil {
		for i := 0; i < nLive; i++ {
			if idx := jump[fl[i].addr>>shift]; idx != noJump {
				f := fl[i]
				f.idx = idx
				fl[i], fl[jumped] = fl[jumped], f
				jumped++
			}
		}
		if active != nil {
			for s := 0; s < flat.jumpStage; s++ {
				active[s] += int64(jumped)
			}
		}
		fl, nLive = fl[jumped:], nLive-jumped
	}
	for s := 0; s < len(flat.stages); s++ {
		if jumped > 0 && (s == flat.jumpStage || nLive == 0) {
			// The walked lane has arrived, or ended on the way: the lanes join.
			s, fl, nLive, jumped = flat.jumpStage, sc.fl, nLive+jumped, 0
		}
		if nLive == 0 {
			break
		}
		if active != nil {
			active[s] += int64(nLive)
		}
		fs := &flat.stages[s]
		// Level-major: every unresolved flight in this stage performs the same
		// fs.visits steps, so driving the intra-stage walk by level removes the
		// per-entry fold branch from the hot loop entirely.
		for v := 0; v < fs.visits && nLive > 0; v++ {
			var f int64
			nLive, f = sc.level(fl[:nLive], fs, slab, bad, uint8(s))
			faults += f
		}
	}
	return faults
}

// level is the sweep's inner loop, a function of its own so that its few
// live values stay in registers: it takes every flight of fl one step through
// the stage's words, swap-removing the ones that end here (flight order is
// free: results key on pos), and returns how many are still live and how many
// faulted. The only data-dependent branches are leaf resolution (once per
// flight) and the rare fault paths, and one test of the meta word sends a
// flight down either: the surviving path is a load of the index, the meta
// word and the child the address bit selects — indexed, not branched on — and
// a store of the 4-byte index. Unchecked, bad is zero and a stale-parity word
// reads as any other.
func (sc *batchScratch) level(fl []bFlight, fs *stage, slab []ip.NextHop, bad uint16, s uint8) (live int, faults int64) {
	// Reslicing child to meta's length lets one idx<len(meta) test prove
	// both accesses in bounds (an image builds them the same length).
	meta := fs.meta
	child := fs.child[:len(meta)]
	for i := 0; i < len(fl); {
		f := &fl[i]
		if idx := int(f.idx); idx < len(meta) {
			m := meta[idx]
			if m&(metaLeaf|bad) == 0 {
				f.idx = child[idx][f.addr>>(m&metaShiftMask)&1]
				i++
				continue
			}
			if m&bad == 0 {
				if c := child[idx]; uint32(f.vn) < c[1] { // unsigned compare: negative VNs miss too
					sc.nhi[f.pos] = slab[c[0]+uint32(f.vn)]
				}
				sc.last[f.pos] = s
				fl[i] = fl[len(fl)-1]
				fl = fl[:len(fl)-1]
				continue
			}
		}
		// A stale-parity word, or a corrupted child pointer that escaped the
		// stage's address range — fatal for the lookup, as in the scalar
		// engine.
		sc.flag[f.pos] = flagFaulted
		sc.last[f.pos] = s
		faults++
		fl[i] = fl[len(fl)-1]
		fl = fl[:len(fl)-1]
	}
	return len(fl), faults
}

// Lookups resolves a batch of probes with one batched engine — the bulk
// replacement for calling Lookup once per test vector.
func Lookups(img *Image, reqs []Request) []ip.NextHop {
	out := make([]ip.NextHop, len(reqs))
	// A fresh engine is idle, so it runs the chunk loop straight off reqs.
	NewBatchSim(img).run(len(reqs), source{reqs: reqs}, 1, 1, nil, func(_, start int, res []Result) {
		for j := range res {
			out[start+j] = res[j].NHI
		}
	})
	return out
}
