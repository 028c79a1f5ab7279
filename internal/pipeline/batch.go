package pipeline

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"vrpower/internal/ip"
	"vrpower/internal/obs"
	"vrpower/internal/sweep"
)

// batchFlights is the batch width: the flight arena for one chunk (≈ 20
// bytes a flight) stays in L1 while a sweep streams a stage's words past it.
const batchFlights = 512

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
// flat slice plus per-position result slots, reused across runs and engines
// (arenas), so the untraced batched path performs zero per-lookup heap
// allocations.
type batchScratch struct {
	fl   []bFlight    // live flights, dense, compacted every sweep step
	nhi  []ip.NextHop // resolved next hop, by chunk position
	flag []uint8      // flagFaulted / flagTraced, by chunk position
	last []uint8      // deepest active stage (Result.LastStage), by chunk position

	// req and res are a batch run's chunk buffers (BatchSim.run): the requests
	// a filler writes and the results a visitor reads, a chunk at a time.
	req []Request
	res []Result
	// exits is a streaming Drain's buffer, a run of exits at a time.
	exits []Exit
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

// SettleCycles is the most steps a streaming engine takes between two
// Drains, so its log holds at most Stages+SettleCycles records. A slice
// runner settles its engines at every slice end and every SettleCycles
// cycles of a longer slice.
const SettleCycles = 1024

// rec is one record of the streaming log, 12 bytes: a lookup or a write
// bubble, in entry order (an idle step has none). nhi and last hold a
// lookup's verdict once its walk has ended.
type rec struct {
	addr  uint32
	vn    int16 // outside int16, -1: it misses every leaf as the VN would
	nhi   ip.NextHop
	at    uint16 // the step it entered on, counted from BatchSim.base
	flags uint8
	last  uint8 // the stage the walk ended in; one that never ends, the last
}

const (
	recBubble  uint8 = 1 << iota // a write bubble
	recTraced                    // its visits are in BatchSim.traces
	recGen                       // low bit of the generation it reads: BatchSim.gen at entry, +1 behind a commit bubble
	recDone                      // the walk has ended
	recFaulted                   // on a detected memory fault
)

// tracedWalk is the visit log of the traced lookup that entered on step t.
type tracedWalk struct {
	t        int64
	visits   []obs.StageVisit
	newUntil int // as in chain
}

// stampNote is the stamp of a step not stamped the step before's plus one.
type stampNote struct{ step, stamp int64 }

// chain is a lookup's walk: addr in vn, standing at entry idx of stage.
type chain struct {
	addr     uint32
	vn       int32
	idx      uint32
	stage    int
	newUntil int // the last stage whose visits read the shadow bank while the commit bubble ahead was in the pipe (-1: none)
}

// walk takes the lookup through stage upto of flat as Sim.process does, one
// stage a cycle: folded levels (no more than the stage has: a corrupted
// pointer may close a cycle) in one visit, a stale-parity word (checked) or
// an out-of-range pointer ends it as a fault, a leaf resolves it. Traced
// lookups (visits is their log) and those in the pipe take it, the rest
// batchScratch.sweep. It reports whether the walk ended, where c then
// stands, with its verdict; else c stands in stage upto+1.
func (c *chain) walk(flat *Image, parity bool, upto int, visits *[]obs.StageVisit) (ended, faulted bool, nhi ip.NextHop) {
	idx, s := c.idx, c.stage
	for ; s <= upto; s++ {
		fs := &flat.stages[s]
		meta, child := fs.meta, fs.child[:len(fs.meta)]
		for v := 1; ; v++ {
			if visits != nil {
				*visits = append(*visits, obs.StageVisit{Stage: s, Entry: idx, NewBank: s <= c.newUntil})
			}
			if int(idx) >= len(meta) || parity && meta[idx]&metaParityBad != 0 {
				if visits != nil {
					(*visits)[len(*visits)-1].Fault = true
				}
				c.idx, c.stage = idx, s
				return true, true, ip.NoRoute
			}
			m, ch := meta[idx], child[idx]
			if m&metaLeaf != 0 {
				if uint32(c.vn) < ch[1] { // unsigned compare: negative VNs miss too
					nhi = flat.nhi[ch[0]+uint32(c.vn)]
				}
				c.idx, c.stage = idx, s
				return true, false, nhi
			}
			if idx = ch[c.addr>>(m&metaShiftMask)&1]; m&metaFold == 0 || v >= fs.visits {
				break
			}
		}
	}
	c.idx, c.stage = idx, s
	return false, false, ip.NoRoute
}

// Exit is a streamed lookup that has left the pipe: Sim.Inject's Result, and
// the stamp the caller passed with the step it left on — a runner whose
// engines sit cycles out stamps its own cycle, which the engine's trails.
type Exit struct {
	Result
	Stamp int64
}

// arenas is the free list of the arenas batch runs and streaming settles
// borrow: engines that run or settle one at a time share one.
var arenas struct {
	sync.Mutex
	free []*batchScratch
}

func borrowArena() *batchScratch {
	arenas.Lock()
	defer arenas.Unlock()
	if n := len(arenas.free); n > 0 {
		sc := arenas.free[n-1]
		arenas.free = arenas.free[:n-1]
		return sc
	}
	return new(batchScratch)
}

func returnArena(sc *batchScratch) {
	arenas.Lock()
	arenas.free = append(arenas.free, sc)
	arenas.Unlock()
}

// BatchSim is the production lookup engine: the scalar Sim's request→result
// semantics, byte-identical (the differential and fuzz tests enforce it), on
// the image's words read in place, without a register shift per cycle. A
// linear pipeline's timing is fixed by its schedule — a lookup entering at
// cycle t leaves at t+Stages — so only the walk and the stage activity it
// causes depend on data.
//
// Run resolves a request slice in batches that sweep each stage across all
// in-flight lookups. Streamed, Inject and InjectBubble append a record to a
// log, Idle only advances the clock, and nothing is handed back until Drain.
// Walks happen in settle alone, never ahead of the clock: lookups that have
// left the pipe are swept at batch width through Run's kernel, the at most
// Stages in it walked through the stage each has reached. So settling first
// is exact wherever the image or the check changes — Patch,
// EnableParityCheck, the bank flip as a commit bubble leaves. Which bank a
// lookup reads is fixed at entry by whether the commit bubble is ahead of it.
type BatchSim struct {
	banks
	nStages int
	parity  bool
	now     int64
	// st holds the scalar counters — Lookups and Faults count the lookups
	// that have left the pipe — and in its slices the Run path's share of
	// stage activity; Stats adds the streaming share.
	st Stats

	// log holds the records not handed back, oldest first: log[:left] have
	// left the pipe, walked and booked; log[:walked] were walked at the last
	// settle, those in the pipe through the stage reached, their walks in
	// side by entry step mod Stages. The first streamed step that needs them
	// allocates these.
	log                  []rec
	base                 int64
	left, walked         int
	side                 []chain
	traces               []tracedWalk // by entry step
	notes                []stampNote  // since the last Drain, and the one before
	stamp                int64        // the last step's
	settledAt, drainedAt int64        // the clock at the last settle and Drain
	// ended[s] counts the records that left with their walk ending in stage
	// s (bubbles and unresolved lookups: the last); exited counts them all.
	ended                            []int64
	exited                           int64
	active, occupied                 []int64 // back the slices Stats returns
	gen                              uint32
	commitAt                         int64 // cycle the in-flight commit bubble entered
	published, pubLookups, pubFaults int64 // the clock and counters at the last publish
}

// NewBatchSim returns an engine serving img: it reads the image's words in
// place, as every other engine over img does.
func NewBatchSim(img *Image) *BatchSim {
	n := len(img.stages)
	c := make([]int64, 5*n)
	return &BatchSim{banks: banks{cur: img}, nStages: n, st: Stats{StageActive: c[:n:n], StageOccupied: c[n : 2*n : 2*n]},
		ended: c[2*n : 3*n : 3*n], active: c[3*n : 4*n : 4*n], occupied: c[4*n:]}
}

// EnableParityCheck turns on per-access parity verification, as
// Sim.EnableParityCheck, once settled: the stages behind a lookup were read
// unchecked. A word's verdict is kept in the image: the check is a bit test.
func (b *BatchSim) EnableParityCheck() {
	b.settle()
	b.parity = true
}

// Patch is how a word of the serving image (or the armed one) is rewritten
// under the engine: it settles, then runs write (Image.FlipBit). As in
// hardware, a lookup reads the new word only in the stages still ahead of it.
func (b *BatchSim) Patch(write func()) {
	b.settle()
	write()
}

func (b *BatchSim) enter(i int) int64 { return b.base + int64(b.log[i].at) }

// image returns the bank r reads.
func (b *BatchSim) image(r *rec) *Image {
	if (r.flags&recGen != 0) == (b.gen&1 != 0) {
		return b.cur
	}
	return b.next
}

// settle walks the log to the clock — a lookup that has left the pipe to
// its end, one in it through the stage it has reached — and books what has
// left into ended and st.
func (b *BatchSim) settle() {
	if b.settledAt == b.now {
		return
	}
	b.settledAt = b.now
	for i := b.left; i < b.walked; i++ {
		b.advance(i, true) // in the pipe at the last settle
	}
	n := int64(b.nStages)
	gone := b.walked
	for gone < len(b.log) && b.enter(gone)+n < b.now {
		gone++
	}
	if gone > b.walked {
		// Fresh lookups that have left: swept a chunk and a bank at a time.
		sc := borrowArena()
		sc.ensure(batchFlights)
		for c := b.walked; c < gone; c += batchFlights {
			chunk := b.log[c:min(gone, c+batchFlights)]
			for _, flat := range [2]*Image{b.cur, b.next} {
				if flat == nil {
					break // no update armed: nothing reads the shadow bank
				}
				live := 0
				for j := range chunk {
					if r := &chunk[j]; r.flags&(recBubble|recTraced) == 0 && b.image(r) == flat {
						sc.load(live, j, r.addr, int32(r.vn), b.nStages-1)
						live++
					}
				}
				sc.sweep(flat, b.parity, live, nil)
				for j := range chunk {
					if r := &chunk[j]; r.flags&(recBubble|recTraced) == 0 && b.image(r) == flat {
						r.nhi, r.last, r.flags = sc.nhi[j], sc.last[j], r.flags|recDone
						if sc.flag[j]&flagFaulted != 0 {
							r.flags |= recFaulted
						}
					}
				}
			}
		}
		returnArena(sc)
	}
	for i := b.walked; i < len(b.log); i++ {
		if i >= gone || b.log[i].flags&recTraced != 0 {
			b.advance(i, false) // in the pipe, or traced
		}
	}
	b.walked = len(b.log)
	for ; b.left < len(b.log) && b.enter(b.left)+n < b.now; b.left++ {
		// Left: it was in every stage, and active through the one its walk
		// ended in (a write bubble: all of them).
		r := &b.log[b.left]
		b.exited++
		if r.flags&recBubble != 0 {
			b.ended[b.nStages-1]++
			continue
		}
		b.ended[r.last]++
		b.st.Lookups++
		if r.flags&recFaulted != 0 {
			b.st.Faults++
		}
	}
}

// advance walks the lookup of log[i] on from where it stands (resumed: from
// side) through the stage the clock has brought it to, and keeps the verdict
// once it ends (by the last stage at the latest), or else the walk in side.
func (b *BatchSim) advance(i int, resumed bool) {
	r := &b.log[i]
	if r.flags&(recBubble|recDone) != 0 {
		return
	}
	t := b.enter(i)
	upto, slot := min(int(b.now-1-t), b.nStages-1), int(t%int64(b.nStages))
	c := chain{addr: r.addr, vn: int32(r.vn), newUntil: -1}
	if resumed {
		c.idx, c.stage = b.side[slot].idx, b.side[slot].stage
	}
	var visits *[]obs.StageVisit
	if r.flags&recTraced != 0 {
		k, _ := slices.BinarySearchFunc(b.traces, t, func(w tracedWalk, t int64) int { return cmp.Compare(w.t, t) })
		visits, c.newUntil = &b.traces[k].visits, b.traces[k].newUntil
	}
	ended, faulted, nhi := c.walk(b.image(r), b.parity, upto, visits)
	switch {
	case ended || upto == b.nStages-1:
		r.nhi, r.last, r.flags = nhi, uint8(min(c.stage, upto)), r.flags|recDone
		if faulted {
			r.flags |= recFaulted
		}
	case b.side == nil:
		b.side = make([]chain, b.nStages)
		fallthrough
	default:
		b.side[slot] = c
	}
}

// Stats returns the accumulated counters as of the current cycle. The
// slices are the engine's own and are rewritten by the next call.
func (b *BatchSim) Stats() Stats {
	b.settle()
	st := b.st
	st.Cycles = b.now
	// A record that left was in every stage and active through the one its
	// walk ended in; one at stage s, in stages 0..s and active through its
	// walk's end or s. Each is one count at its deepest stage; a stage's
	// count is the sum over the stages from it on.
	act, occ := b.active, b.occupied
	copy(act, b.ended)
	clear(occ)
	for i := b.left; i < len(b.log); i++ {
		r, reached := &b.log[i], int(b.now-1-b.enter(i))
		occ[reached]++
		switch {
		case r.flags&recDone == 0:
			act[reached]++
		case r.flags&recFaulted != 0:
			st.Faults++
			fallthrough
		default:
			act[r.last]++
		}
	}
	a, o := int64(0), b.exited
	for s := b.nStages - 1; s >= 0; s-- {
		a, o = a+act[s], o+occ[s]
		act[s], occ[s] = b.st.StageActive[s]+a, b.st.StageOccupied[s]+o
	}
	st.StageActive, st.StageOccupied = act, occ
	return st
}

// Reset returns the engine to its post-construction state over the serving
// image — zero clock and stats, empty log, no update — keeping what it has
// allocated and the parity-check setting.
func (b *BatchSim) Reset() {
	b.now, b.published, b.pubLookups, b.pubFaults, b.exited, b.bubblesLeft, b.next = 0, 0, 0, 0, 0, 0, nil
	b.st.Lookups, b.st.Bubbles, b.st.Faults = 0, 0, 0
	clear(b.traces)
	b.log, b.traces, b.notes = b.log[:0], b.traces[:0], b.notes[:0]
	b.left, b.walked, b.settledAt, b.drainedAt = 0, 0, 0, 0
	clear(b.st.StageActive)
	clear(b.st.StageOccupied)
	clear(b.ended)
}

// Full reports that the next step needs a Drain first.
func (b *BatchSim) Full() bool { return b.now-b.drainedAt >= SettleCycles }

// tick advances the clock a step. The step the commit bubble leaves on flips
// the banks, once the lookups ahead of it, all left, are walked on the old.
func (b *BatchSim) tick(stamp int64) {
	if b.Full() {
		panic("pipeline: BatchSim stepped SettleCycles steps past its last Drain")
	}
	if b.next != nil && b.bubblesLeft == 0 && b.now == b.commitAt+int64(b.nStages) {
		b.settle()
		b.cur, b.next = b.next, nil
		b.gen++
	}
	if stamp != b.stamp+1 || len(b.notes) == 0 {
		b.notes = append(b.notes, stampNote{step: b.now, stamp: stamp})
	}
	b.stamp = stamp
	b.now++
}

// push takes a step that feeds a record into stage 0 and returns it, zero
// but for its entry step, for the caller to fill in place: a record built
// aside and copied in is written as narrow stores and read back wide.
func (b *BatchSim) push(stamp int64) *rec {
	t := b.now
	b.tick(stamp)
	if b.log == nil {
		b.log = make([]rec, 0, b.nStages+SettleCycles)
	}
	if len(b.log) == 0 {
		b.base = t
	}
	b.log = append(b.log, rec{at: uint16(t - b.base)})
	return &b.log[len(b.log)-1]
}

// Inject advances the pipeline one cycle, feeding req into stage 0; stamp is
// the caller's name for this cycle, handed back with whatever lookup the step
// pushes out of the last stage (Exit.Stamp).
func (b *BatchSim) Inject(req Request, stamp int64) {
	vn, flags, newUntil := int16(-1), uint8(b.gen&1)*recGen, -1
	if req.VN == int(int16(req.VN)) {
		vn = int16(req.VN)
	}
	if b.next != nil && b.bubblesLeft == 0 {
		// Behind the commit bubble: every stage has flipped by the time the
		// lookup reaches it.
		flags ^= recGen
		newUntil = int(b.commitAt + int64(b.nStages) - b.now)
	}
	if req.Trace {
		flags |= recTraced
		b.traces = append(b.traces, tracedWalk{t: b.now, visits: make([]obs.StageVisit, 0, b.nStages), newUntil: newUntil})
	}
	r := b.push(stamp)
	r.addr, r.vn, r.flags = uint32(req.Addr), vn, flags
}

// FlipDue reports that the armed update's commit bubble has left the last
// stage: the banks flip as the next step starts.
func (b *BatchSim) FlipDue() bool {
	return b.next != nil && b.bubblesLeft == 0 && b.now == b.commitAt+int64(b.nStages)
}

// Idle advances the pipeline one cycle with nothing entering stage 0.
func (b *BatchSim) Idle(stamp int64) { b.tick(stamp) }

// InjectBubble advances one cycle feeding the next write bubble into stage
// 0 in place of a lookup; stamp is as for Inject. It fails, without a step,
// when no update is armed or the budget is spent.
func (b *BatchSim) InjectBubble(stamp int64) error {
	if b.next == nil || b.bubblesLeft == 0 {
		return fmt.Errorf("pipeline: no write bubble pending")
	}
	if b.bubblesLeft--; b.bubblesLeft == 0 {
		b.commitAt = b.now // the commit bubble: banks flip as it leaves
	}
	b.st.Bubbles++
	b.push(stamp).flags = recBubble
	return nil
}

// Drain settles the engine and hands visit (if any), oldest first and a run
// at a time, the lookups that have left the pipe since the last call as
// Sim.Inject returns them. The next run rewrites the buffer; its visits are
// the caller's.
func (b *BatchSim) Drain(visit func(exits []Exit)) {
	b.settle()
	if b.left > 0 {
		sc := borrowArena()
		if sc.exits == nil {
			sc.exits = make([]Exit, 128)
		}
		n, note, traced := 0, 0, 0
		for i := range b.log[:b.left] {
			r := &b.log[i]
			if r.flags&recBubble != 0 {
				continue
			}
			enter := b.enter(i)
			out := enter + int64(b.nStages) // the step it left on
			for note+1 < len(b.notes) && b.notes[note+1].step <= out {
				note++
			}
			// Written field by field into its place: a literal would be built
			// aside and copied in.
			x := &sc.exits[n]
			x.Addr, x.VN, x.Trace = ip.Addr(r.addr), int(r.vn), r.flags&recTraced != 0
			x.NHI, x.Faulted, x.LastStage = r.nhi, r.flags&recFaulted != 0, int(r.last)
			x.EnterCycle, x.ExitCycle, x.Stamp = enter, out, b.notes[note].stamp+out-b.notes[note].step
			x.Visits = nil
			if x.Trace {
				x.Visits = b.traces[traced].visits
				traced++
			}
			if n++; n == len(sc.exits) && visit != nil {
				visit(sc.exits)
			}
			n %= len(sc.exits)
		}
		if n > 0 && visit != nil {
			visit(sc.exits[:n])
		}
		returnArena(sc)
		clear(b.traces[:traced])
		b.traces = b.traces[:copy(b.traces, b.traces[traced:])]
		b.log = b.log[:copy(b.log, b.log[b.left:])]
		if len(b.log) > 0 {
			shift := b.log[0].at
			b.base += int64(shift)
			for i := range b.log {
				b.log[i].at -= shift
			}
		}
		b.walked, b.left = b.walked-b.left, 0
	}
	b.drainedAt = b.now
	if len(b.notes) > 1 {
		// Every step to come, and every one a lookup in the pipe leaves on,
		// counts from the last note.
		b.notes[0], b.notes = b.notes[len(b.notes)-1], b.notes[:1]
	}
	b.publish()
}

// publish adds to the process-wide counters the lookups and faults booked
// and the steps taken since the last publish: once per Drain and per Run,
// never per lookup. What is published stays published through a Reset or
// the engine's replacement; what is not yet published then is dropped.
func (b *BatchSim) publish() {
	obsLookups.Add(b.st.Lookups - b.pubLookups)
	obsCycles.Add(b.now - b.published)
	obsFaults.Add(b.st.Faults - b.pubFaults)
	b.published, b.pubLookups, b.pubFaults = b.now, b.st.Lookups, b.st.Faults
}

// Run feeds the requests through the engine, one per interarrival cycles,
// and returns results in request order, as Sim.Run(reqs, interarrival).
func (b *BatchSim) Run(reqs []Request, interarrival int) ([]Result, Stats, error) {
	return b.RunAppend(make([]Result, 0, len(reqs)), reqs, interarrival)
}

// RunAppend is Run writing results into dst (grown as needed): with a
// pre-sized dst the untraced batched path allocates nothing per call.
func (b *BatchSim) RunAppend(dst []Result, reqs []Request, interarrival int) ([]Result, Stats, error) {
	if interarrival < 1 {
		return dst, Stats{}, fmt.Errorf("pipeline: interarrival %d, want >= 1", interarrival)
	}
	if b.next != nil || len(b.log) > 0 {
		return dst, Stats{}, errBusy
	}
	base := len(dst)
	dst = slices.Grow(dst, len(reqs))[:base+len(reqs)]
	b.run(len(reqs), source{reqs: reqs}, int64(interarrival), 1, dst[base:], nil)
	return dst, b.Stats(), nil
}

// source is where a batch run reads its requests: the caller's slice (Run),
// or a filler of each chunk (RunSharded) — not a closure, which would allocate.
type source struct {
	reqs []Request
	fill func(start int, reqs []Request)
}

// errBusy: Run's closed-form schedule has no place for streamed records.
var errBusy = fmt.Errorf("pipeline: Run on an engine with streamed lookups in flight or waiting for Drain, or an update in flight")

// Shards is the shard count RunSharded is meant to be given for n requests:
// one per sweep worker, but never more than there are batchFlights chunks,
// and one below two chunks, where the fan-out costs more than it saves.
func Shards(n int) int {
	workers := sweep.Workers()
	if n < 2*batchFlights || workers <= 1 {
		return 1
	}
	return min(workers, (n+batchFlights-1)/batchFlights)
}

// RunSharded is Run over n requests, one a cycle, split into contiguous
// shards on the sweep worker pool, staging no batch and keeping no results.
// A shard builds its requests a chunk of up to batchFlights at a time —
// fill(start, reqs) writes every field of requests start..start+len(reqs)-1
// into its own buffer — sweeps it, and hands the results to visit with its
// shard number and the chunk's first index, in a buffer its next chunk
// rewrites. One shard's chunks come in order from one goroutine; shards run
// concurrently, so fill reads only what no one writes and visit keeps
// per-shard state (shard < shards). Walks are independent and the cycle
// accounting closed-form, so chunks and Stats are byte-identical at any
// shard count.
func (b *BatchSim) RunSharded(n, shards int, fill func(start int, reqs []Request), visit func(shard, start int, res []Result)) (Stats, error) {
	if b.next != nil || len(b.log) > 0 {
		return Stats{}, errBusy
	}
	b.run(n, source{fill: fill}, 1, shards, nil, visit)
	return b.Stats(), nil
}

// run is the one chunk loop behind Run, RunAppend and RunSharded: it sweeps
// n requests from src, one per g cycles, in up to shards contiguous shards,
// then books the batch. One shard adds to the engine's stats in place, as a
// lone Run did; more run on the sweep pool, and their stage activity and
// faults merge in shard order. Each borrows an arena.
func (b *BatchSim) run(n int, src source, g int64, shards int, out []Result, visit func(shard, start int, res []Result)) {
	shards = max(1, min(shards, (n+batchFlights-1)/batchFlights))
	per := (n + shards - 1) / shards
	if shards == 1 {
		sc := borrowArena()
		b.runShard(sc, &b.st, 0, 0, n, src, g, out, visit)
		returnArena(sc)
	} else {
		// Borrowed up front: a run takes one arena a shard, however the
		// pool schedules them.
		scs := make([]*batchScratch, shards)
		for i := range scs {
			scs[i] = borrowArena()
		}
		deltas, _ := sweep.Run(shards, func(i int) (Stats, error) { // a shard never fails
			d := Stats{StageActive: make([]int64, b.nStages)}
			b.runShard(scs[i], &d, i, i*per, min(n, (i+1)*per), src, g, out, visit)
			return d, nil
		})
		for i, d := range deltas {
			for s, a := range d.StageActive {
				b.st.StageActive[s] += a
			}
			b.st.Faults += d.Faults
			returnArena(scs[i])
		}
	}
	b.finish(n, g)
}

// runShard is shard number shard of a batch run: it sweeps requests lo..hi-1
// of src a chunk of up to batchFlights at a time on arena sc (a filled chunk
// built in its buffer just before), adding stage activity and faults to st,
// and hands each chunk's results — in out, else the arena's — to visit.
func (b *BatchSim) runShard(sc *batchScratch, st *Stats, shard, lo, hi int, src source, g int64, out []Result, visit func(shard, start int, res []Result)) {
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

// finish applies Sim.Run's closed-form cycle accounting to a completed batch
// of n lookups: stage occupancy, the step count (one per arrival slot, plus
// the drain) and the obs counters.
func (b *BatchSim) finish(n int, g int64) {
	stages := int64(b.nStages)
	steps := stages // a zero-request run still drains, as the scalar loop does
	if n > 0 {
		steps = int64(n-1)*g + 1 + stages
	}
	b.now += steps
	b.st.Lookups += int64(n)
	for s := range b.st.StageOccupied {
		b.st.StageOccupied[s] += int64(n)
	}
	// Nothing streamed is in flight: no step to come needs an earlier stamp.
	b.notes, b.drainedAt = b.notes[:0], b.now
	b.publish()
}

// sweepChunk resolves one batch of requests: untraced flights are loaded
// into the arena and swept stage by stage; traced flights take the recording
// walk. Results carry NHI, fault verdicts and their closed-form cycle stamps.
func (b *BatchSim) sweepChunk(reqs []Request, out []Result, sc *batchScratch, st *Stats, enter0, g int64) {
	sc.ensure(len(reqs))
	n := int64(b.nStages)
	nLive := 0
	for j := range reqs {
		if reqs[j].Trace { // the recording walk
			c := chain{addr: uint32(reqs[j].Addr), vn: clampVN(reqs[j].VN), newUntil: -1}
			visits := make([]obs.StageVisit, 0, b.nStages)
			_, faulted, nhi := c.walk(b.cur, b.parity, b.nStages-1, &visits)
			last, enter := min(c.stage, b.nStages-1), enter0+int64(j)*g
			out[j] = Result{Request: reqs[j], NHI: nhi, Faulted: faulted, Visits: visits, EnterCycle: enter, ExitCycle: enter + n, LastStage: last}
			for s := 0; s <= last; s++ {
				st.StageActive[s]++
			}
			if faulted {
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
		out[j] = Result{Request: reqs[j], NHI: sc.nhi[j], Faulted: sc.flag[j]&flagFaulted != 0,
			EnterCycle: enter, ExitCycle: enter + n, LastStage: int(sc.last[j])}
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

// load makes the lookup of addr in vn flight n of the next sweep, with its
// verdict slots at pos. The verdict defaults to a walk through the whole
// pipe that resolves nothing; the sweep overwrites it where a walk ends.
func (sc *batchScratch) load(n, pos int, addr uint32, vn int32, lastStage int) {
	sc.nhi[pos], sc.flag[pos], sc.last[pos] = ip.NoRoute, 0, uint8(lastStage)
	sc.fl[n] = bFlight{addr: addr, pos: int32(pos), vn: vn}
}

// sweep is the walk kernel of both modes: it takes the nLive flights loaded
// at the front of the arena from stage 0 to their ends in flat, a stage at a
// time, leaving their verdicts in their positions' slots. It returns the
// faults and adds, where active is given, one count per stage per flight live
// in it — what the scalar engine's per-cycle process calls count.
//
// Where the image has a jump table the flights first part into two lanes:
// the jumpers, whose top address bits the table resolves, move to the front
// with the entry index they enter stage jumpStage at, credited as live in
// every stage they skip (the table holds no walk that ends before it). The
// rest are walked from stage 0 behind them, so at jumpStage the lanes join.
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

// level is the sweep's inner loop, a function of its own so that its few live
// values stay in registers: it takes every flight of fl one step through the
// stage's words, swap-removing those that end here (results key on pos), and
// returns how many are still live and how many faulted. One test of the meta
// word sends a flight to a leaf or a fault; the surviving path is loads of
// the index, meta word and child and a 4-byte store. Unchecked, bad is zero.
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

// Lookups resolves a batch of probes with one batched engine.
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
