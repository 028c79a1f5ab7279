package pipeline

import (
	"fmt"

	"vrpower/internal/ip"
	"vrpower/internal/obs"
)

// Run instrumentation (surfaced by the cmd tools' -stats flag). Counters
// are bumped in bulk per Run call, not per cycle, so the simulator hot loop
// stays untouched.
var (
	obsLookups = obs.NewCounter("pipeline.lookups_resolved")
	obsCycles  = obs.NewCounter("pipeline.cycles_simulated")
	obsFaults  = obs.NewCounter("pipeline.faults_detected")
)

// Request is one lookup entering the pipeline: the destination address plus
// the virtual network identifier carried in the packet header (VNID,
// Section IV-C). Single-network engines use VN 0.
type Request struct {
	Addr ip.Addr
	// Trace marks a sampled lookup: its stage-by-stage traversal is
	// recorded into Result.Visits. Untraced lookups (the default) pay only
	// a nil check per memory access — the hot path stays allocation-free
	// beyond the flight itself. (Trace packs into Addr's alignment slack,
	// so carrying it keeps Request at 16 bytes.)
	Trace bool
	VN    int
}

// Result is a completed lookup.
type Result struct {
	Request
	NHI ip.NextHop
	// Faulted marks a lookup terminated by a detected memory fault (stale
	// parity or an out-of-range child pointer): the NHI is NoRoute and the
	// packet must be dropped, not forwarded on corrupt data.
	Faulted bool
	// EnterCycle and ExitCycle stamp pipeline entry and exit; their
	// difference is the pipeline latency in cycles.
	EnterCycle int64
	ExitCycle  int64
	// LastStage is the deepest stage that performed a memory access for
	// this lookup: the stage it resolved or faulted in, or the final stage
	// for a lookup that walked the whole pipe. Stages 0..LastStage each
	// contributed one StageActive cycle, which is what the energy meter
	// charges — both lookup cores report it identically.
	LastStage int
	// Visits is the traced traversal (nil unless Request.Trace was set):
	// every stage-memory access in order, annotated with the serving bank
	// and the fault that terminated the lookup, if any.
	Visits []obs.StageVisit
}

// Stats aggregates a simulation run.
type Stats struct {
	// Cycles is the total simulated cycle count.
	Cycles int64
	// Lookups is the number of completed requests.
	Lookups int64
	// Bubbles is the number of write bubbles injected — input slots spent on
	// hitless updates instead of lookups. Bubbles/Cycles is the measured
	// throughput loss the analytic ThroughputRetained predicts.
	Bubbles int64
	// StageActive counts, per stage, cycles in which the stage performed a
	// memory access. With clock gating, idle cycles burn no dynamic power;
	// shallow lookups leave deep stages unaccessed.
	StageActive []int64
	// StageOccupied counts, per stage, cycles in which the stage register
	// held a packet (resolved or not). Occupied/Cycles is the duty-cycle
	// utilization µ of the paper's Assumption 1.
	StageOccupied []int64
	// Faults counts lookups terminated by a detected memory fault: a parity
	// mismatch (with checking enabled) or an out-of-range child pointer.
	Faults int64
}

// Utilization returns the mean fraction of memory-access-active cycles
// across stages.
func (s Stats) Utilization() float64 {
	return meanFraction(s.StageActive, s.Cycles)
}

// Occupancy returns the mean fraction of cycles stages held a packet — the
// duty-cycle µ of Assumption 1 (1 under back-to-back traffic).
func (s Stats) Occupancy() float64 {
	return meanFraction(s.StageOccupied, s.Cycles)
}

func meanFraction(counts []int64, cycles int64) float64 {
	if cycles == 0 || len(counts) == 0 {
		return 0
	}
	var sum int64
	for _, a := range counts {
		sum += a
	}
	return float64(sum) / float64(cycles) / float64(len(counts))
}

// flight is a packet in a stage register.
type flight struct {
	req      Request
	idx      uint32 // entry index in the current stage
	resolved bool
	faulted  bool
	// bubble marks a write bubble: it occupies an input slot and performs
	// one shadow-bank memory write per stage instead of a lookup. The final
	// (commit) bubble flips each stage to the new bank as it passes.
	bubble bool
	commit bool
	nhi    ip.NextHop
	enter  int64
	// last is the deepest stage that processed the flight (Result.LastStage).
	last int32
	// trace holds a traced lookup's visit log; nil for untraced flights,
	// which is the only tracing cost on the hot path. Indirecting through a
	// pointer (instead of an inline slice header) keeps the untraced flight
	// in the 48-byte allocation class the pre-tracing simulator had.
	trace *traceLog
}

// traceLog is the traversal record of one traced flight.
type traceLog struct {
	visits []obs.StageVisit
}

// newFlight builds the in-flight record for a request entering stage 0,
// reusing a recycled flight when one is free and pre-sizing the visit log
// for traced lookups. The free list keeps the steady-state flight count at
// the pipeline depth instead of one heap object per lookup — with tracing
// in the codebase a flight carries a pointer field, so un-pooled flights
// would be GC-scannable garbage at line rate.
func (s *Sim) newFlight(req Request, enter int64) *flight {
	f := s.alloc()
	f.req = req
	f.enter = enter
	if req.Trace {
		f.trace = &traceLog{visits: make([]obs.StageVisit, 0, s.img.Stages())}
	}
	return f
}

// alloc returns a zeroed flight, from the free list when one is available.
func (s *Sim) alloc() *flight {
	if n := len(s.free); n > 0 {
		f := s.free[n-1]
		s.free = s.free[:n-1]
		*f = flight{}
		return f
	}
	return &flight{}
}

// recycle returns an exited flight to the free list. The flight's traceLog
// is never reused — a traced Result aliases its visits — and is detached by
// the wholesale reset in newFlight.
func (s *Sim) recycle(f *flight) {
	if f != nil {
		s.free = append(s.free, f)
	}
}

// visitLog returns the recorded traversal (nil for untraced flights).
func (f *flight) visitLog() []obs.StageVisit {
	if f.trace == nil {
		return nil
	}
	return f.trace.visits
}

// Sim is the cycle-accurate pipeline simulator. One packet can occupy each
// stage register, so a full pipeline completes one lookup per cycle — the
// throughput model behind the paper's Gbps numbers (Section VI-B). It is the
// oracle of BatchSim, and reads an image through its Entry views only: level
// from the view, fold from the stage map, parity recomputed on every checked
// access — none of the derived words the engine trusts, so a derived word
// that was not kept true shows up as a difference between the two.
type Sim struct {
	img    *Image
	regs   []*flight
	now    int64
	st     Stats
	parity bool
	// Hitless update state (companion work [6]): next is the recompiled
	// image armed by BeginUpdate, applied through write bubbles. Each stage
	// memory is double-buffered — the shadow bank holds the new content, and
	// bankNew[s] records that the commit bubble has flipped stage s. A
	// lookup behind the commit bubble reaches every stage after its flip and
	// one ahead of it before any flip, so every in-flight lookup reads a
	// consistent image, old or new, never a mix.
	next        *Image
	bankNew     []bool
	bubblesLeft int
	// free is the flight free list; exited flights are recycled so a run
	// allocates O(pipeline depth) flights, not one per lookup.
	free []*flight
}

// EnableParityCheck turns on per-access parity verification: every entry a
// packet touches is checked against its compile-time parity bit, the way a
// BRAM parity column is checked on read. A mismatch terminates the lookup
// as Faulted (NHI NoRoute) instead of silently forwarding on corrupt data.
func (s *Sim) EnableParityCheck() { s.parity = true }

// NewSim builds a simulator over a compiled image.
func NewSim(img *Image) *Sim {
	return &Sim{
		img:  img,
		regs: make([]*flight, img.Stages()),
		st: Stats{
			StageActive:   make([]int64, img.Stages()),
			StageOccupied: make([]int64, img.Stages()),
		},
	}
}

// step advances one clock cycle; in is the packet entering stage 0 (nil for
// an idle input cycle). It returns the packet leaving the last stage, if any.
func (s *Sim) step(in *flight) *flight {
	n := len(s.regs)
	out := s.regs[n-1]
	// Shift the pipeline from the back so each packet advances one stage.
	for i := n - 1; i > 0; i-- {
		s.regs[i] = s.regs[i-1]
	}
	s.regs[0] = in
	// Each stage processes the packet now in its register.
	for i, f := range s.regs {
		if f == nil {
			continue
		}
		s.st.StageOccupied[i]++
		if f.bubble {
			// The bubble's memory write: one access in each stage it
			// traverses. The commit bubble additionally flips the stage to
			// the shadow bank; lookups behind it then read the new image.
			s.st.StageActive[i]++
			if f.commit && s.bankNew != nil {
				s.bankNew[i] = true
			}
			continue
		}
		if f.resolved {
			continue
		}
		s.st.StageActive[i]++
		s.process(i, f)
	}
	s.now++
	s.st.Cycles++
	if out != nil {
		if out.bubble {
			if out.commit {
				// The commit bubble left the last stage: every bank has
				// flipped, the update is complete end-to-end.
				s.img = s.next
				s.next = nil
				for i := range s.bankNew {
					s.bankNew[i] = false
				}
			}
			s.recycle(out)
			out = nil
		} else {
			s.st.Lookups++
		}
	}
	return out
}

// bank returns the image stage reads serve from: the shadow bank once the
// commit bubble has flipped stage, the old image before.
func (s *Sim) bank(stage int) *Image {
	if s.next != nil && s.bankNew[stage] {
		return s.next
	}
	return s.img
}

// process performs stage i's memory accesses for packet f, following folded
// levels within the stage in the same cycle; a traced flight logs each access.
func (s *Sim) process(stage int, f *flight) {
	f.last = int32(stage)
	img := s.bank(stage)
	st := &img.stages[stage]
	var e Entry
	for {
		if f.trace != nil {
			f.trace.visits = append(f.trace.visits, obs.StageVisit{Stage: stage, Entry: f.idx, NewBank: img == s.next})
		}
		if int(f.idx) >= len(st.meta) {
			s.fault(f)
			return
		}
		st.view(&e, img.nhi, f.idx)
		if s.parity && e.Parity != e.DataParity() {
			s.fault(f)
			return
		}
		if e.Leaf {
			f.resolve(&e)
			return
		}
		f.idx = e.Child[f.req.Addr.Bit(e.Level)]
		if img.Map.Stage(e.Level+1) != stage {
			return
		}
	}
}

// resolve ends f's lookup at leaf e.
func (f *flight) resolve(e *Entry) {
	f.resolved = true
	if vn := f.req.VN; vn >= 0 && vn < len(e.NHI) {
		f.nhi = e.NHI[vn]
	} else {
		f.nhi = ip.NoRoute
	}
}

// fault terminates f's lookup on a detected memory fault, marking a traced
// lookup's last recorded access as the one that did.
func (s *Sim) fault(f *flight) {
	if f.trace != nil && len(f.trace.visits) > 0 {
		f.trace.visits[len(f.trace.visits)-1].Fault = true
	}
	f.resolved = true
	f.faulted = true
	f.nhi = ip.NoRoute
	s.st.Faults++
}

// Run feeds the requests into the pipeline, one per interarrival cycles
// (interarrival 1 = back-to-back traffic at full line rate), then drains.
// Results are returned in completion order, which equals request order.
func (s *Sim) Run(reqs []Request, interarrival int) ([]Result, Stats, error) {
	if interarrival < 1 {
		return nil, Stats{}, fmt.Errorf("pipeline: interarrival %d, want >= 1", interarrival)
	}
	startCycles := s.st.Cycles
	startFaults := s.st.Faults
	results := make([]Result, 0, len(reqs))
	collect := func(f *flight) {
		if f != nil {
			results = append(results, s.result(f))
		}
	}
	for i, r := range reqs {
		collect(s.step(s.newFlight(r, s.now)))
		for g := 1; g < interarrival && i < len(reqs)-1; g++ {
			collect(s.step(nil))
		}
	}
	// Drain.
	for i := 0; i < s.img.Stages(); i++ {
		collect(s.step(nil))
	}
	obsLookups.Add(int64(len(results)))
	obsCycles.Add(s.st.Cycles - startCycles)
	obsFaults.Add(s.st.Faults - startFaults)
	return results, s.st, nil
}

// Stats returns the accumulated counters.
func (s *Sim) Stats() Stats { return s.st }

// Reset returns the simulator to its post-NewSim state over the same
// serving image — zero cycle clock, zeroed stats, empty stage registers —
// while preserving the flight free list and the stat slices, so repeated
// runs (and benchmark iterations) measure lookups rather than construction.
// A pending hitless update is discarded like AbortUpdate; the parity-check
// setting survives.
func (s *Sim) Reset() {
	for i, f := range s.regs {
		if f != nil {
			s.recycle(f)
			s.regs[i] = nil
		}
	}
	s.now = 0
	s.st.Cycles, s.st.Lookups, s.st.Bubbles, s.st.Faults = 0, 0, 0, 0
	for i := range s.st.StageActive {
		s.st.StageActive[i] = 0
	}
	for i := range s.st.StageOccupied {
		s.st.StageOccupied[i] = 0
	}
	s.next = nil
	s.bubblesLeft = 0
	for i := range s.bankNew {
		s.bankNew[i] = false
	}
}

// Lookup resolves a single request against the image and returns its NHI —
// a convenience for correctness probes: the engine's chain walk (parity
// unchecked, faults resolving to NoRoute) with no engine around it; bulk
// probing should use Lookups, which batches the vectors through one engine.
func Lookup(img *Image, req Request) ip.NextHop {
	f := slot{addr: uint32(req.Addr), vn: clampVN(req.VN), newUntil: -1}
	f.walk(img, false, img.Stages()-1, nil)
	return f.nhi
}

// Inject advances the pipeline one cycle, feeding req into stage 0 (nil for
// an idle cycle), and reports the lookup that left the last stage, if any.
// It is the building block for open-loop load experiments where arrivals
// queue outside the pipeline.
func (s *Sim) Inject(req *Request) (Result, bool) {
	var in *flight
	if req != nil {
		in = s.newFlight(*req, s.now)
	}
	if out := s.step(in); out != nil {
		return s.result(out), true
	}
	return Result{}, false
}

// result is the Result of a lookup that left the last stage on the step just
// taken; its flight goes back to the free list.
func (s *Sim) result(out *flight) Result {
	res := Result{
		Request: out.req, NHI: out.nhi, Faulted: out.faulted, LastStage: int(out.last),
		EnterCycle: out.enter, ExitCycle: s.now - 1, Visits: out.visitLog(),
	}
	s.recycle(out)
	return res
}

// BeginUpdate arms a hitless image update: next replaces the serving image
// through write bubbles instead of a reload, so lookups keep flowing with
// no blackhole window. bubbles is the write budget (update.Bubbles over the
// image diff); it is clamped to >= 1 because the final bubble doubles as
// the per-stage bank-flip commit. The caller then interleaves InjectBubble
// with regular traffic; once the commit bubble drains, the sim serves next
// and Updating reports false. next must have the same stage geometry as the
// serving image (compile both under one pinned stage map).
func (s *Sim) BeginUpdate(next *Image, bubbles int) error {
	if next == nil {
		return fmt.Errorf("pipeline: BeginUpdate with nil image")
	}
	if s.next != nil {
		return fmt.Errorf("pipeline: update already in flight (%d bubbles pending)", s.bubblesLeft)
	}
	if next.Stages() != s.img.Stages() {
		return fmt.Errorf("pipeline: update stage counts differ (%d vs %d)", next.Stages(), s.img.Stages())
	}
	if bubbles < 1 {
		bubbles = 1
	}
	if s.bankNew == nil {
		s.bankNew = make([]bool, s.img.Stages())
	}
	s.next = next
	s.bubblesLeft = bubbles
	return nil
}

// Updating reports whether an armed update has not yet fully committed
// (bubbles pending, or the commit bubble still traversing the pipeline).
func (s *Sim) Updating() bool { return s.next != nil }

// PendingBubbles returns the write bubbles not yet injected.
func (s *Sim) PendingBubbles() int { return s.bubblesLeft }

// AbortUpdate disarms a pending hitless update: the shadow writes are
// discarded and the serving image keeps serving — the data-plane half of a
// journaled rollback. It is only legal while the commit bubble has NOT been
// injected (PendingBubbles > 0): once the commit bubble is in the pipe,
// stages flip as it passes and the update can no longer be unwound.
func (s *Sim) AbortUpdate() error {
	if s.next == nil {
		return fmt.Errorf("pipeline: no update to abort")
	}
	if s.bubblesLeft == 0 {
		return fmt.Errorf("pipeline: commit bubble already in flight, update cannot be aborted")
	}
	s.next = nil
	s.bubblesLeft = 0
	for i := range s.bankNew {
		s.bankNew[i] = false
	}
	return nil
}

// InjectBubble advances one cycle feeding the next write bubble into stage
// 0. The bubble occupies the input slot — that lost lookup slot is the
// throughput cost ThroughputRetained prices — and performs the update's
// shadow-bank writes as it traverses. Like Inject, it reports the lookup
// that left the last stage this cycle, if any (bubbles themselves never
// surface as results). It fails when no update is armed or the write budget
// is already spent.
func (s *Sim) InjectBubble() (Result, bool, error) {
	if s.next == nil || s.bubblesLeft == 0 {
		return Result{}, false, fmt.Errorf("pipeline: no write bubble pending")
	}
	s.bubblesLeft--
	f := s.alloc()
	f.bubble = true
	f.commit = s.bubblesLeft == 0
	f.enter = s.now
	s.st.Bubbles++
	if out := s.step(f); out != nil {
		return s.result(out), true, nil
	}
	return Result{}, false, nil
}
