package pipeline

import (
	"fmt"

	"vrpower/internal/ip"
	"vrpower/internal/obs"
)

// Run instrumentation (the cmd tools' -stats flag), bumped in bulk per Run
// or Drain, never per cycle.
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
	// recorded into Result.Visits. (Trace packs into Addr's alignment
	// slack, so carrying it keeps Request at 16 bytes.)
	Trace bool
	VN    int
}

// Result is a completed lookup.
type Result struct {
	Request
	NHI ip.NextHop
	// Faulted marks a lookup ended by a detected memory fault (stale parity
	// or an out-of-range pointer): NHI is NoRoute, the packet is dropped.
	Faulted bool
	// EnterCycle and ExitCycle stamp pipeline entry and exit.
	EnterCycle int64
	ExitCycle  int64
	// LastStage is the deepest stage that read memory for the lookup: where
	// it resolved or faulted, or the last. Stages 0..LastStage were each
	// active one cycle, which is what the energy meter charges.
	LastStage int
	// Visits is the traced traversal (nil unless Request.Trace was set),
	// each access annotated with its bank and any fault that ended it.
	Visits []obs.StageVisit
}

// Stats aggregates a simulation run.
type Stats struct {
	// Cycles is the total simulated cycle count.
	Cycles int64
	// Lookups is the number of completed requests.
	Lookups int64
	// Bubbles is the write bubbles injected; Bubbles/Cycles is the throughput
	// loss the analytic ThroughputRetained predicts.
	Bubbles int64
	// StageActive counts, per stage, cycles the stage read memory: with clock
	// gating, the only cycles that burn dynamic power.
	StageActive []int64
	// StageOccupied counts, per stage, cycles its register held a packet:
	// Occupied/Cycles is the duty-cycle utilization µ of Assumption 1.
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
	busy     bool   // the register holds a packet
	resolved bool
	faulted  bool
	bubble   bool // a write bubble: a shadow-bank write per stage, no lookup
	commit   bool // the final bubble: it flips each stage's bank as it passes
	nhi      ip.NextHop
	enter    int64
	last     int32            // the deepest stage that processed the flight (Result.LastStage)
	visits   []obs.StageVisit // a traced lookup's log
}

// Sim is the cycle-accurate pipeline simulator: one packet a stage register,
// one lookup a cycle through a full pipe (Section VI-B). It is BatchSim's
// oracle and reads an image through its Entry views only — level from the
// view, fold from the stage map, parity recomputed on every checked access —
// so a derived word the engine trusts that was not kept true shows up.
type Sim struct {
	banks
	regs   []*flight // the stage registers, a ring: stage i is regs[head+i], mod len
	head   int
	spare  *flight // what the next step feeds in; the flight that left takes its place
	now    int64
	st     Stats
	parity bool
	// bankNew[s] records that the commit bubble (companion work [6]) has
	// flipped stage s: a lookup behind it reaches every stage after its flip,
	// one ahead of it before, so each reads one image, old or new.
	bankNew []bool
}

// EnableParityCheck turns on per-access parity verification: every entry a
// packet touches is checked against its compile-time parity bit, the way a
// BRAM parity column is checked on read. A mismatch terminates the lookup
// as Faulted (NHI NoRoute) instead of silently forwarding on corrupt data.
func (s *Sim) EnableParityCheck() { s.parity = true }

// NewSim builds a simulator over a compiled image.
func NewSim(img *Image) *Sim {
	n, fl := img.Stages(), make([]flight, img.Stages()+1)
	regs := make([]*flight, n)
	for i := range regs {
		regs[i] = &fl[i]
	}
	return &Sim{
		banks:   banks{cur: img},
		regs:    regs,
		spare:   &fl[n],
		bankNew: make([]bool, n),
		st:      Stats{StageActive: make([]int64, n), StageOccupied: make([]int64, n)},
	}
}

// step advances one clock cycle, feeding spare into stage 0 (not busy for an
// idle input cycle). It returns the packet leaving the last stage, which is
// the spare until the next step.
func (s *Sim) step() *flight {
	n := len(s.regs)
	if s.head--; s.head < 0 {
		s.head = n - 1
	}
	out := s.regs[s.head] // the register behind stage 0 was the last stage's
	s.regs[s.head], s.spare = s.spare, out
	// Each stage processes the packet now in its register.
	for i, j := 0, s.head; i < n; i, j = i+1, j+1 {
		if j == n {
			j = 0
		}
		f := s.regs[j]
		if !f.busy {
			continue
		}
		s.st.StageOccupied[i]++
		if f.bubble {
			// The bubble's memory write: one access in each stage it
			// traverses. The commit bubble additionally flips the stage to
			// the shadow bank; lookups behind it then read the new image.
			s.st.StageActive[i]++
			if f.commit {
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
	switch {
	case out.bubble && out.commit:
		// The commit bubble left the last stage: every bank has flipped,
		// the update is complete end-to-end.
		s.cur, s.next = s.next, nil
		clear(s.bankNew)
		fallthrough
	case out.bubble:
		out.busy = false
	case out.busy:
		s.st.Lookups++
	}
	return out
}

// bank returns the image stage reads serve from: the shadow bank once the
// commit bubble has flipped stage, the old image before.
func (s *Sim) bank(stage int) *Image {
	if s.next != nil && s.bankNew[stage] {
		return s.next
	}
	return s.cur
}

// process performs stage i's memory accesses for packet f, following folded
// levels within the stage in the same cycle; a traced flight logs each access.
func (s *Sim) process(stage int, f *flight) {
	f.last = int32(stage)
	img := s.bank(stage)
	st := &img.stages[stage]
	var e Entry
	for {
		if f.req.Trace {
			f.visits = append(f.visits, obs.StageVisit{Stage: stage, Entry: f.idx, NewBank: img == s.next})
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
	if len(f.visits) > 0 {
		f.visits[len(f.visits)-1].Fault = true
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
		if f.busy {
			results = append(results, s.result(f))
		}
	}
	for i := range reqs {
		s.feed(&reqs[i])
		collect(s.step())
		for g := 1; g < interarrival && i < len(reqs)-1; g++ {
			s.feed(nil)
			collect(s.step())
		}
	}
	// Drain.
	for i := 0; i < s.cur.Stages(); i++ {
		s.feed(nil)
		collect(s.step())
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
// while keeping the registers and the stat slices, so repeated runs (and
// benchmark iterations) measure lookups rather than construction. A pending
// hitless update is discarded like AbortUpdate; the parity-check setting
// survives.
func (s *Sim) Reset() {
	for _, f := range s.regs {
		*f = flight{}
	}
	s.now = 0
	s.st.Cycles, s.st.Lookups, s.st.Bubbles, s.st.Faults = 0, 0, 0, 0
	clear(s.st.StageActive)
	clear(s.st.StageOccupied)
	s.next, s.bubblesLeft = nil, 0
	clear(s.bankNew)
}

// Lookup resolves a single request against the image and returns its NHI:
// the chain walk, parity unchecked, with no engine around it (Lookups
// batches many).
func Lookup(img *Image, req Request) ip.NextHop {
	c := chain{addr: uint32(req.Addr), vn: clampVN(req.VN), newUntil: -1}
	_, _, nhi := c.walk(img, false, img.Stages()-1, nil)
	return nhi
}

// Inject advances the pipeline one cycle, feeding req into stage 0 (nil for
// an idle cycle), and reports the lookup that left the last stage, if any.
// It is the building block for open-loop load experiments where arrivals
// queue outside the pipeline.
func (s *Sim) Inject(req *Request) (Result, bool) {
	s.feed(req)
	if out := s.step(); out.busy {
		return s.result(out), true
	}
	return Result{}, false
}

// feed makes req (nil: none) what the next step feeds into stage 0, with
// room for its visits if it is traced.
func (s *Sim) feed(req *Request) {
	f := s.spare
	*f = flight{}
	if req != nil {
		f.req, f.enter, f.busy = *req, s.now, true
		if req.Trace {
			f.visits = make([]obs.StageVisit, 0, len(s.regs))
		}
	}
}

// result is the Result of a lookup that left the last stage on the step just
// taken.
func (s *Sim) result(out *flight) Result {
	return Result{
		Request: out.req, NHI: out.nhi, Faulted: out.faulted, LastStage: int(out.last),
		EnterCycle: out.enter, ExitCycle: s.now - 1, Visits: out.visits,
	}
}

// banks is both engines' serving image and hitless update: the image armed
// to replace it (the shadow bank of each double-buffered stage memory) and
// the write bubbles not yet injected.
type banks struct {
	cur, next   *Image
	bubblesLeft int
}

// BeginUpdate arms a hitless image update: next (of the serving image's stage
// geometry) replaces it through bubbles write bubbles — at least one, the last
// the bank-flip commit — while lookups keep flowing; once the commit bubble
// drains, the engine serves next and Updating reports false.
func (k *banks) BeginUpdate(next *Image, bubbles int) error {
	switch {
	case next == nil:
		return fmt.Errorf("pipeline: BeginUpdate with nil image")
	case k.next != nil:
		return fmt.Errorf("pipeline: update already in flight (%d bubbles pending)", k.bubblesLeft)
	case next.Stages() != k.cur.Stages():
		return fmt.Errorf("pipeline: update stage counts differ (%d vs %d)", next.Stages(), k.cur.Stages())
	}
	k.next, k.bubblesLeft = next, max(bubbles, 1)
	return nil
}

// Updating reports whether an armed update has not yet fully committed
// (bubbles pending, or the commit bubble still traversing the pipeline).
func (k *banks) Updating() bool { return k.next != nil }

// PendingBubbles returns the write bubbles not yet injected.
func (k *banks) PendingBubbles() int { return k.bubblesLeft }

// AbortUpdate disarms a pending hitless update — the data-plane half of a
// journaled rollback — legal only until the commit bubble is injected: no
// lookup reads the shadow bank before then, and stages flip as it passes.
func (k *banks) AbortUpdate() error {
	if k.next == nil {
		return fmt.Errorf("pipeline: no update to abort")
	}
	if k.bubblesLeft == 0 {
		return fmt.Errorf("pipeline: commit bubble already in flight, update cannot be aborted")
	}
	k.next, k.bubblesLeft = nil, 0
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
	s.st.Bubbles++
	*s.spare = flight{busy: true, bubble: true, commit: s.bubblesLeft == 0, enter: s.now}
	if out := s.step(); out.busy {
		return s.result(out), true, nil
	}
	return Result{}, false, nil
}
