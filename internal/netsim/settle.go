package netsim

// This file is a lookup's life outside the engine in the slice runner.
// Nothing the runner schedules — arrivals, queue pops, write bubbles,
// governor pacing — depends on what a lookup resolves to, so a serve loop's
// cycle only schedules: it pops a queued packet, remembers it in the engine's
// in-flight list and pushes it into the engine, which hands nothing back. The
// exits are settled engine by engine, a batch at a time — oracle check,
// per-network counters, delay, trace, energy — after at most
// pipeline.DrainWindow cycles and at every slice end, before any stressor,
// Stats read, Outstanding or flush sees the engine: settled, an engine's
// in-flight list holds exactly the lookups still in its pipe, as it did
// after every cycle when exits were handled one by one.

import (
	"sort"

	"vrpower/internal/energy"
	"vrpower/internal/ip"
	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
	"vrpower/internal/scenario"
)

// queued is one packet waiting in a network's ingress queue. Whether its
// lookup is traced is a function of (vn, arrival), asked at injection.
type queued struct {
	arrival int64
	addr    ip.Addr
	vn      int32
}

// inflight is what a runner keeps of a lookup it has pushed into an engine
// until the exit is settled, oldest first per engine.
type inflight struct {
	arrival int64
	// ref is the reference table of the injection epoch, which the exit is
	// checked against.
	ref *ip.Table
	vn  int32
}

// newFlights returns an empty in-flight list for an engine over img, with
// room for all it can ever hold: a pipe-full plus a drain window.
func newFlights(img *pipeline.Image) []inflight {
	return make([]inflight, 0, img.Stages()+pipeline.DrainWindow)
}

// heldTrace is a flight trace built while settling, waiting to be put in the
// order the per-cycle loops put it.
type heldTrace struct {
	cycle int64
	// order places the trace within its cycle: negative for an ingress drop
	// (arrivals come first), else the engine's place in the serve order.
	order int
	ft    *obs.FlightTrace
}

// settler settles exits for one run and carries the tallies its report is
// built from.
type settler struct {
	tel *Telemetry
	// seqStride turns an arrival cycle into the trace seq arrival*seqStride+vn:
	// K, as every network can offer a packet each cycle.
	seqStride int64
	// delivered and dropped are the report's per-network counts; a parity-
	// refused lookup is a drop.
	delivered, dropped []int64
	dropVN             []*obs.Counter

	faulted, mismatches, noRoute int64
	// total is the delivered lookups and delaySum their arrival-to-exit cycles.
	total, delaySum int64

	exits  []pipeline.Exit
	counts []int64 // the exits being settled, by vn*stages + last stage
	held   []heldTrace
}

// seq is the trace seq of the packet of network vn that arrived at cycle
// arrival: the sampling key, unique within a run.
func (t *settler) seq(arrival int64, vn int32) int64 {
	return arrival*t.seqStride + int64(vn)
}

// traced reports whether q's lookup is one of the sampled ones.
func (t *settler) traced(q queued) bool {
	return t.tel.Tracing() && t.tel.Sampler.Sample(int(q.vn), t.seq(q.arrival, q.vn))
}

// settle takes the exits sim has for the lookups at the front of fl and does
// for each what the cycle it left on used to: the check against the oracle of
// its injection epoch, the counters, the delay up to the runner's cycle stamp
// of that step, the trace. The meter is charged once per (network, last
// stage) count — a lookup's energy is a function of those alone, in integer
// femtojoules, so the sum is the same. e is the engine's index in meter's
// model, telEngine its name in traces, order its place in the serve order.
// It returns how many of the exits were parity-refused.
func (t *settler) settle(sim *pipeline.BatchSim, fl *[]inflight, meter *energy.Meter, e, telEngine, order int) (faults int64) {
	if t.exits == nil {
		t.exits = make([]pipeline.Exit, 0, pipeline.DrainWindow)
	}
	t.exits = sim.Drain(t.exits[:0])
	if len(t.exits) == 0 {
		return 0
	}
	settled := (*fl)[:len(t.exits)]
	stages := meter.Model().Engines[e].Stages()
	if need := len(t.delivered) * stages; len(t.counts) < need {
		t.counts = make([]int64, need)
	}
	lo, hi := int32(len(t.delivered)), int32(-1)
	for i := range t.exits {
		x, m := &t.exits[i], &settled[i]
		t.counts[int(m.vn)*stages+x.LastStage]++
		lo, hi = min(lo, m.vn), max(hi, m.vn)
		outcome := "forward"
		switch {
		case x.Faulted:
			// Corruption read mid-lookup: drop, never misforward.
			faults++
			t.dropped[m.vn]++
			t.dropVN[m.vn].Inc()
			outcome = "drop-fault"
		case x.NHI != m.ref.Lookup(x.Addr):
			t.mismatches++
			outcome = "mismatch"
		default:
			t.delivered[m.vn]++
			t.total++
			t.delaySum += x.Stamp - m.arrival
			if x.NHI == ip.NoRoute {
				t.noRoute++
				outcome = "noroute"
			}
		}
		if x.Trace {
			t.held = append(t.held, heldTrace{x.Stamp, order,
				scenario.LookupTrace(t.seq(m.arrival, m.vn), int(m.vn), telEngine, 0, x.Result(), x.EnterCycle-m.arrival, outcome)})
		}
	}
	t.faulted += faults
	*fl = (*fl)[:copy(*fl, (*fl)[len(settled):])]
	for vn := int(lo); vn <= int(hi); vn++ {
		row := t.counts[vn*stages : (vn+1)*stages]
		for last, n := range row {
			meter.LookupN(e, vn, last, n)
			row[last] = 0
		}
	}
	return faults
}

// putTraces puts the traces held since the last call, by cycle and within a
// cycle by serve order — the order the per-cycle loops put them in, which
// decides what a ring past its capacity retains.
func (t *settler) putTraces() {
	if len(t.held) == 0 {
		return
	}
	sort.SliceStable(t.held, func(i, j int) bool {
		a, b := &t.held[i], &t.held[j]
		return a.cycle < b.cycle || a.cycle == b.cycle && a.order < b.order
	})
	for i := range t.held {
		t.tel.Traces.Put(t.held[i].ft)
		t.held[i].ft = nil
	}
	t.held = t.held[:0]
}

// meanDelay is the average arrival-to-exit latency over delivered lookups.
func (t *settler) meanDelay() float64 {
	if t.total == 0 {
		return 0
	}
	return float64(t.delaySum) / float64(t.total)
}
