package netsim

// This file is a lookup's life outside the engine in the slice runner.
// Nothing the runner schedules — arrivals, queue pops, write bubbles,
// governor pacing — depends on what a lookup resolves to, so a serve loop's
// cycle only schedules: it pops a queued packet, remembers it in the engine's
// in-flight list and pushes it into the engine, which records it; an idle
// cycle only ticks the engine's clock. The slice is the batch: at every slice
// end (and every pipeline.SettleCycles cycles of a longer slice) each engine
// walks what it recorded up to its clock, and its exits are settled — oracle
// check, counters, delay, trace, energy — before any stressor, Stats read,
// Outstanding or flush sees it. Settled, an engine's in-flight list holds
// exactly the lookups still in its pipe.

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
// until the exit is settled, oldest first per engine. Its network is the
// one the engine serves at the exit's VN.
type inflight struct {
	arrival int64
	ref     *ip.Table // the oracle of the injection epoch, the exit's check
}

// newFlights returns an empty in-flight list for an engine over img, with
// room for all it can hold: a pipe-full plus SettleCycles.
func newFlights(img *pipeline.Image) []inflight {
	return make([]inflight, 0, img.Stages()+pipeline.SettleCycles)
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

// settle settles e's engine and does for each exit, against the lookup at
// the front of e.flights, what the cycle it left on used to: the check
// against its injection epoch's oracle, the counters, the delay to the stamp
// of that step, the trace. The meter is charged once per (network, last
// stage) count, in integer femtojoules, so the sum is the same. e.idx is the
// engine in meter's model, telEngine its name in traces, order its place in
// the serve order. It returns how many exits were parity-refused.
func (t *settler) settle(e *scenEng, meter *energy.Meter, telEngine, order int) (faults int64) {
	stages := meter.Model().Engines[e.idx].Stages()
	if need := len(t.delivered) * stages; len(t.counts) < need {
		t.counts = make([]int64, need)
	}
	settled := 0
	e.sim.Drain(func(exits []pipeline.Exit) {
		for i := range exits {
			x, m := &exits[i], &e.flights[settled+i]
			e.pending[x.VN]--
			vn := int32(e.served[x.VN])
			t.counts[int(vn)*stages+x.LastStage]++
			outcome := "forward"
			switch {
			case x.Faulted:
				// Corruption read mid-lookup: drop, never misforward.
				faults++
				t.dropped[vn]++
				t.dropVN[vn].Inc()
				outcome = "drop-fault"
			case x.NHI != m.ref.Lookup(x.Addr):
				t.mismatches++
				outcome = "mismatch"
			default:
				t.delivered[vn]++
				t.total++
				t.delaySum += x.Stamp - m.arrival
				if x.NHI == ip.NoRoute {
					t.noRoute++
					outcome = "noroute"
				}
			}
			if x.Trace {
				t.held = append(t.held, heldTrace{x.Stamp, order,
					scenario.LookupTrace(t.seq(m.arrival, vn), int(vn), telEngine, 0, x.Result, x.EnterCycle-m.arrival, outcome)})
			}
		}
		settled += len(exits)
	})
	t.faulted += faults
	e.flights = e.flights[:copy(e.flights, e.flights[settled:])]
	for _, vn := range e.served {
		row := t.counts[vn*stages : (vn+1)*stages]
		for last, n := range row {
			meter.LookupN(e.idx, vn, last, n)
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
