// Package netsim runs end-to-end forwarding simulations over built routers:
// a packet distributor (Assumption 3) steers VNID-tagged packets to the
// right lookup engine, the cycle-accurate pipelines resolve them, and every
// result is cross-checked against the per-network reference tables. It is
// the correctness harness tying the whole system together.
//
// Two runners drive a router. Forward resolves a closed batch of packets as
// one slice (ForwardFrames is the same run with a parse in front and an
// egress edit behind). RunScenario runs a slice-quantized open loop in which
// a shaped offered load, faults, update churn, control-plane chaos, power
// caps and device failures act together, over a list of devices — the
// system's own router, or the fleet a fleet= spec places — as a
// configuration of the engine in internal/scenario, which owns the
// coordinator loop, telemetry threading and governor actuation; this package
// supplies its kernel (the slice runner in scenario.go) and the stressors.
package netsim

import (
	"fmt"
	"sync"

	"vrpower/internal/core"
	"vrpower/internal/energy"
	"vrpower/internal/fpga"
	"vrpower/internal/ip"
	"vrpower/internal/obs"
	"vrpower/internal/packet"
	"vrpower/internal/pipeline"
	"vrpower/internal/rib"
	"vrpower/internal/scenario"
	"vrpower/internal/sweep"
	"vrpower/internal/traffic"
)

// Run instrumentation (surfaced by cmd/lookupsim -stats).
var (
	obsPacketsResolved = obs.NewCounter("netsim.packets_resolved")
	obsFramesForwarded = obs.NewCounter("netsim.frames_forwarded")
	obsLoadCycles      = obs.NewCounter("netsim.load_cycles")
)

// System is a router under simulation together with its reference tables.
type System struct {
	router *core.Router
	refs   []*ip.Table
	// tables are the authoritative routing tables; the fault layer rebuilds
	// corrupted engine images from them.
	tables []*rib.Table
	k      int
	// tel is the attached telemetry bundle (never nil; defaults to the
	// shared all-nil noTelemetry).
	tel *Telemetry
	// emodel is the per-event energy cost table derived from the router's
	// power design; every run meters against it.
	emodel *energy.Model
}

// New wraps a built router. tables must be the same K tables the router was
// built from; they provide the forwarding oracle.
func New(r *core.Router, tables []*rib.Table) (*System, error) {
	if r.Images() == nil {
		return nil, fmt.Errorf("netsim: router has no compiled engines (analytic build?)")
	}
	k := r.Config().K
	if len(tables) != k {
		return nil, fmt.Errorf("netsim: %d tables for K = %d", len(tables), k)
	}
	// Each oracle depends only on its own table: they are built side by side
	// on the sweep pool, each with its range index, so no lookup in a run
	// builds one.
	refs, _ := sweep.Run(k, func(i int) (*ip.Table, error) { // a point never fails
		return tables[i].Reference(), nil
	})
	em, err := energy.NewModel(r.Design())
	if err != nil {
		return nil, err
	}
	return &System{router: r, refs: refs, tables: tables, k: k, tel: noTelemetry, emodel: em}, nil
}

// meter builds a zeroed energy meter over this system's cost model.
func (s *System) meter() *energy.Meter { return energy.NewMeter(s.emodel, s.k) }

// deliveredBits converts a delivered packet count into forwarded payload bits
// at the minimum packet size (the ThroughputGbps convention).
func deliveredBits(packets int64) int64 {
	return packets * fpga.MinPacketBytes * 8
}

// Report summarises a forwarding run.
type Report struct {
	// Packets is the number of packets forwarded.
	Packets int
	// Mismatches counts results that disagreed with the reference LPM
	// (must be zero for a correct build).
	Mismatches int
	// NoRoute counts packets that matched no prefix.
	NoRoute int
	// PerEngine holds each engine's pipeline statistics.
	PerEngine []pipeline.Stats
	// EngineLoad is the fraction of packets handled per engine, the
	// realised µ_i of Assumption 1.
	EngineLoad []float64
	// Energy is the run's attributed energy breakdown.
	Energy *energy.Report
}

// Forward distributes the packets to the router's engines, simulates every
// pipeline cycle-accurately, and verifies each resolved next hop against
// the reference tables.
func (s *System) Forward(pkts []traffic.Packet) (Report, error) {
	tel := s.tel
	tracing := tel.Tracing()
	perVN := make([]int, s.k)
	for _, p := range pkts {
		if p.VN < 0 || p.VN >= s.k {
			return Report{}, fmt.Errorf("netsim: packet VN %d outside [0,%d)", p.VN, s.k)
		}
		perVN[p.VN]++
	}
	d := steer(s.router.Config().Scheme, len(pkts), perVN, func(i int) int { return pkts[i].VN })
	rep, _, err := s.forward(d, func(e, start int, reqs []pipeline.Request) {
		for j := range reqs {
			// A trace's Seq is the batch index: unique, worker-independent.
			i := d.at(e, start+j)
			p := pkts[i]
			reqs[j] = pipeline.Request{Addr: p.Addr, VN: d.vn(p.VN), Trace: tracing && tel.Sampler.Sample(p.VN, int64(i))}
		}
	}, nil)
	return rep, err
}

// forward resolves a steered batch: fill(e, start, reqs) builds each chunk of
// engine e's requests, and egress, when not nil, gets the batch index and
// next hop of every routed result; a false return counts the packet as
// expired. The whole batch is one slice: the engines sweep their disjoint
// request sets on the worker pool, every result is verified by the shard
// that swept it, and the shards fold in engine order, then shard order.
func (s *System) forward(d steering, fill func(e, start int, reqs []pipeline.Request), egress func(i int, nhi ip.NextHop) bool) (Report, int, error) {
	images := s.router.Images()
	scheme := s.router.Config().Scheme
	rep := Report{
		Packets:    d.n,
		PerEngine:  make([]pipeline.Stats, len(images)),
		EngineLoad: make([]float64, len(images)),
	}
	meter := s.meter()
	// Every result is checked against its network's oracle, counted for the
	// meter, traced if sampled and, if routed, handed to egress by the shard
	// that swept it, while its chunk is still in cache.
	type verified struct {
		ck                           *checks
		mismatches, noRoute, expired int
		traces                       []*obs.FlightTrace
	}
	runs, err := sweepEngines(images, d.counts, fill, func(v *verified, e, start int, res []pipeline.Result) {
		stages := images[e].Stages()
		if v.ck == nil {
			v.ck = borrowChecks(s.k * stages)
		}
		one := e // per-network engine: the engine index is the network
		if scheme == core.VM {
			one = -1
		}
		want := v.ck.answers(s.refs, res, one)
		for j := range res {
			r := &res[j]
			vn := r.VN
			if one >= 0 {
				vn = one
			}
			v.ck.counts[vn*stages+r.LastStage]++
			if r.NHI != want[j] {
				v.mismatches++
			}
			if want[j] == ip.NoRoute {
				v.noRoute++
			}
			if r.Trace {
				v.traces = append(v.traces, scenario.LookupTrace(int64(d.at(e, start+j)), vn, e, 0, *r, 0, scenario.LookupOutcome(*r, want[j])))
			}
			if egress != nil && r.NHI != ip.NoRoute && !egress(d.at(e, start+j), r.NHI) {
				v.expired++
			}
		}
	})
	if err != nil {
		return Report{}, 0, err
	}
	expired := 0
	for e, run := range runs {
		if d.n > 0 {
			rep.EngineLoad[e] = float64(d.counts[e]) / float64(d.n)
		}
		rep.PerEngine[e] = run.st
		for _, v := range run.accs {
			rep.Mismatches += v.mismatches
			rep.NoRoute += v.noRoute
			expired += v.expired
			if v.ck != nil {
				stages := images[e].Stages()
				for vn := 0; vn < s.k; vn++ {
					chargeRow(meter, e, vn, v.ck.counts[vn*stages:(vn+1)*stages])
				}
				returnChecks(v.ck)
			}
			for _, t := range v.traces {
				// In fold order, so an overflowing ring keeps the same
				// traces at any -j.
				s.tel.Traces.Put(t)
			}
		}
	}
	// The batch is charged one slice of leakage at full rate.
	meter.StaticSlice(max(1, int64(d.n)), 1)
	er, err := meter.Report(deliveredBits(int64(d.n)))
	if err != nil {
		return Report{}, 0, err
	}
	rep.Energy = er
	er.Publish()
	obsPacketsResolved.Add(int64(d.n))
	return rep, expired, nil
}

// checks is a verify loop's scratch for the oracle, borrowed from a free
// list so that a run allocates none: a chunk's addresses and their answers,
// a merged engine's chunk grouped by network, and the lookups counted for
// the meter, by vn*stages + last stage.
type checks struct {
	addrs  []ip.Addr
	want   []ip.NextHop // by position in the chunk
	hops   []ip.NextHop // by place in the grouped chunk
	pos    []int32      // the chunk position of each place in the grouped chunk
	ends   []int        // ends[vn]: one past network vn's run in the grouped chunk
	counts []int64
}

// checkFree is the free list of checks the verify loops borrow.
var checkFree struct {
	sync.Mutex
	free []*checks
}

// borrowChecks returns a checks with n zeroed counts.
func borrowChecks(n int) *checks {
	checkFree.Lock()
	var c *checks
	if k := len(checkFree.free); k > 0 {
		c = checkFree.free[k-1]
		checkFree.free = checkFree.free[:k-1]
	} else {
		c = new(checks)
	}
	checkFree.Unlock()
	if cap(c.counts) < n {
		c.counts = make([]int64, n)
	}
	c.counts = c.counts[:n]
	clear(c.counts)
	return c
}

func returnChecks(c *checks) {
	checkFree.Lock()
	checkFree.free = append(checkFree.free, c)
	checkFree.Unlock()
}

// grow makes room for the addresses and answers of a chunk of n lookups.
func (c *checks) grow(n int) {
	if cap(c.addrs) < n {
		c.addrs, c.want = make([]ip.Addr, n), make([]ip.NextHop, n)
	}
}

// answers returns the oracle's answer for each result of a chunk, by
// position. A chunk of network one (≥ 0) is one LookupAll; a merged engine's
// chunk (one < 0) is counting-sorted by VN into one run per network, each
// looked up in one LookupAll, and the answers are scattered back to their
// positions.
func (c *checks) answers(refs []*ip.Table, res []pipeline.Result, one int) []ip.NextHop {
	n := len(res)
	c.grow(n)
	addrs, want := c.addrs[:n], c.want[:n]
	if one >= 0 {
		for j := range res {
			addrs[j] = res[j].Addr
		}
		refs[one].LookupAll(addrs, want)
		return want
	}
	if cap(c.pos) < n {
		c.hops, c.pos = make([]ip.NextHop, n), make([]int32, n)
	}
	if cap(c.ends) < len(refs)+1 {
		c.ends = make([]int, len(refs)+1)
	}
	// ends[vn+1] counts network vn's results, then, summed, ends[vn] is where
	// its run starts; placing each result moves its network's up to the end.
	ends := c.ends[:len(refs)+1]
	clear(ends)
	for j := range res {
		ends[res[j].VN+1]++
	}
	for vn := 1; vn < len(ends); vn++ {
		ends[vn] += ends[vn-1]
	}
	pos := c.pos[:n]
	for j := range res {
		p := ends[res[j].VN]
		addrs[p], pos[p] = res[j].Addr, int32(j)
		ends[res[j].VN]++
	}
	hops, lo := c.hops[:n], 0
	for vn, ref := range refs {
		ref.LookupAll(addrs[lo:ends[vn]], hops[lo:ends[vn]])
		lo = ends[vn]
	}
	for p, j := range pos {
		want[j] = hops[p]
	}
	return want
}

// chargeRow charges meter with row[last] lookups of network vn through stage
// last of engine e, for every last stage, in integer femtojoules — the sum
// one charge per lookup comes to — and zeroes the row.
func chargeRow(meter *energy.Meter, e, vn int, row []int64) {
	for last, n := range row {
		meter.LookupN(e, vn, last, n)
		row[last] = 0
	}
}

// engineRun is one engine's part of a closed-loop run: its stats (zero for
// an engine with no requests) and its shards' accumulators, in shard order.
type engineRun[T any] struct {
	st   pipeline.Stats
	accs []T
}

// steering is the distributor's split (Assumption 3) of a validated batch
// over the engines. The merged scheme's one engine takes the whole batch in
// order; per-network engines each take their network's packets in batch
// order, listed as batch indices (4 bytes a packet). The shards build each
// chunk's requests from the batch as they sweep it, so no run stages a
// per-engine copy of its batch.
type steering struct {
	n      int       // packets in the batch
	counts []int     // requests per engine
	idx    [][]int32 // per-network schemes: engine e's batch indices (nil: merged)
}

// steer splits a batch of n packets, perVN[vn] of them in network vn, whose
// i-th packet is in network vnOf(i).
func steer(scheme core.Scheme, n int, perVN []int, vnOf func(i int) int) steering {
	if scheme == core.VM {
		return steering{n: n, counts: []int{n}}
	}
	d := steering{n: n, counts: perVN, idx: make([][]int32, len(perVN))}
	for vn, c := range perVN {
		d.idx[vn] = make([]int32, 0, c)
	}
	for i := 0; i < n; i++ {
		vn := vnOf(i)
		d.idx[vn] = append(d.idx[vn], int32(i))
	}
	return d
}

// at is the batch index of engine e's request i.
func (d *steering) at(e, i int) int {
	if d.idx == nil {
		return i
	}
	return int(d.idx[e][i])
}

// vn is the VN a packet of network vn carries into its engine: per-network
// engines hold a single table, so the distributor strips the VNID after
// steering.
func (d *steering) vn(vn int) int {
	if d.idx != nil {
		return 0
	}
	return vn
}

// sweepEngines resolves engine e's counts[e] requests on a BatchSim of its
// own: fill(e, start, reqs) builds each chunk on the shard about to sweep it,
// and visit gets the swept chunk, with the accumulator of that shard, the
// engine and the chunk's first request index. Engines hold disjoint request
// sets and fan out over the worker pool, one shard each; a lone engine (the
// merged scheme) is split into pipeline.Shards shards instead, since the
// fan-out is then width 1. The caller folds the runs in engine order, then
// shard order.
func sweepEngines[T any](images []*pipeline.Image, counts []int, fill func(e, start int, reqs []pipeline.Request), visit func(acc *T, e, start int, res []pipeline.Result)) ([]engineRun[T], error) {
	return sweep.Run(len(images), func(e int) (engineRun[T], error) {
		n := counts[e]
		if n == 0 {
			return engineRun[T]{}, nil
		}
		shards := 1
		if len(images) == 1 {
			shards = pipeline.Shards(n)
		}
		run := engineRun[T]{accs: make([]T, shards)}
		var err error
		run.st, err = pipeline.NewBatchSim(images[e]).RunSharded(n, shards, func(start int, reqs []pipeline.Request) {
			fill(e, start, reqs)
		}, func(shard, start int, res []pipeline.Result) {
			visit(&run.accs[shard], e, start, res)
		})
		return run, err
	})
}

// FrameReport summarises a frame-level forwarding run: the full data plane
// of parse → distribute → lookup → edit, with per-cause drop counters. The
// embedded Report is the lookup run over the steered frames, as Forward
// reports it.
type FrameReport struct {
	Report
	Frames     int
	Forwarded  int // steered, less no-route and expired: exact when Mismatches is 0
	BadParse   int
	UnknownVN  int
	TTLExpired int
}

// ForwardFrames runs wire-format frames through the complete data plane:
// each frame is parsed (Ethernet + VLAN VNID + IPv4, checksum verified),
// steered by the distributor, resolved and verified as Forward resolves a
// packet, and on success edited in place (TTL decrement, checksum update,
// MAC rewrite toward the resolved next hop). Drops are counted by cause.
func (s *System) ForwardFrames(frames [][]byte) (FrameReport, error) {
	rep := FrameReport{Frames: len(frames)}

	// The parsed frames with a known VNID are the batch the distributor
	// steers.
	parsed := make([]*packet.Frame, 0, len(frames))
	perVN := make([]int, s.k)
	for _, buf := range frames {
		f, err := packet.Parse(buf)
		if err != nil {
			rep.BadParse++
			continue
		}
		if f.VNID >= s.k {
			rep.UnknownVN++
			continue
		}
		parsed = append(parsed, f)
		perVN[f.VNID]++
	}
	tel := s.tel
	tracing := tel.Tracing()
	d := steer(s.router.Config().Scheme, len(parsed), perVN, func(i int) int { return parsed[i].VNID })
	var err error
	rep.Report, rep.TTLExpired, err = s.forward(d, func(e, start int, reqs []pipeline.Request) {
		for j := range reqs {
			i := d.at(e, start+j)
			f := parsed[i]
			reqs[j] = pipeline.Request{Addr: f.DstIP, VN: d.vn(f.VNID), Trace: tracing && tel.Sampler.Sample(f.VNID, int64(i))}
		}
	}, func(i int, nhi ip.NextHop) bool {
		// Egress edit: next-hop MAC synthesised from the NHI port. Its one
		// failure is an expired TTL.
		f := parsed[i]
		nh := packet.MAC{0x02, 0xFE, 0, 0, byte(nhi >> 8), byte(nhi)}
		egress := packet.MAC{0x02, 0xFD, 0, 0, 0, byte(f.VNID)}
		return f.Forward(nh, egress) == nil
	})
	if err != nil {
		return FrameReport{}, err
	}
	rep.Forwarded = rep.Packets - rep.NoRoute - rep.TTLExpired
	obsFramesForwarded.Add(int64(rep.Forwarded))
	return rep, nil
}
