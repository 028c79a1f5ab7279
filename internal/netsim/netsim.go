// Package netsim runs end-to-end forwarding simulations over built routers:
// a packet distributor (Assumption 3) steers VNID-tagged packets to the
// right lookup engine, the cycle-accurate pipelines resolve them, and every
// result is cross-checked against the per-network reference tables. It is
// the correctness harness tying the whole system together.
//
// Two runners drive a router: Forward (and ForwardFrames) resolves a closed
// batch of packets, and RunScenario runs a slice-quantized open loop in
// which a shaped offered load, faults, update churn, control-plane chaos,
// power caps and device failures act together, over a list of devices — the
// system's own router as the one device, or the fleet a fleet= spec places.
// Both are configurations of the engine in internal/scenario, which owns the
// coordinator loop, telemetry threading and governor actuation; this package
// supplies the two kernels (how a slice's cycles execute: the one-slice batch
// kernel here, the slice runner in scenario.go) and the stressors.
package netsim

import (
	"fmt"

	"vrpower/internal/core"
	"vrpower/internal/energy"
	"vrpower/internal/fpga"
	"vrpower/internal/governor"
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
	// gov is the attached power-envelope governor configuration; nil runs
	// ungoverned.
	gov *governor.Config
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
	refs := make([]*ip.Table, k)
	for i, t := range tables {
		refs[i] = t.Reference()
	}
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
// the reference tables. The whole batch is one slice: distribute per engine,
// simulate and verify the disjoint request slices on the worker pool, fold in
// engine order, then shard order.
func (s *System) Forward(pkts []traffic.Packet) (Report, error) {
	images := s.router.Images()
	scheme := s.router.Config().Scheme

	tel := s.tel
	tracing := tel.Tracing()
	perVN := make([]int, s.k)
	for _, p := range pkts {
		if p.VN < 0 || p.VN >= s.k {
			return Report{}, fmt.Errorf("netsim: packet VN %d outside [0,%d)", p.VN, s.k)
		}
		perVN[p.VN]++
	}
	d := steer(scheme, len(pkts), perVN, func(i int) int { return pkts[i].VN })
	fill := func(e, start int, reqs []pipeline.Request) {
		for j := range reqs {
			// A trace's Seq is the batch index: unique, worker-independent.
			i := d.at(e, start+j)
			p := pkts[i]
			reqs[j] = pipeline.Request{Addr: p.Addr, VN: d.vn(p.VN), Trace: tracing && tel.Sampler.Sample(p.VN, int64(i))}
		}
	}

	rep := Report{
		Packets:    len(pkts),
		PerEngine:  make([]pipeline.Stats, len(images)),
		EngineLoad: make([]float64, len(images)),
	}
	meter := s.meter()
	// Every result is metered, checked against its network's oracle and, if
	// sampled, traced by the shard that swept it, while its chunk is still
	// in cache.
	type verified struct {
		em                  *energy.Meter
		mismatches, noRoute int
		traces              []*obs.FlightTrace
	}
	runs, err := sweepEngines(images, d.counts, fill, func(v *verified, e, start int, res []pipeline.Result) {
		if v.em == nil {
			v.em = s.meter()
		}
		for j := range res {
			r := &res[j]
			vn := r.VN
			if scheme != core.VM {
				vn = e // per-network engine: the engine index is the network
			}
			v.em.Lookup(e, vn, r.LastStage)
			want := s.refs[vn].Lookup(r.Addr)
			if r.NHI != want {
				v.mismatches++
			}
			if want == ip.NoRoute {
				v.noRoute++
			}
			if r.Trace {
				v.traces = append(v.traces, scenario.LookupTrace(int64(d.at(e, start+j)), vn, e, 0, *r, 0, scenario.LookupOutcome(*r, want)))
			}
		}
	})
	if err != nil {
		return Report{}, err
	}
	for e, run := range runs {
		if len(pkts) > 0 {
			rep.EngineLoad[e] = float64(d.counts[e]) / float64(len(pkts))
		}
		rep.PerEngine[e] = run.st
		for _, v := range run.accs {
			rep.Mismatches += v.mismatches
			rep.NoRoute += v.noRoute
			meter.Fold(v.em)
			for _, t := range v.traces {
				// In fold order, so an overflowing ring keeps the same
				// traces at any -j.
				tel.Traces.Put(t)
			}
		}
	}
	// The batch is charged one slice of leakage at full rate.
	meter.StaticSlice(max(1, int64(len(pkts))), 1)
	er, err := meter.Report(deliveredBits(int64(len(pkts))))
	if err != nil {
		return Report{}, err
	}
	rep.Energy = er
	er.Publish()
	obsPacketsResolved.Add(int64(len(pkts)))
	return rep, nil
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
	counts []int     // requests per engine
	idx    [][]int32 // per-network schemes: engine e's batch indices (nil: merged)
}

// steer splits a batch of n packets, perVN[vn] of them in network vn, whose
// i-th packet is in network vnOf(i).
func steer(scheme core.Scheme, n int, perVN []int, vnOf func(i int) int) steering {
	if scheme == core.VM {
		return steering{counts: []int{n}}
	}
	d := steering{counts: perVN, idx: make([][]int32, len(perVN))}
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
// of parse → distribute → lookup → edit, with per-cause drop counters.
type FrameReport struct {
	Frames     int
	Forwarded  int
	BadParse   int
	UnknownVN  int
	NoRoute    int
	TTLExpired int
	// Mismatches counts lookups that disagreed with the reference LPM.
	Mismatches int
}

// ForwardFrames runs wire-format frames through the complete data plane:
// each frame is parsed (Ethernet + VLAN VNID + IPv4, checksum verified),
// steered by the distributor, resolved by the cycle-accurate pipelines,
// and on success edited in place (TTL decrement, checksum update, MAC
// rewrite toward the resolved next hop). Drops are counted by cause.
func (s *System) ForwardFrames(frames [][]byte) (FrameReport, error) {
	images := s.router.Images()
	scheme := s.router.Config().Scheme
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
	d := steer(scheme, len(parsed), perVN, func(i int) int { return parsed[i].VNID })
	fill := func(e, start int, reqs []pipeline.Request) {
		for j := range reqs {
			f := parsed[d.at(e, start+j)]
			reqs[j] = pipeline.Request{Addr: f.DstIP, VN: d.vn(f.VNID)}
		}
	}

	// Engines hold disjoint frame sets (the distributor steered each frame
	// to exactly one), so each shard builds, checks and edits the frames of
	// the chunks it sweeps; counters are summed in engine order, then shard
	// order.
	type edited struct {
		forwarded, noRoute, ttlExpired, mismatches int
	}
	runs, err := sweepEngines(images, d.counts, fill, func(a *edited, e, start int, res []pipeline.Result) {
		for j := range res {
			r := &res[j]
			f := parsed[d.at(e, start+j)]
			if want := s.refs[f.VNID].Lookup(r.Addr); r.NHI != want {
				a.mismatches++
			}
			if r.NHI == ip.NoRoute {
				a.noRoute++
				continue
			}
			// Egress edit: next-hop MAC synthesised from the NHI port. Its
			// one failure is an expired TTL.
			nh := packet.MAC{0x02, 0xFE, 0, 0, byte(r.NHI >> 8), byte(r.NHI)}
			egress := packet.MAC{0x02, 0xFD, 0, 0, 0, byte(f.VNID)}
			if f.Forward(nh, egress) != nil {
				a.ttlExpired++
			} else {
				a.forwarded++
			}
		}
	})
	if err != nil {
		return FrameReport{}, err
	}
	for _, run := range runs {
		for _, a := range run.accs {
			rep.Forwarded += a.forwarded
			rep.NoRoute += a.noRoute
			rep.TTLExpired += a.ttlExpired
			rep.Mismatches += a.mismatches
		}
	}
	obsFramesForwarded.Add(int64(rep.Forwarded))
	return rep, nil
}
