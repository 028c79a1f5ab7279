// Package netsim runs end-to-end forwarding simulations over built routers:
// a packet distributor (Assumption 3) steers VNID-tagged packets to the
// right lookup engine, the cycle-accurate pipelines resolve them, and every
// result is cross-checked against the per-network reference tables. It is
// the correctness harness tying the whole system together.
//
// Every harness — Forward, LoadTest, RunFaults, RunUpdates, and the
// composable RunScenario — is a thin configuration of the slice-quantized
// engine in internal/scenario: the engine owns the coordinator loop,
// telemetry threading and governor actuation; the harnesses supply kernels
// (how a slice's cycles execute) and stressors (faults, churn) through the
// engine's hook interface.
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
	// power design; every harness meters against it.
	emodel *energy.Model
	// merged marks the shared-engine scheme; served[e] lists the networks
	// engine e serves, ascending — all K on the merged engine, network e on
	// its own engine otherwise.
	merged bool
	served [][]int
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
	s := &System{router: r, refs: refs, tables: tables, k: k, tel: noTelemetry, emodel: em,
		merged: r.Config().Scheme == core.VM, served: make([][]int, len(r.Images()))}
	for vn := 0; vn < k; vn++ {
		e := s.engineOf(vn)
		s.served[e] = append(s.served[e], vn)
	}
	return s, nil
}

// engineOf maps a network to the engine serving it: the shared engine 0
// under the merged scheme, the network's own engine otherwise.
func (s *System) engineOf(vn int) int {
	if s.merged {
		return 0
	}
	return vn
}

// lowVN maps an engine to the lowest VNID it serves — where control-plane
// energy on that engine (sweeps, reloads) is attributed.
func (s *System) lowVN(e int) int { return s.served[e][0] }

// reqVN is the VNID a lookup of network vn carries into its engine: the
// merged engine tells its networks apart by it, a per-network engine holds
// one table and the distributor strips it.
func (s *System) reqVN(vn int) int {
	if s.merged {
		return vn
	}
	return 0
}

// nextQueued pops the next packet engine e serves: round-robin from *rr over
// the ingress queues of the networks it serves, the first that is not empty.
func (s *System) nextQueued(e int, rr *int, queues []fifo[queued]) (queued, bool) {
	vns := s.served[e]
	for i := range vns {
		j := (*rr + i) % len(vns)
		if q := &queues[vns[j]]; q.len() > 0 {
			*rr = (j + 1) % len(vns)
			return q.pop(), true
		}
	}
	return queued{}, false
}

// meter builds a zeroed energy meter over this system's cost model.
func (s *System) meter() *energy.Meter { return energy.NewMeter(s.emodel, s.k) }

// deliveredBits converts a delivered packet count into forwarded payload bits
// at the minimum packet size (the ThroughputGbps convention).
func deliveredBits(packets int64) int64 {
	return packets * fpga.MinPacketBytes * 8
}

// engine returns a scenario engine preconfigured with this system's plant
// (design, fmax, K) and attached telemetry.
func (s *System) engine() scenario.Engine {
	return scenario.Engine{
		K:       s.k,
		Design:  s.router.Design(),
		FmaxMHz: s.router.Fmax(),
		Tel:     s.tel,
	}
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

// forwardKernel is the one-shot batch kernel: the whole packet set runs as
// a single slice — distribute per engine, simulate the disjoint request
// slices on the worker pool, fold in engine order.
type forwardKernel struct {
	s     *System
	pkts  []traffic.Packet
	meter *energy.Meter
	rep   Report
}

func (k *forwardKernel) Outstanding() bool { return false }

func (k *forwardKernel) RunSlice(_, _ int64, _ bool) (scenario.SliceStats, error) {
	s := k.s
	images := s.router.Images()
	scheme := s.router.Config().Scheme

	// Distributor (Assumption 3): split the merged flow per engine. The
	// merged scheme keeps one stream; NV/VS steer by VNID.
	tel := s.tel
	tracing := tel.Tracing()
	// The validation pass counts each engine's share, so the distributor's
	// slices are made once at their final size: grown by doubling from nil
	// they were a third of a 250 000-packet run's allocation.
	perVN := make([]int, s.k)
	for _, p := range k.pkts {
		if p.VN < 0 || p.VN >= s.k {
			return scenario.SliceStats{}, fmt.Errorf("netsim: packet VN %d outside [0,%d)", p.VN, s.k)
		}
		perVN[p.VN]++
	}
	perEngine := make([][]pipeline.Request, len(images))
	var perEngineSeq [][]int64 // traced runs: the batch index of each request
	if tracing {
		perEngineSeq = make([][]int64, len(images))
	}
	for e := range perEngine {
		n := len(k.pkts) // the merged scheme's one engine takes them all
		if scheme != core.VM {
			n = perVN[e]
		}
		perEngine[e] = make([]pipeline.Request, 0, n)
		if tracing {
			perEngineSeq[e] = make([]int64, 0, n)
		}
	}
	for i, p := range k.pkts {
		e, vn := 0, p.VN
		if scheme != core.VM {
			// Per-network engines hold a single table: the distributor
			// strips the VNID after steering.
			e, vn = p.VN, 0
		}
		req := pipeline.Request{Addr: p.Addr, VN: vn}
		if tracing {
			// Seq is the batch position: unique, worker-independent.
			req.Trace = tel.Sampler.Sample(p.VN, int64(i))
			perEngineSeq[e] = append(perEngineSeq[e], int64(i))
		}
		perEngine[e] = append(perEngine[e], req)
	}

	k.rep = Report{
		Packets:    len(k.pkts),
		PerEngine:  make([]pipeline.Stats, len(images)),
		EngineLoad: make([]float64, len(images)),
	}
	// Each engine owns a disjoint request slice and its own simulator, so
	// the engines run on the bounded worker pool; aggregation walks the
	// results in engine order, keeping the report deterministic at any -j.
	type engineRun struct {
		st         pipeline.Stats
		mismatches int
		noRoute    int
		em         *energy.Meter
	}
	// Each engine runs the batched, data-oriented lookup core — scalar-
	// equivalent by the pipeline package's differential tests, so reports
	// and goldens are byte-identical to the cycle-loop simulator. A lone
	// engine (the merged scheme) additionally shards its batch across the
	// worker pool, since the per-engine fan-out below is then width 1.
	shardSingle := len(images) == 1
	runs, err := sweep.Run(len(images), func(e int) (engineRun, error) {
		reqs := perEngine[e]
		if len(reqs) == 0 {
			return engineRun{}, nil
		}
		sim := pipeline.NewBatchSim(images[e])
		var results []pipeline.Result
		var st pipeline.Stats
		var err error
		if shardSingle {
			results, st, err = sim.RunSharded(reqs)
		} else {
			results, st, err = sim.Run(reqs, 1)
		}
		if err != nil {
			return engineRun{}, err
		}
		run := engineRun{st: st, em: s.meter()}
		for ri, res := range results {
			vn := res.VN
			if scheme != core.VM {
				vn = e // per-network engine: the engine index is the network
			}
			run.em.Lookup(e, vn, res.LastStage)
			want := s.refs[vn].Lookup(res.Addr)
			if res.NHI != want {
				run.mismatches++
			}
			if want == ip.NoRoute {
				run.noRoute++
			}
			if res.Trace {
				// Results exit in injection order, so ri indexes the seq
				// slice built by the distributor.
				tel.PutLookupTrace(perEngineSeq[e][ri], vn, e, 0, res, 0, scenario.LookupOutcome(res, want))
			}
		}
		return run, nil
	})
	if err != nil {
		return scenario.SliceStats{}, err
	}
	for e, run := range runs {
		if len(k.pkts) > 0 {
			k.rep.EngineLoad[e] = float64(len(perEngine[e])) / float64(len(k.pkts))
		}
		k.rep.PerEngine[e] = run.st
		k.rep.Mismatches += run.mismatches
		k.rep.NoRoute += run.noRoute
		k.meter.Fold(run.em)
	}
	return scenario.SliceStats{}, nil
}

// Forward distributes the packets to the router's engines, simulates every
// pipeline cycle-accurately, and verifies each resolved next hop against
// the reference tables.
func (s *System) Forward(pkts []traffic.Packet) (Report, error) {
	k := &forwardKernel{s: s, pkts: pkts, meter: s.meter()}
	eng := s.engine()
	// The whole batch is one slice; there is no slice clock, so no series.
	eng.Cycles = int64(len(pkts))
	if eng.Cycles == 0 {
		eng.Cycles = 1
	}
	eng.SliceCycles = eng.Cycles
	eng.Truncate = true
	eng.NoSeries = true
	eng.Kernel = k
	eng.Energy = k.meter
	if err := eng.Run(); err != nil {
		return Report{}, err
	}
	er, err := k.meter.Report(deliveredBits(int64(len(pkts))))
	if err != nil {
		return Report{}, err
	}
	k.rep.Energy = er
	er.Publish()
	obsPacketsResolved.Add(int64(len(pkts)))
	return k.rep, nil
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

	type pending struct {
		frame *packet.Frame
		vn    int
	}
	perEngineReqs := make([][]pipeline.Request, len(images))
	perEnginePend := make([][]pending, len(images))
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
		e, vn := 0, f.VNID
		if scheme != core.VM {
			e, vn = f.VNID, 0
		}
		perEngineReqs[e] = append(perEngineReqs[e], pipeline.Request{Addr: f.DstIP, VN: vn})
		perEnginePend[e] = append(perEnginePend[e], pending{frame: f, vn: f.VNID})
	}

	// Engines hold disjoint frame sets (the distributor steered each frame
	// to exactly one), so lookup and egress edit run per engine on the
	// worker pool; counters are summed in engine order afterwards.
	type engineRun struct {
		forwarded, noRoute, ttlExpired, mismatches int
	}
	runs, err := sweep.Run(len(images), func(e int) (engineRun, error) {
		reqs := perEngineReqs[e]
		if len(reqs) == 0 {
			return engineRun{}, nil
		}
		// The frame path needs only next hops, so it runs the batched
		// engine too; the egress edit consumes results in request order.
		results, _, err := pipeline.NewBatchSim(images[e]).Run(reqs, 1)
		if err != nil {
			return engineRun{}, err
		}
		var run engineRun
		for i, res := range results {
			p := perEnginePend[e][i]
			if want := s.refs[p.vn].Lookup(res.Addr); res.NHI != want {
				run.mismatches++
			}
			if res.NHI == ip.NoRoute {
				run.noRoute++
				continue
			}
			// Egress edit: next-hop MAC synthesised from the NHI port.
			nh := packet.MAC{0x02, 0xFE, 0, 0, byte(res.NHI >> 8), byte(res.NHI)}
			egress := packet.MAC{0x02, 0xFD, 0, 0, 0, byte(p.vn)}
			switch err := p.frame.Forward(nh, egress); err {
			case nil:
				run.forwarded++
			case packet.ErrTTLExpired:
				run.ttlExpired++
			default:
				return engineRun{}, err
			}
		}
		return run, nil
	})
	if err != nil {
		return FrameReport{}, err
	}
	for _, run := range runs {
		rep.Forwarded += run.forwarded
		rep.NoRoute += run.noRoute
		rep.TTLExpired += run.ttlExpired
		rep.Mismatches += run.mismatches
	}
	obsFramesForwarded.Add(int64(rep.Forwarded))
	return rep, nil
}

// LoadReport summarises an open-loop offered-load run (the paper's merged
// scalability limitation, Section IV-C: "the throughput is shared among the
// virtual networks ... the lookup engine may fail to sustain the required
// throughput").
type LoadReport struct {
	// Offered and Delivered are per-VN packet counts.
	Offered   []int64
	Delivered []int64
	// Dropped counts arrivals lost to full input queues, per VN.
	Dropped []int64
	// MeanDelayCycles is the average arrival-to-exit latency over all
	// delivered packets.
	MeanDelayCycles float64
	Cycles          int64
	// Governor is the power-envelope controller's summary when the run was
	// governed (SetGovernor); nil otherwise.
	Governor *governor.Report
	// Energy is the run's attributed energy breakdown.
	Energy *energy.Report
}

// DeliveredFraction returns delivered/offered over all networks.
func (r LoadReport) DeliveredFraction() float64 {
	var off, del int64
	for i := range r.Offered {
		off += r.Offered[i]
		del += r.Delivered[i]
	}
	if off == 0 {
		return 1
	}
	return float64(del) / float64(off)
}

// loadSliceCycles is LoadTest's telemetry quantum: one time-series row per
// this many cycles (matching the fault/update harnesses' default slice).
const loadSliceCycles = 1024

// loadKernel is the coupled sequential kernel behind LoadTest: per-VN
// Bernoulli arrivals share one generator stream whose draw count depends on
// queue state, so the whole cycle loop runs on the coordinator — no
// fan-out, trivially deterministic at any -j.
type loadKernel struct {
	s         *System
	gen       *traffic.Generator
	perVNLoad float64
	queueCap  int
	sims      []*pipeline.BatchSim
	queues    []fifo[queued]
	flights   [][]inflight // in-flight lookups per engine
	rrNext    []int        // round-robin pointer per engine
	gv        *scenario.GovRun
	meter     *energy.Meter
	rep       LoadReport
	st        settler
	// Per-window telemetry cursors: per-engine utilization deltas.
	utilCur [][2]int64 // {activeSum, cycles} per engine
	utils   []float64
}

func (k *loadKernel) Outstanding() bool { return false }

func (k *loadKernel) RunSlice(b, n int64, _ bool) (scenario.SliceStats, error) {
	s, gen, gv := k.s, k.gen, k.gv
	before := k.st.total
	for c := b; c < b+n; c += pipeline.DrainWindow {
		for cyc, end := c, min(c+pipeline.DrainWindow, b+n); cyc < end; cyc++ {
			// Arrivals.
			for vn := 0; vn < s.k; vn++ {
				if !gen.Bernoulli(k.perVNLoad) {
					continue
				}
				k.rep.Offered[vn]++
				if gv != nil && gv.AdmitArrival(vn, s.engineOf(vn)) {
					k.rep.Dropped[vn]++
					continue
				}
				if k.queues[vn].len() >= k.queueCap {
					k.rep.Dropped[vn]++
					continue
				}
				k.queues[vn].push(queued{arrival: cyc, addr: gen.NextFor(vn).Addr, vn: int32(vn)})
			}
			// Service: one injection per engine per cycle, round-robin over
			// the engine's ingress queues. A governed engine that loses this
			// cycle to frequency stepping or quiescing freezes: no injection,
			// and in-flight packets stall in place.
			for e, sim := range k.sims {
				if gv != nil && !gv.EngineServes(e) {
					continue
				}
				q, ok := s.nextQueued(e, &k.rrNext[e], k.queues)
				if !ok {
					sim.Idle(cyc)
					continue
				}
				k.flights[e] = append(k.flights[e], inflight{arrival: q.arrival, vn: q.vn})
				sim.Inject(pipeline.Request{Addr: q.addr, VN: s.reqVN(int(q.vn)), Trace: k.st.traced(q)}, cyc)
			}
		}
		for e, sim := range k.sims {
			k.st.settle(sim, &k.flights[e], k.meter, e, e, e)
		}
		k.st.putTraces()
	}
	backlog := 0
	for vn := range k.queues {
		backlog += k.queues[vn].len()
	}
	for e := range k.sims {
		k.utils[e], k.utilCur[e][0], k.utilCur[e][1] = scenario.UtilDelta(k.sims[e].Stats(), k.utilCur[e][0], k.utilCur[e][1])
	}
	return scenario.SliceStats{Util: k.utils, Delivered: k.st.total - before, Backlog: backlog}, nil
}

// LoadTest drives the router open-loop for the given number of cycles:
// every cycle, each virtual network independently offers a packet with
// probability perVNLoad (a Bernoulli arrival at that fraction of line
// rate). Arrivals wait in per-network ingress queues of queueCap packets;
// each engine accepts one packet per cycle, arbitrating its queues round-
// robin (the merged engine serves all K, so it saturates — fairly — once
// K·perVNLoad exceeds 1; the separate scheme gives every network its own
// engine with per-VN capacity 1).
func (s *System) LoadTest(gen *traffic.Generator, perVNLoad float64, cycles int64, queueCap int) (LoadReport, error) {
	if perVNLoad < 0 || perVNLoad > 1 {
		return LoadReport{}, fmt.Errorf("netsim: per-VN load %g outside [0,1]", perVNLoad)
	}
	if queueCap < 1 {
		return LoadReport{}, fmt.Errorf("netsim: queue capacity %d, want >= 1", queueCap)
	}
	images := s.router.Images()
	gv, err := s.newGovRun()
	if err != nil {
		return LoadReport{}, err
	}
	k := &loadKernel{
		s:         s,
		gen:       gen,
		perVNLoad: perVNLoad,
		queueCap:  queueCap,
		sims:      make([]*pipeline.BatchSim, len(images)),
		queues:    make([]fifo[queued], s.k),
		flights:   make([][]inflight, len(images)),
		rrNext:    make([]int, len(images)),
		gv:        gv,
		meter:     s.meter(),
		utilCur:   make([][2]int64, len(images)),
		utils:     make([]float64, len(images)),
		rep: LoadReport{
			Offered:   make([]int64, s.k),
			Delivered: make([]int64, s.k),
			Dropped:   make([]int64, s.k),
			Cycles:    cycles,
		},
	}
	k.st = settler{tel: s.tel, seqStride: int64(s.k), delivered: k.rep.Delivered}
	for e := range images {
		k.sims[e] = pipeline.NewBatchSim(images[e])
		k.flights[e] = newFlights(images[e])
	}
	// The cycle loop runs on the coordinator, so the run meter can feed the
	// per-lookup energy histogram without touching any worker hot path.
	k.meter.ObserveHist = true
	if cycles <= 0 {
		// Degenerate zero-cycle run: an initialised (empty) series and an
		// untouched report, as the pre-engine loop produced.
		s.tel.InitSeries(s.k)
		if gv != nil {
			k.rep.Governor = gv.Report()
		}
		if er, err := k.meter.Report(0); err == nil {
			k.rep.Energy = er
		}
		return k.rep, nil
	}
	eng := s.engine()
	eng.Cycles = cycles
	eng.SliceCycles = loadSliceCycles
	eng.Truncate = true
	eng.Gov = gv
	eng.Kernel = k
	eng.Energy = k.meter
	if err := eng.Run(); err != nil {
		return LoadReport{}, err
	}
	k.rep.MeanDelayCycles = k.st.meanDelay()
	if gv != nil {
		k.rep.Governor = gv.Report()
	}
	er, err := k.meter.Report(deliveredBits(k.st.total))
	if err != nil {
		return LoadReport{}, err
	}
	k.rep.Energy = er
	er.Publish()
	obsLoadCycles.Add(cycles)
	obsPacketsResolved.Add(k.st.total)
	return k.rep, nil
}
