package main

import (
	"fmt"
	"runtime"
	"time"

	"vrpower/internal/core"
	"vrpower/internal/ctrl"
	"vrpower/internal/energy"
	"vrpower/internal/fleet"
	"vrpower/internal/governor"
	"vrpower/internal/ip"
	"vrpower/internal/merge"
	"vrpower/internal/pipeline"
	"vrpower/internal/power"
	"vrpower/internal/rib"
	"vrpower/internal/scenario"
	"vrpower/internal/traffic"
	"vrpower/internal/trie"
	"vrpower/internal/update"
)

const (
	// probeLookups bounds the request stream a per-lookup probe replays.
	probeLookups = 50000
	// probeBatches bounds the churn batches the update/ctrl probes apply.
	probeBatches = 8
	// probeOps is the repeat count of the sub-microsecond control probes.
	probeOps = 20000
	// auditProbeCap mirrors netsim's per-network audit sample.
	auditProbeCap = 64
	// journalWrites is the write count each probed journal op records.
	journalWrites = 16
	// minPacketBits is the 40-byte packet the throughput convention assumes.
	minPacketBits = 40 * 8
)

// prober calls each layer's exported functions on the workload's own tables,
// images and request stream, from outside the program, and divides by the
// count. A probe of a layer the workload never executes is skipped and its
// metrics read 0.
type prober struct {
	w    workload
	spec scenario.Spec
	// sys is a fresh untimed build from the seed.
	sys *system
	// pkts is the system's request stream; refs its oracle tables.
	pkts []traffic.Packet
	refs []*ip.Table
	// lastStage carries the batched probe's exit stages to the meter probe.
	lastStage []int
	vals      map[string]float64
}

// measure times fn and counts the heap objects it allocated.
func measure(fn func()) (time.Duration, float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	fn()
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	return d, float64(m1.Mallocs - m0.Mallocs)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func per(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// engineRequests splits a packet stream into per-engine request slices the
// way netsim's distributor does: the merged engine sees the VNID, separate
// engines see VN 0.
func engineRequests(s *system, pkts []traffic.Packet) [][]pipeline.Request {
	merged := s.router.Config().Scheme == core.VM
	reqs := make([][]pipeline.Request, len(s.router.Images()))
	for _, p := range pkts {
		e, vn := p.VN, 0
		if merged {
			e, vn = 0, p.VN
		}
		reqs[e] = append(reqs[e], pipeline.Request{Addr: p.Addr, VN: vn})
	}
	return reqs
}

// runProbes executes every applicable probe under a bench.probes span, one
// child span per probe, and returns the per-layer unit costs.
func runProbes(w workload, seed int64, tr *tracer) (map[string]float64, error) {
	p := &prober{w: w, vals: map[string]float64{}}
	var err error
	if p.sys, err = newRepRun(w, seed, nil).build(); err != nil {
		return nil, err
	}
	if sp := w.spec(); sp != "" {
		if p.spec, err = scenario.Parse(sp); err != nil {
			return nil, err
		}
	}
	scen, forward := w.stressors != "", w.stressors == ""
	merged := w.scheme == core.VM

	steps := []struct {
		name string
		on   bool
		fn   func() error
	}{
		{"traffic.generate", true, p.traffic},
		{"trie.build", true, p.trieBuild},
		{"merge.build", merged, p.mergeBuild},
		{"pipeline.flatten", true, p.flatten},
		{"ip.reference_build", true, p.referenceBuild},
		{"ip.oracle", true, p.oracle},
		{"pipeline.batch", forward, p.batch},
		{"pipeline.sim", scen, p.sim},
		{"pipeline.audit", p.spec.Chaos != nil, p.audit},
		{"energy.meter", true, p.meter},
		{"update+ctrl.hitless", p.spec.Churn != nil, p.churn},
		{"ctrl.journal", p.spec.Chaos != nil, p.journal},
		{"governor.observe", p.spec.CapW > 0, p.governor},
		{"power.estimate", true, p.estimate},
		{"fleet.place", p.spec.Fleet != nil, p.place},
		{"scenario.parse", scen, p.parse},
	}
	_, err = tr.timed("bench.probes", "", func() error {
		for _, st := range steps {
			if !st.on {
				continue
			}
			if _, err := tr.timed("probe."+st.name, "bench.probes", st.fn); err != nil {
				return fmt.Errorf("probe %s: %w", st.name, err)
			}
		}
		return nil
	})
	return p.vals, err
}

// traffic draws the request stream the way the run does: Batch for the
// one-shot kernel, Bernoulli arrivals + NextFor for the slice loop.
func (p *prober) traffic() error {
	gen := p.sys.gen
	var d time.Duration
	if p.w.stressors == "" {
		want := p.w.packets
		if want > probeLookups {
			want = probeLookups
		}
		d, _ = measure(func() { p.pkts = gen.Batch(want) })
	} else {
		load := p.spec.Load.At(p.spec.Cycles/2, p.spec.Cycles)
		k := p.w.k
		d, _ = measure(func() {
			for len(p.pkts) < probeLookups {
				for vn := 0; vn < k; vn++ {
					if gen.Bernoulli(load) {
						p.pkts = append(p.pkts, gen.NextFor(vn))
					}
				}
			}
		})
	}
	p.vals["traffic.ns_per_packet"] = per(d, len(p.pkts))
	return nil
}

func (p *prober) trieBuild() error {
	nodes := 0
	d, _ := measure(func() {
		for _, t := range p.sys.set.Tables {
			tr := trie.Build(t.Routes)
			tr.LeafPush()
			nodes += tr.Stats().Nodes
		}
	})
	p.vals["trie.build_ms"] = ms(d)
	p.vals["trie.nodes"] = float64(nodes)
	return nil
}

func (p *prober) mergeBuild() error {
	var err error
	nodes := 0
	d, _ := measure(func() {
		var m *merge.Trie
		if m, err = merge.Build(p.sys.set.Tables); err != nil {
			return
		}
		m.LeafPush()
		nodes = m.Stats().Nodes
	})
	p.vals["merge.build_ms"] = ms(d)
	p.vals["merge.nodes"] = float64(nodes)
	return err
}

func (p *prober) flatten() error {
	d, _ := measure(func() {
		for _, img := range p.sys.router.Images() {
			pipeline.Flatten(img)
		}
	})
	p.vals["pipeline.flatten_ms"] = ms(d)
	return nil
}

func (p *prober) referenceBuild() error {
	d, _ := measure(func() {
		for _, t := range p.sys.set.Tables {
			p.refs = append(p.refs, t.Reference())
		}
	})
	p.vals["ip.reference_build_ms"] = ms(d)
	return nil
}

func (p *prober) oracle() error {
	start := time.Now()
	oracleSweep(p.refs, p.pkts)
	p.vals["ip.oracle_ns_per_lookup"] = per(time.Since(start), len(p.pkts))
	return nil
}

// oracleSweep is the verification loop of netsim's kernels: one exhaustive
// scan per packet. It is a plain function so the scan compiles as it does
// there (inside a closure it runs ~15 % slower).
func oracleSweep(refs []*ip.Table, pkts []traffic.Packet) (routed int) {
	for i := range pkts {
		if refs[pkts[i].VN].Lookup(pkts[i].Addr) != ip.NoRoute {
			routed++
		}
	}
	return routed
}

func (p *prober) batch() error {
	var total time.Duration
	var allocs float64
	n := 0
	s := p.sys
	for e, reqs := range engineRequests(s, p.pkts) {
		b := pipeline.NewBatchSim(s.router.Images()[e])
		dst := make([]pipeline.Result, 0, len(reqs))
		var err error
		d, a := measure(func() { dst, _, err = b.RunAppend(dst, reqs, 1) })
		if err != nil {
			return err
		}
		for _, res := range dst {
			p.lastStage = append(p.lastStage, res.LastStage)
		}
		total, allocs, n = total+d, allocs+a, n+len(reqs)
	}
	p.vals["pipeline.batch_ns_per_lookup"] = per(total, n)
	p.vals["pipeline.batch_allocs_per_lookup"] = allocs / float64(n)
	return nil
}

func (p *prober) sim() error {
	var total time.Duration
	var allocs float64
	n := 0
	s := p.sys
	for e, reqs := range engineRequests(s, p.pkts) {
		sim := pipeline.NewSim(s.router.Images()[e])
		var res []pipeline.Result
		var err error
		d, a := measure(func() { res, _, err = sim.Run(reqs, 1) })
		if err != nil {
			return err
		}
		for _, r := range res {
			p.lastStage = append(p.lastStage, r.LastStage)
		}
		total, allocs, n = total+d, allocs+a, n+len(reqs)
	}
	p.vals["pipeline.sim_ns_per_lookup"] = per(total, n)
	p.vals["pipeline.sim_allocs_per_lookup"] = allocs / float64(n)
	return nil
}

// audit replays netsim's post-recovery invariant audit: a stride sample of
// every hosted network's routes against the oracle, per engine.
func (p *prober) audit() error {
	s := p.sys
	merged := s.router.Config().Scheme == core.VM
	imgs := s.router.Images()
	sets := make([][]pipeline.Probe, len(imgs))
	for vn, tbl := range s.set.Tables {
		stride := (tbl.Len() + auditProbeCap - 1) / auditProbeCap
		e, reqVN := vn, 0
		if merged {
			e, reqVN = 0, vn
		}
		for i := 0; i < tbl.Len(); i += stride {
			addr := tbl.Routes[i].Prefix.Addr
			sets[e] = append(sets[e], pipeline.Probe{Addr: addr, VN: reqVN, Want: p.refs[vn].Lookup(addr)})
		}
	}
	n, bad := 0, 0
	d, _ := measure(func() {
		for e, img := range imgs {
			res := pipeline.AuditImage(img, sets[e])
			n += res.Probes
			bad += res.Mismatches
		}
	})
	if bad != 0 {
		return fmt.Errorf("%d audit probes misforwarded on a fresh image", bad)
	}
	p.vals["pipeline.audit_ns_per_probe"] = per(d, n)
	return nil
}

// meter charges one lookup event per probed request to a worker meter, folds
// it into the run meter and renders the report: the per-event cost of energy
// accounting as the harnesses use it.
func (p *prober) meter() error {
	s := p.sys
	model, err := energy.NewModel(s.router.Design())
	if err != nil {
		return err
	}
	engines := len(s.router.Images())
	k := p.w.k
	n := len(p.lastStage)
	d, _ := measure(func() {
		run, worker := energy.NewMeter(model, k), energy.NewMeter(model, k)
		for i, last := range p.lastStage {
			worker.Lookup(i%engines, i%k, last)
		}
		run.Fold(worker)
		_, err = run.Report(int64(n) * minPacketBits)
	})
	p.vals["energy.meter_ns_per_event"] = per(d, n)
	return err
}

// churn applies the workload's own churn batches through the control plane:
// generate, apply, hitless prepare (coalesce, apply, pinned recompile, diff)
// and commit, with Apply and Diff also timed on their own.
func (p *prober) churn() error {
	s := p.sys
	mgr, err := ctrl.New(s.router.Config(), s.set.Tables)
	if err != nil {
		return err
	}
	cur, err := mgr.PinnedImages()
	if err != nil {
		return err
	}
	batches := p.spec.Churn.Batches
	if batches > probeBatches {
		batches = probeBatches
	}
	var churn, apply, diff, hitless time.Duration
	writes := 0
	for b := 0; b < batches; b++ {
		vn := b % p.w.k
		tbl := mgr.Tables()[vn]
		var ops []update.Op
		d, _ := measure(func() {
			ops, err = update.Churn(tbl, p.spec.Churn.Ops, update.ChurnConfig{Seed: p.spec.Seed + int64(b)})
		})
		if err != nil {
			return err
		}
		churn += d
		d, _ = measure(func() { update.Apply(tbl, update.Coalesce(ops)) })
		apply += d

		var h *ctrl.HitlessUpdate
		d, _ = measure(func() { h, err = mgr.BeginHitlessUpdate(vn, ops) })
		if err != nil {
			return err
		}
		hitless += d
		d, _ = measure(func() { _, err = update.Diff(cur[h.Engine()], h.Image()) })
		if err != nil {
			return err
		}
		diff += d
		cur[h.Engine()] = h.Image()
		writes += h.Writes()
		d, _ = measure(func() { _, err = h.Commit() })
		if err != nil {
			return err
		}
		hitless += d
	}
	n := float64(batches)
	p.vals["update.churn_ms_per_batch"] = ms(churn) / n
	p.vals["update.apply_ms_per_batch"] = ms(apply) / n
	p.vals["update.diff_ms_per_batch"] = ms(diff) / n
	p.vals["update.writes_per_batch"] = float64(writes) / n
	p.vals["ctrl.hitless_ms_per_batch"] = ms(hitless) / n
	return nil
}

func (p *prober) journal() error {
	j := ctrl.NewJournal()
	var err error
	d, _ := measure(func() {
		for i := int64(0); i < probeOps && err == nil; i++ {
			var tok *ctrl.OpToken
			if tok, err = j.Begin(ctrl.OpCommit, 0, 0, i); err != nil {
				return
			}
			tok.Apply(-1, journalWrites, i)
			err = tok.Commit(i)
		}
	})
	p.vals["ctrl.journal_ns_per_op"] = per(d, probeOps)
	return err
}

func (p *prober) governor() error {
	s := p.sys
	design := s.router.Design()
	g, err := governor.New(governor.Config{CapWatts: p.spec.CapW, DeviceCapWatts: p.spec.DeviceCapW},
		governor.Plant{Design: design, Scheme: p.w.scheme, K: p.w.k})
	if err != nil {
		return err
	}
	engines := len(design.Engines)
	util := make([]float64, engines)
	for e := range util {
		util[e] = 0.5
	}
	reloading := make([]bool, engines)
	d, _ := measure(func() {
		for i := int64(0); i < probeOps; i++ {
			g.Observe(governor.Sample{Cycle: i * p.spec.Slice, Cycles: p.spec.Slice, Util: util, Reloading: reloading})
		}
	})
	p.vals["governor.ns_per_observe"] = per(d, probeOps)
	return nil
}

func (p *prober) estimate() error {
	design := p.sys.router.Design()
	var err error
	d, _ := measure(func() {
		for i := 0; i < probeOps && err == nil; i++ {
			_, err = power.Estimate(design)
		}
	})
	p.vals["power.estimate_ns"] = per(d, probeOps)
	return err
}

// place runs the fleet placer with the runner's estimator: a memoised
// core.Build of each candidate tenant set plus its model power.
func (p *prober) place() error {
	s := p.sys
	cache := map[string]float64{}
	est := func(sch core.Scheme, vns []int) (float64, error) {
		key := fmt.Sprintf("%d|%v", int(sch), vns)
		if w, ok := cache[key]; ok {
			return w, nil
		}
		cfg := s.router.Config()
		cfg.Scheme, cfg.K = sch, len(vns)
		tables := make([]*rib.Table, len(vns))
		for i, vn := range vns {
			tables[i] = s.set.Tables[vn]
		}
		rt, err := core.Build(cfg, tables)
		if err != nil {
			return 0, err
		}
		bd, err := rt.ModelPower()
		if err != nil {
			return 0, err
		}
		cache[key] = bd.Total()
		return cache[key], nil
	}
	demands := map[int]fleet.Demand{}
	for vn := 0; vn < p.w.k; vn++ {
		demands[vn] = fleet.Demand{LoadFrac: p.spec.Load.P0}
	}
	cfg := fleet.Config{
		Devices: p.spec.Fleet.Devices, Spares: p.spec.Fleet.Spares, SlotsPerDevice: 15,
		DeviceCapWatts: p.spec.DeviceCapW, CapWatts: p.spec.CapW,
	}
	var err error
	d, _ := measure(func() { _, err = fleet.Place(cfg, demands, est) })
	p.vals["fleet.place_ms"] = ms(d)
	return err
}

func (p *prober) parse() error {
	sp := p.w.spec()
	const n = 2000
	var err error
	d, _ := measure(func() {
		for i := 0; i < n && err == nil; i++ {
			_, err = scenario.Parse(sp)
		}
	})
	p.vals["scenario.parse_us"] = per(d, n) / 1e3
	return err
}
