package main

import (
	"fmt"

	"vrpower/internal/core"
)

// workload is one benchmark input set. The sizes are pinned: a later change
// is judged against numbers measured at exactly these shapes.
type workload struct {
	name string

	scheme   core.Scheme
	k        int
	prefixes int

	// packets > 0 selects the one-shot System.Forward kernel.
	packets int
	// stressors is the -scenario spec minus cycles/queue/seed, which come
	// from the fields below and from -seed.
	stressors string
	cycles    int64
	queue     int
}

var workloads = []workload{
	{
		name: "forward_paper",
		// One-shot System.Forward over VM K=8 at the paper's 3725 prefixes/VN:
		// the only path on the batched engine; the scan oracle dominates, so it
		// bypasses slice-loop work and targets oracle, meter and distributor
		// work.
		scheme: core.VM, k: 8, prefixes: 3725, packets: 250000,
	},
	{
		name: "load_small",
		// Plain open-loop scenario on VS K=4 with 400-prefix tables: the oracle
		// is small, so scalar Sim stepping, traffic, queues, the meter and
		// scenario.Engine glue do the work; slice-runner engine work must show
		// here.
		scheme: core.VS, k: 4, prefixes: 400,
		stressors: "load=const:0.9", cycles: 524288, queue: 32,
	},
	{
		name: "chaos_vs",
		// Every single-device stressor in one VS K=3 run (surge, SEUs, churn, a
		// biting power cap, four chaos kinds): the composed end-to-end the
		// roadmap names, with scrub rebuilds, journal recovery and governor in
		// the loop.
		scheme: core.VS, k: 3, prefixes: 3725,
		stressors: "load=surge:0.3:0.9,faults=seu:5e-11,churn=8x24,power-cap=4.97,chaos=crash:3+stall:1+torn:1+falsepos:1",
		cycles:    262144, queue: 32,
	},
	{
		name: "fleet_failover",
		// Two-device VS K=8 fleet plus a spare under device crashes, flaky
		// installs and a brownout: the sixth runner, with core.Build and
		// AuditImage inside the timed run; runner-collapse work is judged here
		// against chaos_vs.
		scheme: core.VS, k: 8, prefixes: 3725,
		stressors: "load=const:0.4,fleet=2:spare=1,chaos=devcrash:2+flaky:2+brownout:1",
		cycles:    131072, queue: 32,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// specSeed pins every scenario's stressor schedule (SEU times, chaos deck,
// crash cycles, churn ops). -seed varies the tables and the traffic; the
// fault schedule is part of the workload's shape, because across schedules
// delivery and wall time differ by more than any bound could absorb and one
// deck in ten never completes.
const specSeed = 11

// spec is the full -scenario string for this workload, or "" for the
// workloads that run no scenario.
func (w workload) spec() string {
	if w.stressors == "" {
		return ""
	}
	return fmt.Sprintf("%s,cycles=%d,queue=%d,seed=%d", w.stressors, w.cycles, w.queue, specSeed)
}

// shrunk divides the run length (never K, scheme or spec shape) so tests can
// execute every workload with all checks on in seconds.
func (w workload) shrunk(div int) workload {
	w.packets /= div
	w.cycles /= int64(div)
	return w
}
