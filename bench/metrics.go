package main

import (
	"fmt"
	"sort"
	"strings"
)

// Time bases: host is what the simulator takes to run, sim what the modelled
// design would do (deterministic per commit and seed), count a tally read
// from a report or an obs counter (also deterministic).
const (
	host  = "host time"
	sim   = "simulated time"
	count = "count"
)

// metricDef is one named metric. bound is the share of the parent's median
// by which an end-to-end metric may worsen before it counts as a regression;
// per-layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	base   string
	better string
	bound  float64
}

// endToEnd lists what a user of the system sees. Every workload emits every
// one of them (BENCHMARK.json's contract), so the three the issue defined on
// a single workload — mttr_cycles, model_err_pct, trie_nodes_err_pct — are
// reported with the per-layer set instead; see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", host, "lower", 0.25},
	{"wall_s", "s", host, "lower", 0.25},
	{"lookups_per_s", "1/s", host, "higher", 0.25},
	{"alloc_mb", "MiB", host, "lower", 0.12},
	{"live_heap_mb", "MiB", host, "lower", 0.25},
	{"delivered_frac", "ratio", sim, "higher", 0.12},
	{"pj_per_bit", "pJ/bit", sim, "lower", 0.15},
	{"availability_min", "ratio", sim, "higher", 0.25},
}

var perLayer = []metricDef{
	{name: "mttr_cycles", unit: "cycles", base: sim, better: "lower"},
	{name: "model_err_pct", unit: "%", base: sim, better: "lower"},
	{name: "trie_nodes_err_pct", unit: "%", base: sim, better: "lower"},
	{name: "rib.generate_ms", unit: "ms", base: host, better: "lower"},
	{name: "rib.routes", unit: "count", base: count, better: "higher"},
	{name: "trie.build_ms", unit: "ms", base: host, better: "lower"},
	{name: "trie.nodes", unit: "count", base: count, better: "lower"},
	{name: "merge.build_ms", unit: "ms", base: host, better: "lower"},
	{name: "merge.nodes", unit: "count", base: count, better: "lower"},
	{name: "core.build_ms", unit: "ms", base: host, better: "lower"},
	{name: "core.build_allocs", unit: "count", base: host, better: "lower"},
	{name: "pipeline.flatten_ms", unit: "ms", base: host, better: "lower"},
	{name: "pipeline.image_words", unit: "count", base: count, better: "lower"},
	{name: "pipeline.batch_ns_per_lookup", unit: "ns", base: host, better: "lower"},
	{name: "pipeline.batch_allocs_per_lookup", unit: "count", base: host, better: "lower"},
	{name: "pipeline.sim_ns_per_lookup", unit: "ns", base: host, better: "lower"},
	{name: "pipeline.sim_allocs_per_lookup", unit: "count", base: host, better: "lower"},
	{name: "pipeline.audit_ns_per_probe", unit: "ns", base: host, better: "lower"},
	{name: "pipeline.cycles_simulated", unit: "count", base: count, better: "lower"},
	{name: "pipeline.lookups_resolved", unit: "count", base: count, better: "higher"},
	{name: "pipeline.audit_probes", unit: "count", base: count, better: "lower"},
	{name: "ip.oracle_ns_per_lookup", unit: "ns", base: host, better: "lower"},
	{name: "ip.oracle_share_est", unit: "ratio", base: host, better: "lower"},
	{name: "ip.reference_build_ms", unit: "ms", base: host, better: "lower"},
	{name: "traffic.ns_per_packet", unit: "ns", base: host, better: "lower"},
	{name: "netsim.new_ms", unit: "ms", base: host, better: "lower"},
	{name: "netsim.run_ms", unit: "ms", base: host, better: "lower"},
	{name: "netsim.ns_per_packet", unit: "ns", base: host, better: "lower"},
	{name: "netsim.residual_frac", unit: "ratio", base: host, better: "lower"},
	{name: "netsim.offered", unit: "count", base: count, better: "higher"},
	{name: "netsim.delivered", unit: "count", base: count, better: "higher"},
	{name: "netsim.dropped", unit: "count", base: count, better: "lower"},
	{name: "netsim.faulted_lookups", unit: "count", base: count, better: "lower"},
	{name: "netsim.backlog_peak", unit: "count", base: count, better: "lower"},
	{name: "scenario.parse_us", unit: "us", base: host, better: "lower"},
	{name: "scenario.ns_per_slice", unit: "ns", base: host, better: "lower"},
	{name: "scenario.slices", unit: "count", base: count, better: "lower"},
	{name: "scenario.drain_slices", unit: "count", base: count, better: "lower"},
	{name: "energy.meter_ns_per_event", unit: "ns", base: host, better: "lower"},
	{name: "energy.total_fj", unit: "count", base: count, better: "lower"},
	{name: "update.churn_ms_per_batch", unit: "ms", base: host, better: "lower"},
	{name: "update.apply_ms_per_batch", unit: "ms", base: host, better: "lower"},
	{name: "update.diff_ms_per_batch", unit: "ms", base: host, better: "lower"},
	{name: "update.writes_per_batch", unit: "count", base: count, better: "lower"},
	{name: "ctrl.hitless_ms_per_batch", unit: "ms", base: host, better: "lower"},
	{name: "ctrl.journal_ns_per_op", unit: "ns", base: host, better: "lower"},
	{name: "ctrl.journal_ops", unit: "count", base: count, better: "lower"},
	{name: "ctrl.scrubs_completed", unit: "count", base: count, better: "higher"},
	{name: "ctrl.hitless_updates", unit: "count", base: count, better: "higher"},
	{name: "ctrl.journal_rollbacks", unit: "count", base: count, better: "lower"},
	{name: "ctrl.journal_replays", unit: "count", base: count, better: "lower"},
	{name: "faults.seu_injected", unit: "count", base: count, better: "lower"},
	{name: "governor.ns_per_observe", unit: "ns", base: host, better: "lower"},
	{name: "governor.escalations", unit: "count", base: count, better: "lower"},
	{name: "power.estimate_ns", unit: "ns", base: host, better: "lower"},
	{name: "fleet.place_ms", unit: "ms", base: host, better: "lower"},
	{name: "fleet.migrations", unit: "count", base: count, better: "higher"},
	{name: "fleet.migration_attempts", unit: "count", base: count, better: "lower"},
	{name: "fleet.degraded", unit: "count", base: count, better: "lower"},
	{name: "fleet.spares_activated", unit: "count", base: count, better: "lower"},
	{name: "obs.dump_ms", unit: "ms", base: host, better: "lower"},
	{name: "obs.series_rows", unit: "count", base: count, better: "higher"},
	{name: "obs.events", unit: "count", base: count, better: "higher"},
	{name: "report.render_ms", unit: "ms", base: host, better: "lower"},
	{name: "sweep.workers", unit: "count", base: host, better: "higher"},
	{name: "sweep.j1_over_jn", unit: "ratio", base: host, better: "higher"},
	{name: "bench.trace_overhead_frac", unit: "ratio", base: host, better: "lower"},
	{name: "bench.peak_rss_mb", unit: "MiB", base: host, better: "lower"},
	{name: "bench.cli_wall_s", unit: "s", base: host, better: "lower"},
}

// value is one reported number. A host timing is the better quartile of n
// timed reps (see bestQuartile) with their min and max; simulated metrics and
// counts repeat exactly, so n readings collapse to one.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// bestQuartile is the quartile of xs on the metric's better side: the lower
// one of a cost, the upper one of a rate (linear interpolation between order
// statistics). Every rep of a run is the same computation — same seed, same
// digest — so the reps differ only by what the host added, and it only ever
// adds: a neighbour on the shared machine slows a few reps or, for half a
// minute at a time, most of them. The median follows whichever mode holds
// more than half the reps and so jumps between runs; the better quartile
// keeps reading the undisturbed cost until three reps in four are disturbed.
func bestQuartile(xs []float64, better string) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := float64(len(s)-1) * 0.25
	if better == "higher" {
		h = float64(len(s)-1) * 0.75
	}
	i := int(h)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-float64(i))*(s[i+1]-s[i])
}

// summarise reports the better quartile of xs with its range.
func summarise(d metricDef, xs ...float64) value {
	v := value{Value: bestQuartile(xs, d.better), Unit: d.unit, Min: xs[0], Max: xs[0], N: len(xs)}
	for _, x := range xs {
		if x < v.Min {
			v.Min = x
		}
		if x > v.Max {
			v.Max = x
		}
	}
	return v
}

// table renders the named metrics, in definition order, for people.
func table(title string, defs []metricDef, vals map[string]value) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "  %-34s %16.6g %-7s [%s", d.name, v.Value, d.unit, d.base)
		if v.N > 1 {
			fmt.Fprintf(&b, ", min %.6g max %.6g n=%d", v.Min, v.Max, v.N)
		}
		fmt.Fprintf(&b, "]\n")
	}
	return b.String()
}
