package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"vrpower/internal/sweep"
)

const (
	// minReps is the fewest reps a run times, whatever -seconds says.
	minReps = 3
	// traceBaseReps is how many untraced reps a traced run times before the
	// traced one, to state the tracing overhead against.
	traceBaseReps = 2
	// minCoverage is the share of bench.rep its child spans must explain.
	minCoverage = 0.95
)

// result is everything one run of one workload measured.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Workers  int    `json:"workers"`
	// Ops counts operations (one rep each); FailedOps those that failed a
	// check, with the first reason each in Failures.
	Ops       int      `json:"ops"`
	FailedOps int      `json:"failed_ops"`
	Failures  []string `json:"failures,omitempty"`
	// HarnessErrors are failed checks that belong to no single operation:
	// CLI parity, span coverage, a probe that errored.
	HarnessErrors []string `json:"harness_errors,omitempty"`
	Digest        string   `json:"digest"`
	// Sim is rep 0's simulated metrics and counts, exactly as computed.
	Sim      map[string]float64 `json:"sim"`
	EndToEnd map[string]value   `json:"end_to_end"`
	PerLayer map[string]value   `json:"per_layer,omitempty"`
	Trace    string             `json:"trace,omitempty"`
}

func (r *result) correct() bool { return r.FailedOps == 0 && len(r.HarnessErrors) == 0 }

func workerCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// runWorkload measures one workload in this process: untraced reps for about
// `seconds` of host time, then — traced — one rep under spans, one at a single
// sweep worker, the layer probes and the CLI parity run. The first rep is the
// warm-up: it is checked like any other and sets the digest the rest must
// match, but its timings (first-touch page faults, heap growth, cold caches)
// stay out of the reported timings. root is the checkout root.
func runWorkload(root string, w workload, seed int64, seconds float64, traced bool) *result {
	workers := workerCount()
	runtime.GOMAXPROCS(workers)
	sweep.SetWorkers(workers)
	res := &result{Workload: w.name, Seed: seed, Workers: workers}

	budget := time.Duration(seconds * float64(time.Second))
	floor := 1 + minReps
	if traced {
		budget, floor = 0, 1+traceBaseReps
	}
	var reps []repOut
	for start := time.Now(); ; {
		if n := len(reps); n > 0 {
			reps[n-1].keep = nil
		}
		repStart := time.Now()
		reps = append(reps, runRep(w, seed, nil))
		// Stop before a rep that would overrun the budget.
		if len(reps) >= floor && time.Since(start)+time.Since(repStart) > budget {
			break
		}
	}
	last := &reps[len(reps)-1]
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(last.keep)
	last.keep = nil

	res.Digest, res.Sim = reps[0].digest, reps[0].sim
	for i := range reps {
		res.record(fmt.Sprintf("rep %d", i), reps[i])
	}
	res.EndToEnd = endToEndValues(reps[1:], mib(m.HeapAlloc))
	if !traced {
		return res
	}

	tr := newTracer(w.name, len(reps))
	trRep := runRep(w, seed, tr)
	res.record("traced rep", trRep)
	sweep.SetWorkers(1)
	j1 := runRep(w, seed, nil)
	sweep.SetWorkers(workers)
	res.record("rep at -j1", j1)

	probes, err := runProbes(w, seed, tr)
	if err != nil {
		res.HarnessErrors = append(res.HarnessErrors, err.Error())
	}
	cliWall, err := cliParity(root, w, seed, workers, trRep)
	if err != nil {
		res.HarnessErrors = append(res.HarnessErrors, "cli parity: "+err.Error())
	}
	if c := tr.covered("bench.rep"); c < minCoverage {
		res.HarnessErrors = append(res.HarnessErrors,
			fmt.Sprintf("child spans cover %.3f of bench.rep, want >= %.2f", c, minCoverage))
	}
	res.Trace = filepath.Join("bench", "out", w.name+".trace.json")
	if err := tr.write(filepath.Join(root, res.Trace)); err != nil {
		res.HarnessErrors = append(res.HarnessErrors, "trace file: "+err.Error())
	}

	pl := perLayerValues(trRep, probes)
	pl["sweep.workers"] = float64(workers)
	pl["sweep.j1_over_jn"] = j1.wall.Seconds() / trRep.wall.Seconds()
	pl["bench.trace_overhead_frac"] = trRep.wall.Seconds()/res.EndToEnd["wall_s"].Value - 1
	pl["bench.peak_rss_mb"] = peakRSSMiB()
	pl["bench.cli_wall_s"] = cliWall
	res.PerLayer = map[string]value{}
	for _, d := range perLayer {
		res.PerLayer[d.name] = summarise(d, pl[d.name])
	}
	return res
}

// record counts one operation and checks it against rep 0: same seed, same
// commit, so any digest difference is nondeterminism.
func (r *result) record(what string, rep repOut) {
	r.Ops++
	fail := rep.fail
	if fail == "" && rep.digest != r.Digest {
		fail = fmt.Sprintf("digest %s differs from rep 0's %s", rep.digest, r.Digest)
	}
	if fail != "" {
		r.FailedOps++
		r.Failures = append(r.Failures, what+": "+fail)
	}
}

func endToEndValues(reps []repOut, liveHeapMiB float64) map[string]value {
	col := func(f func(repOut) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return xs
	}
	simv := reps[0].sim
	vals := map[string][]float64{
		"setup_s":       col(func(r repOut) float64 { return r.setup.Seconds() }),
		"wall_s":        col(func(r repOut) float64 { return r.wall.Seconds() }),
		"lookups_per_s": col(func(r repOut) float64 { return float64(r.packets) / r.wall.Seconds() }),
		"alloc_mb":      col(func(r repOut) float64 { return mib(r.allocBytes) }),
		"live_heap_mb":  {liveHeapMiB},
	}
	out := map[string]value{}
	for _, d := range endToEnd {
		if xs, ok := vals[d.name]; ok {
			out[d.name] = summarise(d, xs...)
		} else {
			out[d.name] = summarise(d, simv[d.name])
		}
	}
	return out
}

// perLayerValues turns the traced rep's spans and counts and the probes' unit
// costs into the per-layer metrics.
func perLayerValues(rep repOut, probes map[string]float64) map[string]float64 {
	pl := map[string]float64{}
	for _, d := range perLayer {
		if v, ok := rep.sim[d.name]; ok {
			pl[d.name] = v
		}
		if v, ok := probes[d.name]; ok {
			pl[d.name] = v
		}
	}
	run := float64(rep.phase["netsim.run"].Nanoseconds())
	s := rep.sim
	pl["rib.generate_ms"] = ms(rep.phase["rib.generate"])
	pl["core.build_ms"] = ms(rep.phase["core.build"])
	pl["core.build_allocs"] = float64(rep.buildAllocs)
	pl["netsim.new_ms"] = ms(rep.phase["netsim.new"])
	pl["netsim.run_ms"] = run / 1e6
	pl["netsim.ns_per_packet"] = run / s["netsim.offered"]
	pl["scenario.ns_per_slice"] = run / (s["scenario.slices"] + s["scenario.drain_slices"])
	pl["obs.dump_ms"] = ms(rep.phase["obs.dump"])
	pl["report.render_ms"] = ms(rep.phase["report.render"])

	// What the probed layers would cost the run at their unit prices; the
	// rest is the runner's own glue (queues, slice loop, bookkeeping).
	oracle := probes["ip.oracle_ns_per_lookup"] * s["netsim.delivered"]
	engine := probes["pipeline.sim_ns_per_lookup"] + probes["pipeline.batch_ns_per_lookup"]
	explained := oracle +
		engine*s["energy.events"] +
		probes["traffic.ns_per_packet"]*s["netsim.offered"] +
		probes["energy.meter_ns_per_event"]*s["energy.events"] +
		(probes["update.churn_ms_per_batch"]+probes["ctrl.hitless_ms_per_batch"])*1e6*s["update.batches"]
	pl["ip.oracle_share_est"] = oracle / run
	pl["netsim.residual_frac"] = 1 - explained/run
	return pl
}

// peakRSSMiB reads the process's high-water resident set from /proc.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
