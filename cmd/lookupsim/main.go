// Command lookupsim builds a router with real compiled lookup engines,
// drives it with generated traffic, cycle-accurately simulates every
// pipeline, and cross-checks each forwarded packet against the reference
// longest-prefix match — the end-to-end correctness harness. Independent
// engines simulate in parallel on a bounded worker pool; -j sizes it.
//
// Usage:
//
//	lookupsim -scheme VM -k 4 [-prefixes 1000] [-share 0.5] [-seed 1]
//	          [-dist uniform|zipf]
//	          [-packets 10000] [-frames]
//	          [-scenario load=...,faults=...,kill=...,churn=...,chaos=...,fleet=N:spare=M,power-cap=...]
//	          [-trace-sample R] [-trace-buf N] [-trace-out F]
//	          [-timeseries-out F] [-events-out F] [-events-level L]
//	          [-http :addr] [-http-hold]
//	          [-j N] [-stats]
//
// Two modes. Without -scenario the run is a closed loop: -packets packets
// (or, with -frames, wire-format frames through parse → lookup → edit) are
// resolved as one batch and every next hop is checked. With -scenario SPEC
// it is a slice-quantised open loop in which a comma-separated key=value
// spec composes a load shape, SEU faults, an engine kill, update churn,
// control-plane chaos, a fleet of devices and power caps into ONE run, e.g.
//
//	lookupsim -scheme VS -k 4 \
//	  -scenario load=surge,faults=seu:1e-9,churn=100x50,chaos=crash:2+stall:1,power-cap=45
//
// and the report covers every axis at once: per-VNID delivery and
// availability, SEU/scrub lifecycle and MTTR, churn batch outcomes and the
// throughput they left, journaled recovery (rollbacks/replays, watchdog
// ladder, invariant audits), the governor's control law and ladder, and the
// run's attributed energy. A section prints when the thing it describes ran;
// no flag asks for one. The run exits nonzero on any oracle mismatch, any
// misforwarding audit probe, or work left outstanding. The spec owns the
// stressor and power knobs (cycles=, seed=, queue=, power-cap-lift=
// included), and the closed loop's -packets / -frames beside it are refused;
// docs/CLI.md has the grammar and the table from the former -load / -faults
// / -churn / -power-cap* flags to specs.
//
// Telemetry: -trace-sample R flight-traces about fraction R of all lookups
// (deterministically — same seeds, same -j or not, same traces) into a ring
// of -trace-buf entries, dumped as JSONL to -trace-out. -timeseries-out
// writes the slice-quantised power/throughput/availability series as CSV;
// -events-out the structured control-plane event log as JSONL ("-" means
// stdout for any of the three). -http serves /metrics (Prometheus text),
// /timeseries.csv, /traces.jsonl, /events.jsonl and /debug/pprof/ live
// during the run; -http-hold keeps the process (and the endpoints) up after
// the run finishes, for scraping. Same seeds, same -j or not, same bytes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"vrpower/internal/core"
	"vrpower/internal/energy"
	"vrpower/internal/governor"
	"vrpower/internal/netsim"
	"vrpower/internal/obs"
	"vrpower/internal/report"
	"vrpower/internal/rib"
	"vrpower/internal/scenario"
	"vrpower/internal/sweep"
	"vrpower/internal/traffic"
)

// options collects the parsed flags and the streams the run writes to.
type options struct {
	scheme   string
	k        int
	packets  int
	prefixes int
	share    float64
	dist     string
	frames   bool
	seed     int64
	scenario string

	traceSample   float64
	traceBuf      int
	traceOut      string
	timeseriesOut string
	eventsOut     string
	eventsLevel   obs.Level
	httpAddr      string
	httpHold      bool

	jobs  int
	stats bool

	stdout, stderr io.Writer
}

// telemetry builds the run's observer bundle, or returns nil when no
// telemetry flag asked for one.
func (o *options) telemetry() *netsim.Telemetry {
	if o.traceSample <= 0 && o.traceOut == "" && o.timeseriesOut == "" &&
		o.eventsOut == "" && o.httpAddr == "" {
		return nil
	}
	t := &netsim.Telemetry{
		Series: obs.NewTimeSeries(),
		Events: obs.NewEventLog(o.eventsLevel),
	}
	if o.traceSample > 0 {
		t.Sampler = obs.NewTraceSampler(o.traceSample, o.seed)
		t.Traces = obs.NewTraceRing(o.traceBuf)
	}
	return t
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command over its arguments and streams: 0 on a clean run,
// 1 on a domain error (a mismatch, outstanding work, an unbuildable router),
// 2 on a flag the command does not have or a value a flag cannot take.
func run(args []string, stdout, stderr io.Writer) int {
	o := options{eventsLevel: obs.LevelInfo, stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("lookupsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.scheme, "scheme", "VM", "router scheme: NV, VS or VM")
	fs.IntVar(&o.k, "k", 4, "number of virtual networks")
	fs.IntVar(&o.packets, "packets", 10000, "packets to forward in a closed-loop run")
	fs.IntVar(&o.prefixes, "prefixes", 1000, "routes per network")
	fs.Float64Var(&o.share, "share", 0.5, "prefix-space share across networks")
	fs.StringVar(&o.dist, "dist", "uniform", "traffic distribution: uniform or zipf")
	fs.BoolVar(&o.frames, "frames", false, "closed loop over the full frame path (parse -> lookup -> edit) instead of bare lookups")
	fs.StringVar(&o.scenario, "scenario", "", "open-loop composed scenario: comma-separated key=value stressors (load=, faults=, kill=, churn=, chaos=, fleet=, power-cap=, ...; see docs/CLI.md)")
	fs.Float64Var(&o.traceSample, "trace-sample", 0, "flight-trace sampling rate in [0,1] (0 = tracing off)")
	fs.IntVar(&o.traceBuf, "trace-buf", 4096, "flight-trace ring capacity (rounded up to a power of two)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write sampled flight traces as JSONL to this file (- = stdout)")
	fs.StringVar(&o.timeseriesOut, "timeseries-out", "", "write the per-slice telemetry series as CSV to this file (- = stdout)")
	fs.StringVar(&o.eventsOut, "events-out", "", "write the structured event log as JSONL to this file (- = stdout)")
	fs.Func("events-level", "minimum event `level` to keep: debug, info (the default), warn or error", func(s string) (err error) {
		o.eventsLevel, err = obs.ParseLevel(s)
		return err
	})
	fs.StringVar(&o.httpAddr, "http", "", "serve /metrics, /timeseries.csv, /traces.jsonl, /events.jsonl and /debug/pprof/ on this address (e.g. :9090)")
	fs.BoolVar(&o.httpHold, "http-hold", false, "keep the -http endpoints up after the run finishes (Ctrl-C to exit)")
	fs.IntVar(&o.jobs, "j", 0, "worker-pool size for set-up and the engines (0 = GOMAXPROCS); results are identical at any value")
	fs.BoolVar(&o.stats, "stats", false, "print run instrumentation to stderr on exit")
	fs.Int64Var(&o.seed, "seed", 1, "seed for tables and traffic")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// A value a flag cannot take is refused like a flag the command does not
	// have, never read as some default. (NaN fails every comparison.) The
	// closed loop's flags would go unread beside -scenario, so they are
	// refused there too.
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	for _, c := range []struct {
		ok         bool
		flag, want string
		val        any
	}{
		{o.k >= 1, "k", "a count >= 1", o.k},
		{o.prefixes >= 1, "prefixes", "a count >= 1", o.prefixes},
		{o.share >= 0 && o.share <= 1, "share", "a fraction in [0,1]", o.share},
		{o.packets >= 0, "packets", "a count >= 0", o.packets},
		{!given["packets"] || o.scenario == "", "packets", "no -packets beside -scenario (closed loop only)", o.packets},
		{!given["frames"] || o.scenario == "", "frames", "no -frames beside -scenario (closed loop only)", o.frames},
		{o.dist == "uniform" || o.dist == "zipf", "dist", "uniform or zipf", fmt.Sprintf("%q", o.dist)},
		{o.traceSample >= 0 && o.traceSample <= 1, "trace-sample", "a rate in [0,1]", o.traceSample},
		{o.traceBuf >= 0, "trace-buf", "a capacity >= 0", o.traceBuf},
		{o.jobs >= 0, "j", "a worker count >= 0 (0 = GOMAXPROCS)", o.jobs},
	} {
		if !c.ok {
			fmt.Fprintf(stderr, "invalid value %v for flag -%s: want %s\n", c.val, c.flag, c.want)
			fs.Usage()
			return 2
		}
	}

	sweep.SetWorkers(o.jobs)
	// Scope -stats to this run: flag parsing and future multi-run drivers
	// share the process-wide registry, so report the delta, not the totals.
	snap := obs.TakeSnapshot()
	err := o.execute()
	if o.stats {
		fmt.Fprint(stderr, obs.ReportSince(snap))
	}
	if err != nil {
		fmt.Fprintln(stderr, "lookupsim:", err)
		return 1
	}
	return 0
}

// execute builds the router and its traffic, attaches telemetry, and runs
// the mode the flags selected.
func (o *options) execute() error {
	var scheme core.Scheme
	switch o.scheme {
	case "NV":
		scheme = core.NV
	case "VS":
		scheme = core.VS
	case "VM":
		scheme = core.VM
	default:
		return fmt.Errorf("scheme %q: want NV, VS or VM", o.scheme)
	}
	var spec scenario.Spec
	if o.scenario != "" {
		var err error
		if spec, err = scenario.Parse(o.scenario); err != nil {
			return err
		}
	}

	set, err := rib.GenerateVirtualSet(o.k, o.prefixes, o.share, o.seed)
	if err != nil {
		return err
	}
	r, err := core.Build(core.Config{Scheme: scheme, K: o.k, ClockGating: true}, set.Tables)
	if err != nil {
		return err
	}
	sys, err := netsim.New(r, set.Tables)
	if err != nil {
		return err
	}

	tcfg := traffic.Config{K: o.k, Seed: o.seed + 1, Addr: traffic.RoutedAddr, Tables: set.Tables}
	if o.dist == "zipf" {
		tcfg.Dist = traffic.Zipf
	}
	gen, err := traffic.New(tcfg)
	if err != nil {
		return err
	}

	tel := o.telemetry()
	if tel != nil {
		sys.SetTelemetry(tel)
	}
	var srv *obs.Server
	if o.httpAddr != "" {
		srv, err = obs.Serve(o.httpAddr, obs.TelemetryMux(tel.Series, tel.Traces, tel.Events))
		if err != nil {
			return err
		}
		fmt.Fprintf(o.stderr, "lookupsim: telemetry at http://%s/\n", srv.Addr())
	}
	switch {
	case o.scenario != "":
		err = o.runScenario(sys, gen, scheme, spec)
	case o.frames:
		err = o.runFrames(sys, gen, scheme, r)
	default:
		err = o.runForward(sys, gen, scheme, r)
	}
	if tel != nil {
		if derr := o.dumpTelemetry(tel); derr != nil && err == nil {
			err = derr
		}
	}
	if srv != nil {
		if o.httpHold {
			fmt.Fprintln(o.stderr, "lookupsim: run finished; holding -http endpoints open (-http-hold), Ctrl-C to exit")
			select {}
		}
		// Graceful teardown with a deadline: repeated smoke runs must not
		// collide on the port.
		if serr := srv.Shutdown(5 * time.Second); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// runFrames is the closed loop over the full data plane: the frame table,
// then the lookup run over the steered frames as runForward prints it.
func (o *options) runFrames(sys *netsim.System, gen *traffic.Generator, scheme core.Scheme, r *core.Router) error {
	fr, err := gen.Frames(o.packets)
	if err != nil {
		return err
	}
	frep, err := sys.ForwardFrames(fr)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("%s frame path, K=%d, %d frames", scheme, o.k, frep.Frames),
		"Quantity", "Value")
	t.AddF("Forwarded", frep.Forwarded)
	t.AddF("Dropped: bad parse / unknown VN / TTL",
		fmt.Sprintf("%d / %d / %d", frep.BadParse, frep.UnknownVN, frep.TTLExpired))
	o.print(t)
	return o.printForward(frep.Report, scheme, r)
}

// runForward is the closed loop over bare lookups.
func (o *options) runForward(sys *netsim.System, gen *traffic.Generator, scheme core.Scheme, r *core.Router) error {
	rep, err := sys.Forward(gen.Batch(o.packets))
	if err != nil {
		return err
	}
	return o.printForward(rep, scheme, r)
}

// printForward renders a closed-loop run's forwarding and energy tables and
// fails the run on any mismatch.
func (o *options) printForward(rep netsim.Report, scheme core.Scheme, r *core.Router) error {
	t := report.NewTable(
		fmt.Sprintf("%s forwarding, K=%d, %d packets", scheme, o.k, rep.Packets),
		"Quantity", "Value")
	t.AddF("Mismatches vs reference LPM", rep.Mismatches)
	t.AddF("No-route packets", rep.NoRoute)
	t.AddF("Clock (MHz)", fmt.Sprintf("%.1f", r.Fmax()))
	t.AddF("Aggregate throughput (Gbps)", fmt.Sprintf("%.1f", r.ThroughputGbps()))
	for e := range rep.PerEngine {
		st := rep.PerEngine[e]
		t.AddF(fmt.Sprintf("Engine %d load / occupancy / activity", e),
			fmt.Sprintf("%.3f / %.3f / %.3f", rep.EngineLoad[e], st.Occupancy(), st.Utilization()))
	}
	o.print(t)
	o.printEnergy(rep.Energy)
	if rep.Mismatches != 0 {
		return fmt.Errorf("%d lookups disagreed with the reference LPM", rep.Mismatches)
	}
	return nil
}

// print writes one rendered table to the run's stdout.
func (o *options) print(t *report.Table) { fmt.Fprintln(o.stdout, t.String()) }

// printFleet renders the fleet stressor's section: per-device placement and
// end state, the crash schedule, every migration's lifecycle (attempts,
// retargets, MTTR), the degraded networks, and the post-install invariant
// audits.
func (o *options) printFleet(f *netsim.FleetReport) {
	t := report.NewTable(
		fmt.Sprintf("Fleet stressor: %d devices + %d spares", f.Devices, f.Spares),
		"Quantity", "Value")
	t.AddF("Migrations planned / landed / attempts / failed attempts",
		fmt.Sprintf("%d / %d / %d / %d",
			len(f.Migrations), f.MigrationsDone, f.MigrationAttempts, f.MigrationFailures))
	t.AddF("Mean MTTR (cycles)", fmt.Sprintf("%.1f", f.MeanMTTRCycles()))
	t.AddF("Spares activated", f.SpareActivations)
	t.AddF("Networks degraded", len(f.Degraded))
	t.AddF("Invariant audits / probes / faulted / mismatches",
		fmt.Sprintf("%d / %d / %d / %d", f.Audits, f.AuditProbes, f.AuditFaulted, f.AuditMismatches))
	o.print(t)

	dt := report.NewTable("Fleet devices", "Device", "State", "Scheme", "Placed VNs", "Final VNs", "Est W", "Browned cycles")
	for _, d := range f.PerDevice {
		dt.AddF(d.Device, d.State, d.Scheme,
			fmt.Sprintf("%v", d.PlacedVNs), fmt.Sprintf("%v", d.VNs),
			fmt.Sprintf("%.2f", d.EstWatts), d.BrownedCycles)
	}
	o.print(dt)

	if len(f.Migrations) > 0 {
		mt := report.NewTable("Fleet migrations",
			"VN", "From", "To", "Scheme", "Crashed", "Committed", "MTTR", "Attempts", "Failed", "Retargets", "Writes")
		for _, m := range f.Migrations {
			committed, mttr := "-", "-"
			if m.CommittedAt >= 0 {
				committed = fmt.Sprintf("%d", m.CommittedAt)
				mttr = fmt.Sprintf("%d", m.MTTRCycles)
			}
			mt.AddF(m.VN, m.From, m.To, m.ToScheme, m.CrashedAt, committed, mttr,
				m.Attempts, m.FailedAttempts, m.Retargets, m.Writes)
		}
		o.print(mt)
	}
	if len(f.Degraded) > 0 {
		gt := report.NewTable("Fleet degraded networks", "VN", "At", "Reason")
		for _, d := range f.Degraded {
			gt.AddF(d.VN, d.At, d.Reason)
		}
		o.print(gt)
	}
}

// printGovernor renders a governor report: the headline control-law numbers,
// time at each tier and per-VNID degradation.
// All numbers come from the deterministic Report, so the output is byte-
// identical at any -j.
func (o *options) printGovernor(g *governor.Report) {
	t := report.NewTable(
		fmt.Sprintf("Power governor: cap %.2f W fleet / %.2f W device, lift cycle %d",
			g.CapWatts, g.DeviceCapWatts, g.LiftCycle),
		"Quantity", "Value")
	t.AddF("Slices observed / in violation", fmt.Sprintf("%d / %d", g.Slices, g.ViolationSlices))
	t.AddF("Escalations / de-escalations / oscillations",
		fmt.Sprintf("%d / %d / %d", g.Escalations, g.Deescalations, g.Oscillations))
	conv := "never"
	if g.ConvergedAt >= 0 {
		conv = fmt.Sprintf("cycle %d", g.ConvergedAt)
	}
	t.AddF("Converged under cap", conv)
	t.AddF("Peak / final power (W)", fmt.Sprintf("%.2f / %.2f", g.PeakPowerW, g.FinalPowerW))
	t.AddF("Final rung", fmt.Sprintf("%d (%s)", g.FinalRung, g.Rungs[g.FinalRung]))
	var throttled, brownout int64
	for vn := range g.ThrottledPerVN {
		throttled += g.ThrottledPerVN[vn]
		brownout += g.BrownoutPerVN[vn]
	}
	t.AddF("Arrivals throttled / browned out", fmt.Sprintf("%d / %d", throttled, brownout))
	o.print(t)

	lt := report.NewTable("Governor ladder: time at each tier", "Rung", "Name", "Cycles")
	for i, name := range g.Rungs {
		lt.AddF(i, name, g.TimeAtRung[i])
	}
	o.print(lt)
	vt := report.NewTable("Governor per-VNID degradation", "VN", "Throttled", "Brownout")
	for vn := range g.ThrottledPerVN {
		vt.AddF(vn, g.ThrottledPerVN[vn], g.BrownoutPerVN[vn])
	}
	o.print(vt)
}

// printEnergy renders a run's attributed energy breakdown: the headline
// totals, the Graphite-style component split, and the per-VNID and
// per-device attribution axes. Every number derives from the meter's
// integer femtojoule counters, so the output is byte-identical at any -j.
func (o *options) printEnergy(e *energy.Report) {
	t := report.NewTable("Energy attribution (event-metered, integer femtojoules)", "Quantity", "Value")
	t.AddF("Total energy (J)", fmt.Sprintf("%.6e", e.TotalJ))
	t.AddF("Dynamic / static (J)", fmt.Sprintf("%.6e / %.6e", e.DynJ, e.StaticJ))
	t.AddF("Component memory / clock / control-plane (fJ)",
		fmt.Sprintf("%d / %d / %d", e.MemFJ, e.ClockFJ, e.CtrlFJ))
	t.AddF("Events: lookups / bubbles / words / transitions",
		fmt.Sprintf("%d / %d / %d / %d", e.Lookups, e.Bubbles, e.Words, e.Transitions))
	if e.DeliveredBits > 0 {
		t.AddF("Delivered bits", e.DeliveredBits)
		t.AddF("Energy per forwarded bit (J/bit)", fmt.Sprintf("%.6e", e.JPerBit))
	}
	o.print(t)

	vt := report.NewTable("Per-VNID dynamic energy", "VN", "Dynamic (fJ)", "Share")
	var dyn int64
	for _, fj := range e.VNDynFJ {
		dyn += fj
	}
	for vn, fj := range e.VNDynFJ {
		share := 0.0
		if dyn > 0 {
			share = float64(fj) / float64(dyn)
		}
		vt.AddF(vn, fj, fmt.Sprintf("%.4f", share))
	}
	o.print(vt)

	const title = "Per-engine dynamic / per-device static"
	if len(e.DeviceEngines) > 1 {
		// A row per engine, labelled d/e, the device's static on its first.
		et, eng := report.NewTable(title, "Device/engine", "Engine dyn (fJ)", "Device static (fJ)"), 0
		for d, n := range e.DeviceEngines {
			static := fmt.Sprint(e.DeviceStaticFJ[d])
			if n == 0 {
				et.AddF(fmt.Sprintf("%d/-", d), "-", static)
			}
			for j := range n {
				et.AddF(fmt.Sprintf("%d/%d", d, j), e.EngineDynFJ[eng], static)
				static, eng = "-", eng+1
			}
		}
		o.print(et)
		return
	}
	et := report.NewTable(title, "Index", "Engine dyn (fJ)", "Device static (fJ)")
	rows := len(e.EngineDynFJ)
	if len(e.DeviceStaticFJ) > rows {
		rows = len(e.DeviceStaticFJ)
	}
	for i := 0; i < rows; i++ {
		engFJ, devFJ := "-", "-"
		if i < len(e.EngineDynFJ) {
			engFJ = fmt.Sprintf("%d", e.EngineDynFJ[i])
		}
		if i < len(e.DeviceStaticFJ) {
			devFJ = fmt.Sprintf("%d", e.DeviceStaticFJ[i])
		}
		et.AddF(i, engFJ, devFJ)
	}
	o.print(et)
}

// writeOutput writes one telemetry dump to path; "-" means stdout.
func (o *options) writeOutput(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(o.stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dumpTelemetry writes the requested telemetry artifacts after the run.
func (o *options) dumpTelemetry(tel *netsim.Telemetry) error {
	if o.traceOut != "" {
		if err := o.writeOutput(o.traceOut, tel.Traces.WriteJSONL); err != nil {
			return fmt.Errorf("trace dump: %w", err)
		}
	}
	if o.timeseriesOut != "" {
		if err := o.writeOutput(o.timeseriesOut, tel.Series.WriteCSV); err != nil {
			return fmt.Errorf("timeseries dump: %w", err)
		}
	}
	if o.eventsOut != "" {
		if err := o.writeOutput(o.eventsOut, tel.Events.WriteJSONL); err != nil {
			return fmt.Errorf("events dump: %w", err)
		}
	}
	return nil
}

// runScenario drives the composed run — every requested stressor in one
// slice-quantised engine — and prints the unified report: delivery and
// availability per VNID always, then a section per active stressor. All
// numbers come from the deterministic ScenarioReport, so the output is
// byte-identical at any -j.
func (o *options) runScenario(sys *netsim.System, gen *traffic.Generator, scheme core.Scheme, spec scenario.Spec) error {
	rep, err := sys.RunScenario(gen, spec)
	if err != nil {
		return err
	}

	t := report.NewTable(
		fmt.Sprintf("%s composed scenario [%s], K=%d, %d traffic cycles (+%d drain), slice %d",
			scheme, strings.Join(rep.Stressors, " + "), rep.K,
			rep.TrafficCycles, rep.DrainCycles, rep.SliceCycles),
		"Quantity", "Value")
	t.AddF("Spec", rep.Spec)
	t.AddF("Load shape", spec.Load.String())
	t.AddF("Delivered fraction", fmt.Sprintf("%.4f", rep.DeliveredFraction()))
	t.AddF("Mean delay (cycles)", fmt.Sprintf("%.1f", rep.MeanDelayCycles))
	t.AddF("Backlog peak (pkts)", rep.BacklogPeak)
	t.AddF("Oracle mismatches", rep.Mismatches)
	t.AddF("No-route packets", rep.NoRoute)
	for vn := 0; vn < rep.K; vn++ {
		t.AddF(fmt.Sprintf("VN %d offered/delivered/dropped, availability", vn),
			fmt.Sprintf("%d / %d / %d, %.4f",
				rep.OfferedPerVN[vn], rep.DeliveredPerVN[vn], rep.DroppedPerVN[vn], rep.Availability(vn)))
	}
	t.AddF("Completed", rep.Completed)
	o.print(t)

	if spec.SEURate > 0 || spec.Kill != nil {
		ft := report.NewTable("Fault stressor", "Quantity", "Value")
		ft.AddF("SEUs injected / detected / repaired",
			fmt.Sprintf("%d / %d / %d", len(rep.SEUs), rep.DetectedSEUs(), rep.RepairedSEUs()))
		ft.AddF("Scrubs", rep.Scrubs)
		ft.AddF("Mean time to repair (cycles)", fmt.Sprintf("%.1f", rep.MTTRCycles()))
		ft.AddF("Faulted lookups (dropped, not misforwarded)", rep.FaultedLookups)
		if rep.Kill != nil {
			ft.AddF(fmt.Sprintf("Engine %d kill at cycle %d", rep.Kill.Engine, rep.Kill.Cycle),
				fmt.Sprintf("detected %d, repaired %d", rep.Kill.DetectedAt, rep.Kill.RepairedAt))
		}
		ft.AddF("Recovered", rep.Recovered)
		o.print(ft)
		if len(rep.SEUs) > 0 {
			mt := report.NewTable("SEU lifecycle (cycles)",
				"Seq", "Engine", "Stage/Index/Bit", "Injected", "Detected via", "Repaired", "TTR")
			// One row per upset, thousands on a long run: the cells are
			// formatted by strconv, not fmt.
			for _, u := range rep.SEUs {
				det, repd, ttr := "-", "-", "-"
				if u.DetectedAt >= 0 {
					det = strconv.FormatInt(u.DetectedAt, 10) + " " + u.Via
				}
				if u.RepairedAt >= 0 {
					repd, ttr = strconv.FormatInt(u.RepairedAt, 10), strconv.FormatInt(u.RepairedAt-u.Cycle, 10)
				}
				where := strconv.Itoa(u.Stage) + "/" + strconv.FormatUint(uint64(u.Index), 10) + "/" + strconv.Itoa(u.Bit)
				mt.AddF(u.Seq, u.Engine, where, u.Cycle, det, repd, ttr)
			}
			o.print(mt)
		}
	}

	if spec.Churn != nil {
		ct := report.NewTable("Churn stressor", "Quantity", "Value")
		ct.AddF("Batches applied / aborted", fmt.Sprintf("%d / %d", rep.BatchesApplied, rep.BatchesAborted))
		ct.AddF("Stage writes / write bubbles", fmt.Sprintf("%d / %d", rep.UpdateWrites, rep.PlannedBubbles))
		ct.AddF("Throughput retained measured / analytic",
			fmt.Sprintf("%.6f / %.6f", rep.MeasuredThroughputRetained(), rep.AnalyticThroughputRetained()))
		ct.AddF("Mean update latency (cycles)", fmt.Sprintf("%.1f", rep.MeanUpdateLatencyCycles()))
		o.print(ct)
		if len(rep.Batches) > 0 {
			bt := report.NewTable("Churn batch lifecycle (cycles)",
				"Seq", "VN", "Engine", "Ops raw/coalesced", "Writes", "Bubbles", "Armed", "Committed", "Latency")
			for i, b := range rep.Batches {
				bt.AddF(i, b.VN, b.Engine, fmt.Sprintf("%d/%d", b.RawOps, b.CoalescedOps),
					b.Writes, b.Bubbles, b.ArmedAt, b.DoneAt, b.LatencyCycles())
			}
			o.print(bt)
		}
	}

	if rep.Chaos != nil {
		ch := rep.Chaos
		xt := report.NewTable("Chaos stressor (control-plane faults)", "Quantity", "Value")
		xt.AddF("Injected crash / stall / torn / falsepos",
			fmt.Sprintf("%d / %d / %d / %d",
				ch.InjectedCrashes, ch.InjectedStalls, ch.InjectedTorn, ch.InjectedFalsePositives))
		xt.AddF("Journal rollbacks / replays", fmt.Sprintf("%d / %d", ch.Rollbacks, ch.Replays))
		xt.AddF("Journal ops begun / committed / aborted",
			fmt.Sprintf("%d / %d / %d", ch.JournalBegun, ch.JournalCommits, ch.JournalAborts))
		xt.AddF("Watchdog retries / false positives / escalations",
			fmt.Sprintf("%d / %d / %d", ch.WatchdogRetries, ch.FalsePositives, ch.Escalations))
		xt.AddF("Batches retried after rollback", ch.RetriedBatches)
		xt.AddF("Mean recovery latency (cycles)", fmt.Sprintf("%.1f", ch.MeanRecoveryCycles()))
		xt.AddF("Invariant audits / probes / faulted / mismatches",
			fmt.Sprintf("%d / %d / %d / %d", ch.Audits, ch.AuditProbes, ch.AuditFaulted, ch.AuditMismatches))
		for vn, n := range ch.DegradedSlicesPerVN {
			if n > 0 {
				xt.AddF(fmt.Sprintf("VN %d degraded slices", vn), n)
			}
		}
		o.print(xt)
	}

	if rep.Fleet != nil {
		o.printFleet(rep.Fleet)
	}

	if rep.Governor != nil {
		o.printGovernor(rep.Governor)
	}
	o.printEnergy(rep.Energy)

	if rep.Mismatches != 0 {
		return fmt.Errorf("%d lookups disagreed with their epoch's reference LPM", rep.Mismatches)
	}
	if rep.Chaos != nil && rep.Chaos.AuditMismatches != 0 {
		return fmt.Errorf("%d invariant-audit probes misforwarded after recovery", rep.Chaos.AuditMismatches)
	}
	if rep.Fleet != nil && rep.Fleet.AuditMismatches != 0 {
		return fmt.Errorf("%d invariant-audit probes misforwarded after migration", rep.Fleet.AuditMismatches)
	}
	if !rep.Completed {
		return fmt.Errorf("run ended with repairs, updates or backlogs outstanding")
	}
	return nil
}
