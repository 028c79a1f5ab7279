// Command vrpower estimates the Layer-3 power of one router configuration:
// scheme, number of virtual networks, speed grade and merging efficiency.
// It prints the analytical model (Eq. 2/4/6), the emulated post
// place-and-route measurement, the achievable clock and the paper's
// efficiency metric.
//
// Usage:
//
//	vrpower -scheme VS -k 8 -grade -2 [-alpha 0.8] [-prefixes 3725]
//	        [-empirical] [-share 0.6] [-stages 28] [-bram36] [-no-gating] [-seed 1]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"vrpower/internal/core"
	"vrpower/internal/fpga"
	"vrpower/internal/power"
	"vrpower/internal/report"
	"vrpower/internal/rib"
)

// options collects the parsed flags: the router configuration they spell
// out, and how to price it.
type options struct {
	cfg       core.Config
	alpha     float64
	prefixes  int
	empirical bool
	share     float64
	compare   bool
	seed      int64
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command over its arguments and streams: 0 when the table
// is printed, 1 on a configuration that cannot be built or priced, 2 on a
// flag the command does not have or a value a flag cannot take.
func run(args []string, stdout, stderr io.Writer) int {
	o := options{cfg: core.Config{Scheme: core.VS, Grade: fpga.Grade2, Device: fpga.XC6VLX760()}}
	var bram36, noGating bool
	fs := flag.NewFlagSet("vrpower", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Func("scheme", "router `scheme`: NV, VS (the default) or VM", func(s string) (err error) {
		o.cfg.Scheme, err = parseScheme(s)
		return err
	})
	fs.IntVar(&o.cfg.K, "k", 4, "number of (virtual) networks")
	fs.Func("grade", "speed `grade`: -2 (the default) or -1L", func(s string) (err error) {
		o.cfg.Grade, err = parseGrade(s)
		return err
	})
	fs.Float64Var(&o.alpha, "alpha", 0.8, "merging efficiency for VM (0..1)")
	fs.IntVar(&o.prefixes, "prefixes", 3725, "routes per network table")
	fs.BoolVar(&o.empirical, "empirical", false, "build real tables and compiled engines instead of the analytic model")
	fs.Float64Var(&o.share, "share", 0.6, "prefix-space share across networks for -empirical")
	fs.IntVar(&o.cfg.Stages, "stages", core.DefaultStages, "pipeline depth N (0 = the default)")
	fs.BoolVar(&bram36, "bram36", false, "pack memories into 36 Kb blocks instead of 18 Kb")
	fs.BoolVar(&noGating, "no-gating", false, "disable clock gating of idle engines")
	fs.BoolVar(&o.cfg.Balanced, "balanced", false, "memory-balanced level-to-stage mapping (refs [7,8])")
	fs.Int64Var(&o.cfg.DistRAMThreshold, "distram", 0, "map stages of at most this many bits to distributed RAM (0 = BRAM only)")
	fs.Func("device", "target Virtex-6 family `member` (default XC6VLX760)", func(s string) (err error) {
		o.cfg.Device, err = findDevice(s)
		return err
	})
	fs.BoolVar(&o.compare, "compare", false, "print all three schemes side by side instead of one")
	fs.Int64Var(&o.seed, "seed", 1, "generator seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	for _, c := range []struct {
		flag, want string
		val, min   int64
	}{
		{"k", "a count >= 1", int64(o.cfg.K), 1},
		{"prefixes", "a count >= 1", int64(o.prefixes), 1},
		{"stages", "a depth >= 0 (0 = the default)", int64(o.cfg.Stages), 0},
		{"distram", "a threshold >= 0 (0 = BRAM only)", o.cfg.DistRAMThreshold, 0},
	} {
		if c.val < c.min {
			fmt.Fprintf(stderr, "invalid value %d for flag -%s: want %s\n", c.val, c.flag, c.want)
			fs.Usage()
			return 2
		}
	}
	o.cfg.ClockGating = !noGating
	if bram36 {
		o.cfg.Mode = fpga.BRAM36Mode
	}

	var err error
	if o.compare {
		err = o.printComparison(stdout)
	} else {
		err = o.printOne(stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "vrpower:", err)
		return 1
	}
	return 0
}

// printOne builds the one configuration — over real tables with -empirical,
// else analytically from a generated table's profile — and prints its
// clock, power, efficiency and placement.
func (o *options) printOne(stdout io.Writer) error {
	var r *core.Router
	if o.empirical {
		set, err := rib.GenerateVirtualSet(o.cfg.K, o.prefixes, o.share, o.seed)
		if err != nil {
			return err
		}
		if r, err = core.Build(o.cfg, set.Tables); err != nil {
			return err
		}
	} else {
		tbl, err := rib.Generate("profile", o.prefixes, o.seed)
		if err != nil {
			return err
		}
		if r, err = core.BuildAnalytic(o.cfg, core.ProfileOf(tbl), o.alpha); err != nil {
			return err
		}
	}

	model, err := r.ModelPower()
	if err != nil {
		return err
	}
	measured, err := r.MeasuredPower(power.NewAnalyzer())
	if err != nil {
		return err
	}

	cfg := r.Config()
	t := report.NewTable(
		fmt.Sprintf("%s, K=%d, grade %s, %d stages", cfg.Scheme, cfg.K, cfg.Grade, cfg.Stages),
		"Quantity", "Value")
	t.AddF("Clock (MHz)", fmt.Sprintf("%.1f", r.Fmax()))
	t.AddF("Pipeline latency (ns)", fmt.Sprintf("%.1f", r.LatencyNS()))
	t.AddF("Throughput (Gbps, 40 B packets)", fmt.Sprintf("%.1f", r.ThroughputGbps()))
	t.AddF("Model power (W)", fmt.Sprintf("%.3f  (static %.2f, logic %.3f, memory %.3f)",
		model.Total(), model.Static, model.Logic, model.Memory))
	t.AddF("Measured power (W)", fmt.Sprintf("%.3f", measured.Total()))
	t.AddF("Model error (%)", fmt.Sprintf("%+.2f", power.PercentError(model.Total(), measured.Total())))
	t.AddF("Efficiency (mW/Gbps)", fmt.Sprintf("%.2f",
		power.MilliwattsPerGbps(measured.Total(), r.ThroughputGbps())))
	t.AddF("Pointer memory (Mb)", fmt.Sprintf("%.2f", float64(r.PointerBits())/(1024*1024)))
	t.AddF("NHI memory (Mb)", fmt.Sprintf("%.2f", float64(r.NHIBits())/(1024*1024)))
	pl := r.Placement()
	t.AddF("Logic utilization", fmt.Sprintf("%.1f%%", pl.LogicUtilization()*100))
	t.AddF("BRAM utilization", fmt.Sprintf("%.1f%%", pl.BRAMUtilization()*100))
	t.AddF("Devices", r.Design().Devices)
	fmt.Fprintln(stdout, t.String())
	return nil
}

// findDevice resolves a Virtex-6 family member by name.
func findDevice(name string) (fpga.Device, error) {
	for _, d := range fpga.Family() {
		if d.Name == name {
			return d, nil
		}
	}
	names := make([]string, 0, len(fpga.Family()))
	for _, d := range fpga.Family() {
		names = append(names, d.Name)
	}
	return fpga.Device{}, fmt.Errorf("want one of %v", names)
}

// printComparison evaluates all three schemes under the same configuration;
// a scheme that cannot be built there gets its error in its row.
func (o *options) printComparison(stdout io.Writer) error {
	tbl, err := rib.Generate("profile", o.prefixes, o.seed)
	if err != nil {
		return err
	}
	prof := core.ProfileOf(tbl)
	a := power.NewAnalyzer()
	t := report.NewTable(
		fmt.Sprintf("All schemes, K=%d, grade %s, α=%.0f%% for VM", o.cfg.K, o.cfg.Grade, o.alpha*100),
		"Scheme", "Clock (MHz)", "Power (W)", "Measured (W)", "Gbps", "mW/Gbps", "Latency (ns)")
	for _, sc := range core.Schemes() {
		c := o.cfg
		c.Scheme = sc
		al := 0.0
		if sc == core.VM {
			al = o.alpha
		}
		r, err := core.BuildAnalytic(c, prof, al)
		if err != nil {
			t.AddF(sc.String(), "-", "-", "-", "-", "-", fmt.Sprintf("(%v)", err))
			continue
		}
		model, err := r.ModelPower()
		if err != nil {
			return err
		}
		meas, err := r.MeasuredPower(a)
		if err != nil {
			return err
		}
		t.AddF(sc.String(),
			fmt.Sprintf("%.1f", r.Fmax()),
			fmt.Sprintf("%.3f", model.Total()),
			fmt.Sprintf("%.3f", meas.Total()),
			fmt.Sprintf("%.1f", r.ThroughputGbps()),
			fmt.Sprintf("%.2f", power.MilliwattsPerGbps(meas.Total(), r.ThroughputGbps())),
			fmt.Sprintf("%.1f", r.LatencyNS()))
	}
	fmt.Fprintln(stdout, t.String())
	return nil
}

func parseScheme(s string) (core.Scheme, error) {
	switch s {
	case "NV":
		return core.NV, nil
	case "VS":
		return core.VS, nil
	case "VM":
		return core.VM, nil
	}
	return 0, fmt.Errorf("want NV, VS or VM")
}

func parseGrade(s string) (fpga.SpeedGrade, error) {
	switch s {
	case "-2":
		return fpga.Grade2, nil
	case "-1L":
		return fpga.Grade1L, nil
	}
	return 0, fmt.Errorf("want -2 or -1L")
}
