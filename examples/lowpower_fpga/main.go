// Low-power FPGA families: the paper's Section VI-B exploration. The -1L
// speed grade cuts supply current at the cost of clock rate. This example
// compares both grades across all three router schemes and reproduces the
// paper's two findings: roughly 30% lower power for -1L at the same design,
// and near-identical power efficiency (mW/Gbps) because the throughput
// falls in step with the power.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"vrpower"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example, printing to w.
func run(w io.Writer) error {
	prof, err := vrpower.PaperProfile()
	if err != nil {
		return err
	}
	const k = 8
	build := func(sc vrpower.Scheme, g vrpower.SpeedGrade, alpha float64) (*vrpower.Router, error) {
		return vrpower.BuildAnalytic(vrpower.Config{Scheme: sc, K: k, Grade: g, ClockGating: true}, prof, alpha)
	}

	fmt.Fprintf(w, "Grade -2 vs -1L at K=%d (model power):\n\n", k)
	fmt.Fprintf(w, "%-10s  %9s  %9s  %8s  %11s  %11s\n",
		"scheme", "-2 (W)", "-1L (W)", "saving", "-2 mW/Gbps", "-1L mW/Gbps")

	for _, sc := range vrpower.Schemes() {
		alpha := 0.0
		if sc == vrpower.VM {
			alpha = 0.5
		}
		hi, err1 := build(sc, vrpower.Grade2, alpha)
		lo, err2 := build(sc, vrpower.Grade1L, alpha)
		if err := errors.Join(err1, err2); err != nil {
			return err
		}
		bh, err1 := hi.ModelPower()
		bl, err2 := lo.ModelPower()
		eh, err3 := hi.EfficiencyMWPerGbps()
		el, err4 := lo.EfficiencyMWPerGbps()
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s  %9.2f  %9.2f  %7.1f%%  %11.2f  %11.2f\n",
			sc, bh.Total(), bl.Total(), (1-bl.Total()/bh.Total())*100, eh, el)
	}

	fmt.Fprintln(w)
	hi, err1 := build(vrpower.VS, vrpower.Grade2, 0)
	lo, err2 := build(vrpower.VS, vrpower.Grade1L, 0)
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	fmt.Fprintf(w, "The cost of -1L is clock rate: %.0f MHz vs %.0f MHz (%.1f%% less\n",
		lo.Fmax(), hi.Fmax(), (1-lo.Fmax()/hi.Fmax())*100)
	fmt.Fprintf(w, "throughput: %.0f vs %.0f Gbps). Low-power grades therefore suit\n",
		lo.ThroughputGbps(), hi.ThroughputGbps())
	fmt.Fprintln(w, "deployments where bandwidth headroom, not efficiency, is spare —")
	fmt.Fprintln(w, "the paper's conclusion for green edge networks.")
	return nil
}
