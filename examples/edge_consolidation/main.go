// Edge consolidation: the paper's motivating scenario. An ISP runs K
// underutilized edge routers, each on its own device (the conventional,
// non-virtualized deployment). This example consolidates them onto one
// FPGA under both virtualization schemes and reports the power saved —
// showing the paper's headline result that savings are proportional to the
// number of virtual networks.
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
	analyzer := vrpower.NewAnalyzer()
	prof, err := vrpower.PaperProfile()
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Consolidating K edge networks (3725 routes each, grade -2):")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%3s  %12s  %12s  %12s  %10s  %10s\n",
		"K", "NV (W)", "VS (W)", "VM80 (W)", "VS saving", "VM saving")
	for _, k := range []int{2, 4, 8, 12, 15} {
		nv, err1 := measuredPower(analyzer, prof, vrpower.NV, k, 0)
		vs, err2 := measuredPower(analyzer, prof, vrpower.VS, k, 0)
		vm, err3 := measuredPower(analyzer, prof, vrpower.VM, k, 0.8)
		if err := errors.Join(err1, err2, err3); err != nil {
			return err
		}
		fmt.Fprintf(w, "%3d  %12.2f  %12.2f  %12.2f  %9.1fx  %9.1fx\n",
			k, nv, vs, vm, nv/vs, nv/vm)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "The non-virtualized fleet pays one device's static power per")
	fmt.Fprintln(w, "network; both virtualized schemes share it, so the saving grows")
	fmt.Fprintln(w, "in proportion to K (Section VI-A of the paper).")

	// The catch: the separate scheme stops scaling when the device runs
	// out of I/O pins. Demonstrate the paper's K=15 ceiling.
	fmt.Fprintln(w)
	for k := 15; k <= 16; k++ {
		_, err := vrpower.BuildAnalytic(vrpower.Config{
			Scheme: vrpower.VS, K: k, Grade: vrpower.Grade2, ClockGating: true,
		}, prof, 0)
		if err != nil {
			fmt.Fprintf(w, "K=%d separate: %v\n", k, err)
		} else {
			fmt.Fprintf(w, "K=%d separate: fits the device\n", k)
		}
	}
	return nil
}

func measuredPower(a *vrpower.Analyzer, prof vrpower.TableProfile, s vrpower.Scheme, k int, alpha float64) (float64, error) {
	r, err := vrpower.BuildAnalytic(vrpower.Config{
		Scheme: s, K: k, Grade: vrpower.Grade2, ClockGating: true,
	}, prof, alpha)
	if err != nil {
		return 0, err
	}
	b, err := r.MeasuredPower(a)
	if err != nil {
		return 0, err
	}
	return b.Total(), nil
}
