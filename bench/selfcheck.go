package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
)

// selfCheckRuns is how many untraced runs of each set a workload's host-time
// medians are taken over. The two sets alternate run by run, so a slow phase
// of the machine (they last from seconds to minutes here) hits both alike.
const selfCheckRuns = 3

// selfCheck asks whether the benchmark can tell a change from noise on this
// machine: two full sets (every workload, untraced then traced) of the same
// code must agree — host-time medians within each metric's bound, simulated
// metrics, counts and digests exactly — and every workload must pass all its
// checks at another seed.
func selfCheck(root string, o options) error {
	var bad []string
	for _, w := range workloads {
		// runs[set][0] is the set's traced run, the rest its untraced runs.
		var runs [2][]*result
		for i := 0; i <= selfCheckRuns; i++ {
			for set := range runs {
				c := o
				c.workload, c.trace = w.name, 0
				if i == 0 {
					c.trace = 1
				}
				res, err := runChild(root, c, nil)
				if err != nil {
					return err
				}
				fmt.Printf("set %d  %-15s trace=%d  ops %d  failed_ops %d  wall_s %.4f\n",
					set+1, w.name, c.trace, res.Ops, res.FailedOps, res.EndToEnd["wall_s"].Value)
				if !res.correct() {
					bad = append(bad, fmt.Sprintf("%s trace=%d: %v %v", w.name, c.trace, res.Failures, res.HarnessErrors))
				}
				runs[set] = append(runs[set], res)
			}
		}
		for i, a := range runs[0] {
			b := runs[1][i]
			if a.Digest != b.Digest || !reflect.DeepEqual(a.Sim, b.Sim) {
				bad = append(bad, fmt.Sprintf("%s run %d: digest, simulated metrics or counts differ between sets", w.name, i))
			}
		}
		for _, d := range endToEnd {
			med := func(set []*result) float64 {
				var xs []float64
				for _, res := range set[1:] {
					xs = append(xs, res.EndToEnd[d.name].Value)
				}
				return median(xs)
			}
			x, y := med(runs[0]), med(runs[1])
			if d.base != host {
				if x != y {
					bad = append(bad, fmt.Sprintf("%s %s: %v then %v, want bit-equal", w.name, d.name, x, y))
				}
				continue
			}
			// The second set may not read worse than the first by more than
			// the bound: exactly what a later change is held to.
			worse := (y - x) / x
			if d.better == "higher" {
				worse = (x - y) / x
			}
			fmt.Printf("%-15s %-14s %12.6g -> %12.6g %s  (%+.1f%% worse, bound %.0f%%)\n",
				w.name, d.name, x, y, d.unit, 100*worse, 100*d.bound)
			if worse > d.bound || math.IsNaN(worse) {
				bad = append(bad, fmt.Sprintf("%s %s: %.6g then %.6g, %.1f%% worse than its %.0f%% bound",
					w.name, d.name, x, y, 100*worse, 100*d.bound))
			}
		}
	}

	for _, w := range workloads {
		c := o
		c.workload, c.seed, c.trace = w.name, 2, 0
		res, err := runChild(root, c, nil)
		if err != nil {
			return err
		}
		fmt.Printf("seed 2  %-15s ops %d  failed_ops %d\n", w.name, res.Ops, res.FailedOps)
		if !res.correct() {
			bad = append(bad, fmt.Sprintf("%s seed 2: %v", w.name, res.Failures))
		}
	}

	for _, b := range bad {
		fmt.Println("SELFCHECK FAILED:", b)
	}
	if len(bad) > 0 {
		os.Exit(1)
	}
	fmt.Println("selfcheck passed")
	return nil
}
