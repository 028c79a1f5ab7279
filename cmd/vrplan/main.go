// Command vrplan answers the deployment question the paper's models enable:
// given K networks and a per-network throughput requirement, which router
// organisation, speed grade and Virtex-6 family member burns the least
// power? It searches every configuration the library can build and prints
// the cheapest feasible ones plus the power/throughput Pareto frontier.
//
// Usage:
//
//	vrplan -k 8 -gbps 10 [-alpha 0.5] [-prefixes 3725] [-top 5] [-seed 1]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"vrpower/internal/core"
	"vrpower/internal/planner"
	"vrpower/internal/report"
	"vrpower/internal/rib"
)

// options collects the parsed flags.
type options struct {
	k        int
	gbps     float64
	alpha    float64
	prefixes int
	top      int
	seed     int64
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command over its arguments and streams: 0 when a plan is
// printed, 1 on a requirement nothing meets or that cannot be planned for, 2
// on a flag the command does not have.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("vrplan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&o.k, "k", 8, "number of (virtual) networks")
	fs.Float64Var(&o.gbps, "gbps", 10, "required worst-case Gbps per network (40 B packets)")
	fs.Float64Var(&o.alpha, "alpha", 0.5, "expected merging efficiency for the merged scheme")
	fs.IntVar(&o.prefixes, "prefixes", 3725, "routes per network table")
	fs.IntVar(&o.top, "top", 5, "how many candidates to print")
	fs.Int64Var(&o.seed, "seed", 1, "table generator seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := o.plan(stdout); err != nil {
		fmt.Fprintln(stderr, "vrplan:", err)
		return 1
	}
	return 0
}

// plan searches the configurations and prints the ranking, the frontier and
// the summary line.
func (o *options) plan(stdout io.Writer) error {
	if o.top < 1 {
		return fmt.Errorf("-top %d: want a count > 0", o.top)
	}
	tbl, err := rib.Generate("profile", o.prefixes, o.seed)
	if err != nil {
		return err
	}
	req := planner.Requirements{
		K:         o.k,
		PerVNGbps: o.gbps,
		Profile:   core.ProfileOf(tbl),
		Alpha:     o.alpha,
	}
	cands, err := planner.Plan(req)
	if err != nil {
		return err
	}
	if len(cands) == 0 {
		return fmt.Errorf("no feasible configuration for K=%d at %.1f Gbps per network (α=%.2f)",
			o.k, o.gbps, o.alpha)
	}

	t := report.NewTable(
		fmt.Sprintf("Cheapest feasible deployments: K=%d, ≥%.1f Gbps per network, α=%.2f",
			o.k, o.gbps, o.alpha),
		"Rank", "Configuration", "Power (W)", "Per-VN Gbps", "Aggregate Gbps", "mW/Gbps", "Latency (ns)")
	for i, c := range cands {
		if i >= o.top {
			break
		}
		t.AddF(i+1, c.Describe(),
			fmt.Sprintf("%.3f", c.MeasuredW),
			fmt.Sprintf("%.1f", c.GuaranteedPerVNGbps),
			fmt.Sprintf("%.1f", c.AggregateGbps),
			fmt.Sprintf("%.2f", c.EffMWPerGbps),
			fmt.Sprintf("%.1f", c.LatencyNS))
	}
	fmt.Fprintln(stdout, t.String())

	fr := planner.Frontier(cands)
	ft := report.NewTable("Power/throughput Pareto frontier",
		"Configuration", "Power (W)", "Per-VN Gbps")
	for _, c := range fr {
		ft.AddF(c.Describe(), fmt.Sprintf("%.3f", c.MeasuredW), fmt.Sprintf("%.1f", c.GuaranteedPerVNGbps))
	}
	fmt.Fprintln(stdout, ft.String())
	fmt.Fprintf(stdout, "%d feasible configurations evaluated; cheapest: %s at %.3f W\n",
		len(cands), cands[0].Describe(), cands[0].MeasuredW)
	return nil
}
