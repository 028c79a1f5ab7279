// Quickstart: build a virtualized-separate router hosting 8 virtual
// networks on one Virtex-6, estimate its Layer-3 power with the paper's
// models, and verify forwarding end-to-end against the reference
// longest-prefix match.
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
	// Eight edge networks, each announcing ~3725 routes (the paper's
	// worst-case edge table), with 60% of the prefix space shared.
	const k = 8
	set, err := vrpower.GenerateVirtualSet(k, 3725, 0.6, 1)
	if err != nil {
		return err
	}

	// Consolidate them as a virtualized-separate router: K independent
	// 28-stage lookup pipelines on a single XC6VLX760.
	r, err := vrpower.Build(vrpower.Config{
		Scheme:      vrpower.VS,
		K:           k,
		Grade:       vrpower.Grade2,
		ClockGating: true,
	}, set.Tables)
	if err != nil {
		return err
	}

	model, err := r.ModelPower()
	if err != nil {
		return err
	}
	measured, err := r.MeasuredPower(vrpower.NewAnalyzer())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "virtualized-separate, K=%d on %s\n", k, vrpower.XC6VLX760().Name)
	fmt.Fprintf(w, "  clock:      %.1f MHz\n", r.Fmax())
	fmt.Fprintf(w, "  throughput: %.1f Gbps (40 B packets)\n", r.ThroughputGbps())
	fmt.Fprintf(w, "  power:      %.2f W model / %.2f W measured (err %+.2f%%)\n",
		model.Total(), measured.Total(),
		vrpower.PercentError(model.Total(), measured.Total()))
	fmt.Fprintf(w, "  efficiency: %.2f mW/Gbps\n",
		vrpower.MilliwattsPerGbps(measured.Total(), r.ThroughputGbps()))

	// Drive it with 20k uniformly distributed packets and verify every
	// next hop against the per-network reference tables.
	gen, err := vrpower.NewTraffic(vrpower.TrafficConfig{
		K: k, Seed: 2, Addr: vrpower.RoutedAddr, Tables: set.Tables,
	})
	if err != nil {
		return err
	}
	sys, err := vrpower.NewForwarding(r, set.Tables)
	if err != nil {
		return err
	}
	rep, err := sys.Forward(gen.Batch(20000))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  forwarded:  %d packets, %d mismatches vs reference LPM\n",
		rep.Packets, rep.Mismatches)
	if rep.Mismatches != 0 {
		return errors.New("forwarding verification failed")
	}
	return nil
}
