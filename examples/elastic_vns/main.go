// Elastic virtual networks: an ISP grows its virtualized router one tenant
// at a time. This example drives the control-plane lifecycle manager —
// adding networks until the device is exhausted, applying routing churn,
// and retiring a tenant — and contrasts what each operation costs on the
// separate vs merged data planes (the asymmetry behind the paper's
// scalability discussion in Sections IV-B/IV-C).
package main

import (
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
	const prefixes, tenants = 500, 24

	// Every tenant's table, tenant i's from seed i+1: two to start with, the
	// rest to onboard.
	tables := make([]*vrpower.Table, tenants)
	for i := range tables {
		seed := int64(i + 1)
		var err error
		if tables[i], err = vrpower.Generate(fmt.Sprintf("tenant%d", seed), prefixes, seed); err != nil {
			return err
		}
	}

	for _, scheme := range []vrpower.Scheme{vrpower.VS, vrpower.VM} {
		fmt.Fprintf(w, "=== %s data plane ===\n", scheme)
		mgr, err := vrpower.NewManager(vrpower.Config{
			Scheme: scheme, Grade: vrpower.Grade2, ClockGating: true,
		}, tables[:2])
		if err != nil {
			return err
		}

		// Onboard tenants until the device says no.
		for next := 2; ; next++ {
			ev, err := mgr.AddNetwork(tables[next])
			if err != nil {
				fmt.Fprintf(w, "  add tenant %d: %v\n", mgr.K()+1, err)
				break
			}
			if mgr.K() <= 5 || mgr.K()%5 == 0 {
				b, _ := mgr.Router().ModelPower()
				fmt.Fprintf(w, "  add tenant -> K=%2d: %d words written, %d nets disrupted, %.2f W\n",
					ev.K, ev.Writes, ev.DisruptedNetworks, b.Total())
			}
			if mgr.K() >= tenants {
				fmt.Fprintf(w, "  ... stopping the experiment at K=%d\n", mgr.K())
				break
			}
		}

		// A tenant's BGP session flaps: 50 updates arrive.
		ops, err := vrpower.GenerateChurn(mgr.Tables()[0], 50, 11)
		if err != nil {
			return err
		}
		ev, err := mgr.ApplyUpdates(0, ops)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  churn (50 ops on tenant 0): %d writes, %d bubbles, %d nets disrupted\n",
			ev.Writes, ev.Bubbles, ev.DisruptedNetworks)

		// A tenant leaves.
		ev, err = mgr.RemoveNetwork(1)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  remove tenant 1: K=%d, %d nets disrupted\n\n", ev.K, ev.DisruptedNetworks)
	}

	fmt.Fprintln(w, "The separate plane isolates every change to one tenant but hits")
	fmt.Fprintln(w, "the I/O wall at 15 engines; the merged plane keeps growing yet")
	fmt.Fprintln(w, "every change shakes all tenants — the paper's scalability")
	fmt.Fprintln(w, "trade-off, seen from the control plane.")
	return nil
}
