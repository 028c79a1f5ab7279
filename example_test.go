package vrpower_test

import (
	"fmt"
	"log"

	"vrpower"
)

// ExampleBuild consolidates four edge networks as a virtualized-separate
// router and reports the paper's headline quantities. Everything is seeded,
// so the output is reproducible.
func ExampleBuild() {
	set, err := vrpower.GenerateVirtualSet(4, 3725, 0.6, 1)
	if err != nil {
		log.Fatal(err)
	}
	r, err := vrpower.Build(vrpower.Config{
		Scheme:      vrpower.VS,
		K:           4,
		Grade:       vrpower.Grade2,
		ClockGating: true,
	}, set.Tables)
	if err != nil {
		log.Fatal(err)
	}
	model, err := r.ModelPower()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.2f W at %.0f MHz, %.0f Gbps aggregate\n",
		model.Total(), r.Fmax(), r.ThroughputGbps())
	// Output:
	// 4.69 W at 292 MHz, 373 Gbps aggregate
}

// ExampleMemoryDemand evaluates the Fig. 4 memory model: merged pointer
// memory saturates with high merging efficiency while the separate scheme
// grows linearly in K.
func ExampleMemoryDemand() {
	prof, err := vrpower.PaperProfile()
	if err != nil {
		log.Fatal(err)
	}
	for _, k := range []int{5, 30} {
		sep, _, err := vrpower.MemoryDemand(vrpower.Config{Scheme: vrpower.VS, K: k}, prof, 0)
		if err != nil {
			log.Fatal(err)
		}
		mrg, _, err := vrpower.MemoryDemand(vrpower.Config{Scheme: vrpower.VM, K: k}, prof, 0.8)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("K=%d: separate %.2f Mb, merged(α=80%%) %.2f Mb pointers\n",
			k, float64(sep)/(1024*1024), float64(mrg)/(1024*1024))
	}
	// Output:
	// K=5: separate 1.42 Mb, merged(α=80%) 0.34 Mb pointers
	// K=30: separate 8.50 Mb, merged(α=80%) 0.35 Mb pointers
}

// ExampleStaticWatts shows the paper's published component coefficients.
func ExampleStaticWatts() {
	fmt.Printf("static: %.1f W (-2), %.1f W (-1L)\n",
		vrpower.StaticWatts(vrpower.Grade2), vrpower.StaticWatts(vrpower.Grade1L))
	fmt.Printf("one 18Kb block at 300 MHz: %.4f W\n",
		vrpower.BRAMWatts(vrpower.Grade2, vrpower.BRAM18Mode, 18*1024, 300))
	// Output:
	// static: 4.5 W (-2), 3.1 W (-1L)
	// one 18Kb block at 300 MHz: 0.0041 W
}

// ExampleAnalyticMergedNodes evaluates the node-sharing model at its
// boundary conditions.
func ExampleAnalyticMergedNodes() {
	m := 16127.0 // one leaf-pushed table
	fmt.Printf("α=1: %.0f nodes (one trie)\n", vrpower.AnalyticMergedNodes(8, m, 1))
	fmt.Printf("α=0: %.0f nodes (no sharing)\n", vrpower.AnalyticMergedNodes(8, m, 0))
	fmt.Printf("α=0.5: %.0f nodes\n", vrpower.AnalyticMergedNodes(8, m, 0.5))
	// Output:
	// α=1: 16127 nodes (one trie)
	// α=0: 129016 nodes (no sharing)
	// α=0.5: 28670 nodes
}

// ExampleCompactTable minimises a routing table with ORTC while preserving
// its forwarding behaviour exactly.
func ExampleCompactTable() {
	tbl, err := vrpower.Generate("edge", 3725, 1)
	if err != nil {
		log.Fatal(err)
	}
	compact := vrpower.CompactTable(tbl)
	fmt.Printf("%d routes -> %d routes\n", tbl.Len(), compact.Len())
	// Output:
	// 3725 routes -> 3295 routes
}
