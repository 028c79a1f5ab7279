// Merging trade-off: how much table overlap do virtual networks need before
// the merged scheme pays off? This example merges real generated tables at
// increasing structural overlap, measures the resulting merging efficiency α
// (Assumption 4), compares the empirical merged trie against the analytic
// sharing model T = K·m/(1+(K−1)α), and shows the pointer-saving vs
// NHI-growth trade-off of Fig. 4.
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
	const k = 6
	const prefixes = 2000

	fmt.Fprintf(w, "Merging K=%d tables of %d routes at increasing overlap:\n\n", k, prefixes)
	fmt.Fprintf(w, "%6s  %9s  %14s  %14s  %10s  %10s  %12s\n",
		"share", "α (meas)", "merged nodes", "analytic", "ptr Mb", "NHI Mb", "sep NHI Mb")

	layout := vrpower.DefaultLayout()
	for _, share := range []float64{0.0, 0.25, 0.5, 0.75, 1.0} {
		set, err := vrpower.GenerateVirtualSet(k, prefixes, share, 42)
		if err != nil {
			return err
		}
		m, err := vrpower.MergeTables(set.Tables)
		if err != nil {
			return err
		}
		pre := m.Stats()

		// Mean individual trie size for the analytic model.
		var meanNodes float64
		for _, tbl := range set.Tables {
			tr := vrpower.BuildTrie(tbl.Routes)
			meanNodes += float64(tr.Stats().Nodes)
		}
		meanNodes /= k
		analytic := vrpower.AnalyticMergedNodes(k, meanNodes, pre.Alpha)

		// Memory split after leaf pushing, as the hardware stores it;
		// the separate scheme's NHI (K tries, 1-wide leaves) for contrast.
		m.LeafPush()
		post := m.Stats()
		ptrMb := float64(post.Internal) * 2 * float64(layout.PtrBits) / (1024 * 1024)
		nhiMb := float64(post.Leaves) * float64(k) * float64(layout.NHIBits) / (1024 * 1024)
		var sepNhiMb float64
		for _, tbl := range set.Tables {
			tr := vrpower.BuildTrie(tbl.Routes)
			tr.LeafPush()
			sepNhiMb += float64(tr.Stats().Leaves) * float64(layout.NHIBits) / (1024 * 1024)
		}

		fmt.Fprintf(w, "%6.2f  %9.3f  %14d  %14.0f  %10.2f  %10.2f  %12.2f\n",
			share, pre.Alpha, pre.Nodes, analytic, ptrMb, nhiMb, sepNhiMb)
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Higher overlap → higher α → fewer merged pointer nodes. But every")
	fmt.Fprintln(w, "merged leaf carries a K-wide NHI vector, so merged NHI memory")
	fmt.Fprintln(w, "always exceeds the separate scheme's until the tables are")
	fmt.Fprintln(w, "identical — the trade-off that makes merged routers attractive")
	fmt.Fprintln(w, "only for small K or structurally similar tables (Section V-E).")

	// Show what that does to power: merged router power at low vs high α.
	prof, err := vrpower.PaperProfile()
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	for _, alpha := range []float64{0.2, 0.8} {
		r, err := vrpower.BuildAnalytic(vrpower.Config{
			Scheme: vrpower.VM, K: k, Grade: vrpower.Grade2, ClockGating: true,
		}, prof, alpha)
		if err != nil {
			return err
		}
		b, err := r.ModelPower()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "merged K=%d α=%.0f%%: %.2f W at %.0f MHz → %.1f mW/Gbps\n",
			k, alpha*100, b.Total(), r.Fmax(),
			vrpower.MilliwattsPerGbps(b.Total(), r.ThroughputGbps()))
	}
	return nil
}
