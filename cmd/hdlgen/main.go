// Command hdlgen emits a compiled lookup pipeline as synthesizable Verilog:
// the generic stage module, the chained top-level, per-stage $readmemh
// memory images, and a self-checking testbench whose expected next hops
// come from the Go simulator. Run the bench with
// `iverilog -o tb *.v && vvp tb` where a simulator is available.
//
// Usage:
//
//	hdlgen -o rtl/ [-k 3] [-prefixes 500] [-share 0.5] [-name vrlookup]
//	       [-vectors 32] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"vrpower/internal/hdl"
	"vrpower/internal/merge"
	"vrpower/internal/pipeline"
	"vrpower/internal/rib"
	"vrpower/internal/traffic"
	"vrpower/internal/trie"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hdlgen: ")
	var (
		out      = flag.String("o", "rtl", "output directory")
		k        = flag.Int("k", 1, "number of virtual networks (merged engine when > 1)")
		prefixes = flag.Int("prefixes", 500, "routes per network")
		share    = flag.Float64("share", 0.5, "prefix-space share across networks")
		name     = flag.String("name", "vrlookup", "top module name")
		vectors  = flag.Int("vectors", 32, "self-checking testbench probes")
		seed     = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()

	var img *pipeline.Image
	var tables []*rib.Table
	if *k > 1 {
		set, err := rib.GenerateVirtualSet(*k, *prefixes, *share, *seed)
		if err != nil {
			log.Fatal(err)
		}
		tables = set.Tables
		m, err := merge.Build(tables)
		if err != nil {
			log.Fatal(err)
		}
		m.LeafPush()
		img, err = pipeline.CompileMerged(m, m.Stats().Height+1)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		tbl, err := rib.Generate("rtl", rib.DefaultGen(*prefixes, *seed))
		if err != nil {
			log.Fatal(err)
		}
		tables = []*rib.Table{tbl}
		tr := trie.Build(tbl.Routes)
		tr.LeafPush()
		img, err = pipeline.Compile(tr, tr.Stats().Height+1)
		if err != nil {
			log.Fatal(err)
		}
	}

	gen, err := traffic.New(traffic.Config{K: *k, Seed: *seed + 1, Addr: traffic.RoutedAddr, Tables: tables})
	if err != nil {
		log.Fatal(err)
	}
	reqs := gen.Requests(*vectors)

	d, err := hdl.Emit(img, pipeline.DefaultLayout(), *name, reqs)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	for _, f := range d.FileNames() {
		if err := os.WriteFile(filepath.Join(*out, f), []byte(d.Files[f]), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("wrote %d files to %s (top module %s, %d-bit words, %d stages, %d probes)\n",
		len(d.Files), *out, d.Top, d.WordBits, img.Stages(), len(reqs))
	fmt.Printf("simulate: cd %s && iverilog -o tb %s_stage.v %s.v %s_tb.v && vvp tb\n",
		*out, d.Top, d.Top, d.Top)
}
