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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"vrpower/internal/hdl"
	"vrpower/internal/pipeline"
	"vrpower/internal/rib"
	"vrpower/internal/traffic"
)

// options collects the parsed flags.
type options struct {
	out      string
	k        int
	prefixes int
	share    float64
	name     string
	vectors  int
	seed     int64
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command over its arguments and streams: 0 when the files
// are written, 1 on a design that cannot be generated, 2 on a flag the
// command does not have.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("hdlgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.out, "o", "rtl", "output directory")
	fs.IntVar(&o.k, "k", 1, "number of virtual networks (merged engine when > 1)")
	fs.IntVar(&o.prefixes, "prefixes", 500, "routes per network")
	fs.Float64Var(&o.share, "share", 0.5, "prefix-space share across networks")
	fs.StringVar(&o.name, "name", "vrlookup", "top module name")
	fs.IntVar(&o.vectors, "vectors", 32, "self-checking testbench probes")
	fs.Int64Var(&o.seed, "seed", 1, "generator seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := o.generate(stdout); err != nil {
		fmt.Fprintln(stderr, "hdlgen:", err)
		return 1
	}
	return 0
}

// generate compiles the tables' image, emits its RTL into the output
// directory and prints the summary.
func (o *options) generate(stdout io.Writer) error {
	if o.vectors < 0 {
		return fmt.Errorf("-vectors %d: want a count >= 0", o.vectors)
	}
	var tables []*rib.Table
	if o.k > 1 {
		set, err := rib.GenerateVirtualSet(o.k, o.prefixes, o.share, o.seed)
		if err != nil {
			return err
		}
		tables = set.Tables
	} else {
		tbl, err := rib.Generate("rtl", o.prefixes, o.seed)
		if err != nil {
			return err
		}
		tables = []*rib.Table{tbl}
	}
	// One stage a level: the image's stages are the trie's levels.
	img, err := pipeline.Compile(tables, len(pipeline.NewRoutes(tables).Levels))
	if err != nil {
		return err
	}

	gen, err := traffic.New(traffic.Config{K: o.k, Seed: o.seed + 1, Addr: traffic.RoutedAddr, Tables: tables})
	if err != nil {
		return err
	}
	reqs := gen.Requests(o.vectors)

	d, err := hdl.Emit(img, pipeline.DefaultLayout(), o.name, reqs)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	for _, f := range d.FileNames() {
		if err := os.WriteFile(filepath.Join(o.out, f), []byte(d.Files[f]), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "wrote %d files to %s (top module %s, %d-bit words, %d stages, %d probes)\n",
		len(d.Files), o.out, d.Top, d.WordBits, img.Stages(), len(reqs))
	fmt.Fprintf(stdout, "simulate: cd %s && iverilog -o tb %s_stage.v %s.v %s_tb.v && vvp tb\n",
		o.out, d.Top, d.Top, d.Top)
	return nil
}
