// Command ribgen generates synthetic BGP-like routing tables (the Potaroo
// substitute of Section V-E) and writes them in the repo's text format.
//
// Usage:
//
//	ribgen -n 3725 -seed 1 [-o table.rib] [-stats]
//	ribgen -k 8 -share 0.6 -o vn            # writes vn0.rib .. vn7.rib
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

// options collects the parsed flags.
type options struct {
	n     int
	seed  int64
	out   string
	k     int
	share float64
	stats bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command over its arguments and streams: 0 when the tables
// (or their statistics) are written, 1 when one cannot be generated or
// written, 2 on a flag the command does not have or a value a flag cannot
// take.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("ribgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&o.n, "n", 3725, "number of routes")
	fs.Int64Var(&o.seed, "seed", 1, "generator seed")
	fs.StringVar(&o.out, "o", "", "output file (default stdout); with -k > 1, the prefix for <o><i>.rib")
	fs.IntVar(&o.k, "k", 1, "generate a K-table virtual set")
	fs.Float64Var(&o.share, "share", 0.6, "prefix-space share across the virtual set")
	fs.BoolVar(&o.stats, "stats", false, "print trie statistics instead of routes")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(msg string, a ...any) int {
		fmt.Fprintf(stderr, msg+"\n", a...)
		fs.Usage()
		return 2
	}
	switch {
	case o.n < 1:
		return usage("invalid value %d for flag -n: want a count >= 1", o.n)
	case o.k < 1:
		return usage("invalid value %d for flag -k: want a count >= 1", o.k)
	case o.k > 1 && o.out == "":
		return usage("-k > 1 requires -o <prefix>")
	}
	if err := o.generate(stdout); err != nil {
		fmt.Fprintln(stderr, "ribgen:", err)
		return 1
	}
	return 0
}

// generate writes the table — or the -k virtual set, one file per network —
// or prints the one table's trie statistics.
func (o *options) generate(stdout io.Writer) error {
	if o.k > 1 {
		set, err := rib.GenerateVirtualSet(o.k, o.n, o.share, o.seed)
		if err != nil {
			return err
		}
		for i, tbl := range set.Tables {
			name := fmt.Sprintf("%s%d.rib", o.out, i)
			if err := writeTable(tbl, name); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s (%d routes)\n", name, tbl.Len())
		}
		return nil
	}

	tbl, err := rib.Generate("ribgen", o.n, o.seed)
	if err != nil {
		return err
	}
	switch {
	case o.stats:
		tr := trie.Build(tbl.Routes)
		plain, pushed := tr.Stats(), trie.StatsOf(tr.Levels())
		fmt.Fprintf(stdout, "routes:             %d\n", tbl.Len())
		fmt.Fprintf(stdout, "trie nodes:         %d\n", plain.Nodes)
		fmt.Fprintf(stdout, "trie leaves:        %d\n", plain.Leaves)
		fmt.Fprintf(stdout, "leaf-pushed nodes:  %d\n", pushed.Nodes)
		fmt.Fprintf(stdout, "height:             %d\n", plain.Height)
		return nil
	case o.out == "":
		return tbl.Write(stdout)
	}
	if err := writeTable(tbl, o.out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d routes)\n", o.out, tbl.Len())
	return nil
}

func writeTable(tbl *rib.Table, name string) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := tbl.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
