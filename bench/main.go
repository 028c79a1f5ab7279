// Command bench is the repository's benchmark: four workloads over the real
// lookupsim paths, end-to-end metrics a user would see and per-layer metrics
// that say which module moved them. It measures every layer from outside, by
// timing calls into exported functions and reading the program's own
// counters and reports. See README.md beside this file.
//
//	bash bench/run.sh [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] [--selfcheck]
//
// With --workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}; the line before it, prefixed
// "detail ", carries everything else the run measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// manifest is the file that marks the checkout root and names the metrics.
const manifest = "BENCHMARK.json"

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run in this process (default: all, one child process each)")
	flag.Int64Var(&o.seed, "seed", 1, "the only input: tables use it, traffic seed+1, the scenario spec seed+10")
	flag.Float64Var(&o.seconds, "seconds", 30, "host seconds of untraced reps to run per workload (never fewer than the warm-up and 3 timed reps)")
	flag.IntVar(&o.trace, "trace", 0, "1 = also run the traced rep, the -j1 rep, the layer probes and the CLI parity check, and report per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "run two full sets on this code and require them to agree, then every workload at seed 2")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	switch {
	case *selfcheck:
		if err := selfCheck(root, o); err != nil {
			fatal(err)
		}
	case o.workload == "":
		ok := true
		for _, w := range workloads {
			o.workload = w.name
			res, err := runChild(root, o, os.Stdout)
			if err != nil {
				fatal(err)
			}
			ok = ok && res.correct()
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w, found := findWorkload(o.workload)
		if !found {
			fatal(fmt.Errorf("unknown workload %q", o.workload))
		}
		res := runWorkload(root, w, o.seed, o.seconds, o.trace != 0)
		if err := printResult(res, o.trace != 0); err != nil {
			fatal(err)
		}
		if !res.correct() {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// findRoot walks up from the working directory to the checkout root, so the
// benchmark runs the same from the root (run.sh) and from bench/ (go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, manifest)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no %s in the working directory or above it", manifest)
		}
		dir = parent
	}
}

// printResult prints every metric by name with its unit for people, then the
// detail line, then the driver's result line: end-to-end metrics untraced,
// per-layer metrics traced.
func printResult(res *result, traced bool) error {
	fmt.Printf("workload %s  seed %d  GOMAXPROCS=sweep workers=%d  ops %d  failed_ops %d\ndigest %s\n",
		res.Workload, res.Seed, res.Workers, res.Ops, res.FailedOps, res.Digest)
	for _, f := range append(res.Failures, res.HarnessErrors...) {
		fmt.Println("FAILED:", f)
	}
	fmt.Print(table("end-to-end (untraced reps after the warm-up; better quartile)", endToEnd, res.EndToEnd))
	if traced {
		fmt.Print(table("per-layer (traced rep, probes; trace in "+res.Trace+")", perLayer, res.PerLayer))
	}
	detail, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("detail %s\n", detail)

	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := res.EndToEnd
	if traced {
		vals = res.PerLayer
	}
	metrics := map[string]reading{}
	for name, v := range vals {
		metrics[name] = reading{v.Value, v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{res.correct(), res.Ops, res.FailedOps, metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// runChild runs one workload in its own process (this binary again), copies
// what it printed to echo (nil for silence), and returns its detail line. A
// child that exits 1 reported failed checks and still has a detail line.
func runChild(root string, o options, echo *os.File) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", o.workload, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace))
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if echo != nil {
		echo.Write(out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "detail "); ok {
			res := &result{}
			return res, json.Unmarshal([]byte(rest), res)
		}
	}
	return nil, fmt.Errorf("workload %s printed no result: %v", o.workload, err)
}
