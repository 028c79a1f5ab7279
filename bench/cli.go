package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"time"
)

// buildDir holds everything the benchmark compiles or scribbles, inside the
// checkout (run.sh puts the Go build cache there too).
const buildDir = ".bench_build"

var (
	cliDelivered  = regexp.MustCompile(`(?m)^Delivered fraction\s+(\S+)`)
	cliMismatches = regexp.MustCompile(`(?m)^(?:Oracle mismatches|Mismatches vs reference LPM)\s+(\d+)`)
)

// cliArgs are the lookupsim flags that reproduce the workload's rep.
func cliArgs(w workload, seed int64, workers int, outDir string) []string {
	args := []string{
		"-scheme", w.scheme.String(), "-k", strconv.Itoa(w.k), "-prefixes", strconv.Itoa(w.prefixes),
		"-share", "0.5", "-seed", strconv.FormatInt(seed, 10), "-j", strconv.Itoa(workers),
		"-timeseries-out", filepath.Join(outDir, "series.csv"),
		"-events-out", filepath.Join(outDir, "events.jsonl"),
	}
	if w.packets > 0 {
		return append(args, "-packets", strconv.Itoa(w.packets))
	}
	return append(args, "-scenario", w.spec())
}

// cliParity builds cmd/lookupsim, runs it on the workload's flags and spec,
// and requires its delivered fraction, oracle-mismatch count and exit status
// to match the in-process rep. It returns the binary's wall time, which ties
// the in-process numbers to a real lookupsim run.
func cliParity(root string, w workload, seed int64, workers int, want repOut) (float64, error) {
	outDir := filepath.Join(root, buildDir, "cli-"+w.name)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 0, err
	}
	bin := filepath.Join(root, buildDir, "lookupsim")
	build := exec.Command("go", "build", "-o", bin, "./cmd/lookupsim")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/lookupsim: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, cliArgs(w, seed, workers, outDir)...)
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start).Seconds()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return wall, fmt.Errorf("lookupsim: %w", err)
	}

	// The in-process checks are a superset of lookupsim's exit conditions;
	// on a passing rep both must agree on success.
	if failed := err != nil; failed != (want.fail != "") {
		return wall, fmt.Errorf("lookupsim exit %v (stderr %q), in-process rep failure %q", err, stderr.String(), want.fail)
	}
	m := cliMismatches.FindSubmatch(stdout.Bytes())
	if m == nil {
		return wall, fmt.Errorf("lookupsim printed no mismatch count")
	}
	if got, _ := strconv.ParseInt(string(m[1]), 10, 64); got != want.cliMismatches {
		return wall, fmt.Errorf("lookupsim counted %d oracle mismatches, in-process rep %d", got, want.cliMismatches)
	}
	if want.cliDelivered != "" {
		m := cliDelivered.FindSubmatch(stdout.Bytes())
		if m == nil || string(m[1]) != want.cliDelivered {
			return wall, fmt.Errorf("lookupsim delivered fraction %q, in-process rep %s", m, want.cliDelivered)
		}
	}
	return wall, nil
}
