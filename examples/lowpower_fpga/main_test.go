package main

import (
	"strings"
	"testing"
)

// want is everything the example prints: a number that moves fails the test.
const want = `Grade -2 vs -1L at K=8 (model power):

scheme         -2 (W)    -1L (W)    saving   -2 mW/Gbps  -1L mW/Gbps
NV              36.19      24.91     31.2%        47.50        45.41
VS               4.68       3.20     31.5%         6.72         6.39
VM               4.85       3.30     31.9%        61.13        57.79

The cost of -1L is clock rate: 196 MHz vs 272 MHz (28.0% less
throughput: 501 vs 696 Gbps). Low-power grades therefore suit
deployments where bandwidth headroom, not efficiency, is spare —
the paper's conclusion for green edge networks.
`

func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != want {
		t.Errorf("output changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
