package main

import (
	"strings"
	"testing"
)

// want is everything the example prints: a number that moves fails the test.
const want = `virtualized-separate, K=8 on XC6VLX760
  clock:      272.0 MHz
  throughput: 696.2 Gbps (40 B packets)
  power:      4.67 W model / 4.65 W measured (err +0.49%)
  efficiency: 6.68 mW/Gbps
  forwarded:  20000 packets, 0 mismatches vs reference LPM
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
