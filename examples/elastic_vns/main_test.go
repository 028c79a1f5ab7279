package main

import (
	"strings"
	"testing"
)

// want is everything the example prints: a number that moves fails the test.
const want = `=== VS data plane ===
  add tenant -> K= 3: 2419 words written, 1 nets disrupted, 4.68 W
  add tenant -> K= 4: 2247 words written, 1 nets disrupted, 4.68 W
  add tenant -> K= 5: 2341 words written, 1 nets disrupted, 4.68 W
  add tenant -> K=10: 2467 words written, 1 nets disrupted, 4.66 W
  add tenant -> K=15: 2349 words written, 1 nets disrupted, 4.63 W
  add tenant 16: fpga: I/O pins exceeds XC6VLX760 capacity: need 1212, have 1200
  churn (50 ops on tenant 0): 1151 writes, 252 bubbles, 1 nets disrupted
  remove tenant 1: K=14, 1 nets disrupted

=== VM data plane ===
  add tenant -> K= 3: 5830 words written, 3 nets disrupted, 4.68 W
  add tenant -> K= 4: 8227 words written, 4 nets disrupted, 4.68 W
  add tenant -> K= 5: 10343 words written, 5 nets disrupted, 4.69 W
  add tenant -> K=10: 19325 words written, 10 nets disrupted, 4.83 W
  add tenant -> K=15: 31764 words written, 15 nets disrupted, 5.02 W
  add tenant -> K=20: 41336 words written, 20 nets disrupted, 5.27 W
  ... stopping the experiment at K=24
  churn (50 ops on tenant 0): 25564 writes, 6627 bubbles, 24 nets disrupted
  remove tenant 1: K=23, 24 nets disrupted

The separate plane isolates every change to one tenant but hits
the I/O wall at 15 engines; the merged plane keeps growing yet
every change shakes all tenants — the paper's scalability
trade-off, seen from the control plane.
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
