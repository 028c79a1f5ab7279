package main

import (
	"strings"
	"testing"
)

// want is everything the example prints: a number that moves fails the test.
const want = `Consolidating K edge networks (3725 routes each, grade -2):

  K        NV (W)        VS (W)      VM80 (W)   VS saving   VM saving
  2          9.14          4.72          4.68        1.9x        2.0x
  4         18.09          4.71          4.69        3.8x        3.9x
  8         36.17          4.65          4.82        7.8x        7.5x
 12         53.86          4.62          4.83       11.7x       11.1x
 15         66.89          4.62          4.85       14.5x       13.8x

The non-virtualized fleet pays one device's static power per
network; both virtualized schemes share it, so the saving grows
in proportion to K (Section VI-A of the paper).

K=15 separate: fits the device
K=16 separate: fpga: I/O pins exceeds XC6VLX760 capacity: need 1212, have 1200
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
