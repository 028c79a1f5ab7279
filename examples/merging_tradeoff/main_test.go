package main

import (
	"strings"
	"testing"
)

// want is everything the example prints: a number that moves fails the test.
const want = `Merging K=6 tables of 2000 routes at increasing overlap:

 share   α (meas)    merged nodes        analytic      ptr Mb      NHI Mb    sep NHI Mb
  0.00      0.025           31093           29004        0.89        1.19          0.21
  0.25      0.073           24805           23696        0.71        0.95          0.21
  0.50      0.171           18619           18179        0.54        0.71          0.22
  0.75      0.349           12043           11913        0.35        0.46          0.21
  1.00      1.000            5443            5443        0.16        0.21          0.21

Higher overlap → higher α → fewer merged pointer nodes. But every
merged leaf carries a K-wide NHI vector, so merged NHI memory
always exceeds the separate scheme's until the tables are
identical — the trade-off that makes merged routers attractive
only for small K or structurally similar tables (Section V-E).

merged K=6 α=20%: 4.96 W at 239 MHz → 64.8 mW/Gbps
merged K=6 α=80%: 4.74 W at 267 MHz → 55.5 mW/Gbps
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
