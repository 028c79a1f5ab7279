package keyed

import (
	"math"
	"testing"
)

// TestSplitMix64KnownValues: a stream keyed 0 is the splitmix64 generator
// from state 0, whose first outputs are the published ones.
func TestSplitMix64KnownValues(t *testing.T) {
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := At(0, uint64(i)+1); got != want {
			t.Errorf("output %d: %#x, want %#x", i, got, want)
		}
	}
}

// TestThresholdEdges: p ≥ 1 always succeeds, p ≤ 0 and NaN never do, and a
// probability in between succeeds below its cut only.
func TestThresholdEdges(t *testing.T) {
	for _, p := range []float64{1, 1.5, math.Inf(1)} {
		if thr := Threshold(p); thr != Always || !Coin(math.MaxUint64, thr) {
			t.Errorf("p = %g: threshold %#x", p, thr)
		}
	}
	for _, p := range []float64{0, -1, math.NaN(), math.Inf(-1)} {
		if thr := Threshold(p); thr != 0 || Coin(0, thr) {
			t.Errorf("p = %g: threshold %#x", p, thr)
		}
	}
	thr := Threshold(0.25)
	if thr != 1<<62 || !Coin(thr-1, thr) || Coin(thr, thr) {
		t.Errorf("p = 0.25: threshold %#x", thr)
	}
}

// TestBelowIsInRange: the high word of u·n lies in [0, n) for the extremes.
func TestBelowIsInRange(t *testing.T) {
	for _, n := range []int{1, 3, 63, 1 << 20} {
		if lo, hi := Below(0, n), Below(math.MaxUint64, n); lo != 0 || hi != n-1 {
			t.Errorf("n = %d: Below spans [%d, %d]", n, lo, hi)
		}
	}
}
