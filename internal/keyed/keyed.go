// Package keyed is the module's one keyed draw: the splitmix64 finaliser
// over a key naming the seed and what is drawn, at an index, so no draw
// depends on another; a bounded int is the high word of u·n, a Bernoulli
// outcome a threshold test. Traffic, the trace sampler and ctrl.Backoff
// draw through it.
package keyed

import (
	"math"
	"math/bits"
)

// Gamma is splitmix64's increment, 2⁶⁴/φ: a stream's index i reads the
// finaliser at key + i·Gamma.
const Gamma = 0x9e3779b97f4a7c15

// Mix is the splitmix64 finaliser, a bijection on 64-bit words.
func Mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Key names one stream: the seed, what it draws (purpose) and the network.
func Key(seed int64, purpose, vn int) uint64 {
	return Mix(Mix(uint64(seed)) ^ uint64(purpose)<<32 ^ uint64(vn))
}

// At is stream k's value at index i.
func At(k, i uint64) uint64 { return Mix(k + i*Gamma) }

// Below maps u onto [0, n): the high word of u·n, no division.
func Below(u uint64, n int) int {
	hi, _ := bits.Mul64(u, uint64(n))
	return int(hi)
}

// Always is the threshold of probability 1: floor(p·2⁶⁴) for p < 1 is at
// most 2⁶⁴ − 2¹¹, so no other probability maps to it.
const Always = math.MaxUint64

// Threshold is Bernoulli(p)'s cut: u is a success when u < Threshold(p), or
// always when it is Always. p ≤ 0 (or NaN) never succeeds.
func Threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return Always
	}
	return uint64(p * (1 << 64))
}

// Coin is one Bernoulli outcome of u against a threshold.
func Coin(u, thr uint64) bool { return u < thr || thr == Always }
