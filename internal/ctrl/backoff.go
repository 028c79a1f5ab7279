package ctrl

import "vrpower/internal/keyed"

// Backoff is the shared deterministic retry/recovery pacing policy: the
// power governor's de-escalation and the fleet controller's migration
// retries both wait through it. Attempt n pauses Base<<(n-1) cycles,
// clamped to Max, minus a seeded pseudo-random jitter of up to Jitter of the
// pause. The jitter stream is a pure function of (Seed, attempt) — no global
// RNG, no wall clock — so equal configurations yield equal delays and
// governed or fleet runs stay byte-identical at any worker count.
type Backoff struct {
	// Base is the pause before attempt 1 in cycles; it doubles per attempt.
	Base int64
	// Max caps any single pause; 0 leaves the doubling unbounded.
	Max int64
	// Jitter subtracts up to this fraction of the pause (clamped to [0,1]);
	// 0 keeps the exact exponential schedule.
	Jitter float64
	// Seed drives the jitter stream.
	Seed int64
}

// Delay returns the pause before attempt n (1-based) in cycles. Attempts
// below 1 and non-positive bases cost nothing.
func (b Backoff) Delay(attempt int) int64 {
	if attempt < 1 || b.Base <= 0 {
		return 0
	}
	d := b.Base
	for i := 1; i < attempt; i++ {
		d <<= 1
		if d <= 0 {
			// Shift overflow: saturate; Max (when set) re-clamps below.
			d = int64(^uint64(0) >> 1)
			break
		}
		if b.Max > 0 && d >= b.Max {
			break
		}
	}
	if b.Max > 0 && d > b.Max {
		d = b.Max
	}
	if b.Jitter > 0 {
		j := b.Jitter
		if j > 1 {
			j = 1
		}
		// One splitmix64 step spreads (Seed, attempt) over the jitter space.
		u := float64(keyed.Mix(keyed.Gamma+(uint64(b.Seed)^uint64(attempt)*keyed.Gamma))>>11) / (1 << 53)
		d -= int64(j * u * float64(d))
		if d < 1 {
			d = 1
		}
	}
	return d
}
