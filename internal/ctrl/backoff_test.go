package ctrl

import "testing"

// Zero jitter must reproduce the plain doubling schedule exactly:
// Delay(n) == Base << (n-1).
func TestBackoffZeroJitterMatchesExponential(t *testing.T) {
	b := Backoff{Base: 512}
	for n := 1; n <= 8; n++ {
		want := int64(512) << (n - 1)
		if got := b.Delay(n); got != want {
			t.Errorf("Delay(%d) = %d, want %d", n, got, want)
		}
	}
	if got := b.Delay(0); got != 0 {
		t.Errorf("Delay(0) = %d, want 0", got)
	}
	if got := (Backoff{}).Delay(3); got != 0 {
		t.Errorf("zero-base Delay(3) = %d, want 0", got)
	}
}

func TestBackoffMaxClampsAndOverflowSaturates(t *testing.T) {
	b := Backoff{Base: 512, Max: 2048}
	for n, want := range map[int]int64{1: 512, 2: 1024, 3: 2048, 4: 2048, 10: 2048} {
		if got := b.Delay(n); got != want {
			t.Errorf("Delay(%d) = %d, want %d", n, got, want)
		}
	}
	// A shift past 63 bits must not wrap negative.
	wide := Backoff{Base: 1 << 40}
	if got := wide.Delay(40); got <= 0 {
		t.Errorf("overflowing Delay(40) = %d, want a positive saturation", got)
	}
}

func TestBackoffJitterBoundedAndDeterministic(t *testing.T) {
	b := Backoff{Base: 1024, Jitter: 0.5, Seed: 7}
	for n := 1; n <= 16; n++ {
		full := Backoff{Base: 1024}.Delay(n)
		got := b.Delay(n)
		if got < 1 || got > full {
			t.Errorf("Delay(%d) = %d outside (0, %d]", n, got, full)
		}
		if got < full/2 {
			t.Errorf("Delay(%d) = %d below the 50%% jitter floor %d", n, got, full/2)
		}
		if again := b.Delay(n); again != got {
			t.Errorf("Delay(%d) not deterministic: %d then %d", n, got, again)
		}
	}
}

func TestBackoffSeedsDiverge(t *testing.T) {
	a := Backoff{Base: 1 << 20, Jitter: 1, Seed: 1}
	b := Backoff{Base: 1 << 20, Jitter: 1, Seed: 2}
	same := 0
	for n := 1; n <= 8; n++ {
		if a.Delay(n) == b.Delay(n) {
			same++
		}
	}
	if same == 8 {
		t.Error("different seeds produced identical jitter on all 8 attempts")
	}
}
