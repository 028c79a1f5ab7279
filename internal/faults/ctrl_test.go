package faults

import "testing"

// TestCtrlInjectorDeterministicDeck: equal seeds deal identical schedules,
// different seeds (eventually) different ones, and the deck composition
// always matches the configured counts.
func TestCtrlInjectorDeterministicDeck(t *testing.T) {
	cfg := CtrlConfig{Seed: 7, Stalls: 3, Torn: 2, FalsePositives: 2, Crashes: 1}
	draw := func(seed int64) []CtrlFault {
		ci, err := NewCtrlInjector(CtrlConfig{Seed: seed, Stalls: 3, Torn: 2, FalsePositives: 2, Crashes: 1})
		if err != nil {
			t.Fatal(err)
		}
		var got []CtrlFault
		for i := 0; i < 7; i++ {
			got = append(got, ci.DrawScrub())
		}
		return got
	}
	a, b := draw(7), draw(7)
	counts := map[CtrlFault]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed dealt different decks: %v vs %v", a, b)
		}
		counts[a[i]]++
	}
	if counts[CtrlStall] != cfg.Stalls || counts[CtrlTorn] != cfg.Torn || counts[CtrlFalsePositive] != cfg.FalsePositives {
		t.Fatalf("deck composition %v does not match config %+v", counts, cfg)
	}
}

// TestCtrlInjectorExhaustion: spent decks deal CtrlNone forever.
func TestCtrlInjectorExhaustion(t *testing.T) {
	ci, err := NewCtrlInjector(CtrlConfig{Seed: 1, Stalls: 1, Crashes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ci.scrubQueue) + ci.crashLeft; n != 3 {
		t.Fatalf("%d faults undealt, want 3", n)
	}
	if f := ci.DrawScrub(); f != CtrlStall {
		t.Fatalf("first scrub draw %s, want stall", f)
	}
	for i := 0; i < 5; i++ {
		if f := ci.DrawScrub(); f != CtrlNone {
			t.Fatalf("spent scrub deck dealt %s", f)
		}
	}
	if f := ci.DrawCommit(); f != CtrlCrash {
		t.Fatalf("first commit draw %s, want crash", f)
	}
	if f := ci.DrawCommit(); f != CtrlCrash {
		t.Fatalf("second commit draw %s, want crash", f)
	}
	for i := 0; i < 5; i++ {
		if f := ci.DrawCommit(); f != CtrlNone {
			t.Fatalf("spent crash budget dealt %s", f)
		}
	}
	if n := len(ci.scrubQueue) + ci.crashLeft; n != 0 {
		t.Fatalf("%d faults undealt after exhaustion", n)
	}
}

// TestCtrlConfigValidation: negative counts and empty configs are rejected.
func TestCtrlConfigValidation(t *testing.T) {
	if _, err := NewCtrlInjector(CtrlConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewCtrlInjector(CtrlConfig{Stalls: -1, Crashes: 2}); err == nil {
		t.Error("negative stalls accepted")
	}
}
