package faults

// This file injects CONTROL-plane faults — failures of the recovery
// machinery itself rather than of the engines it repairs. Where the base
// Injector corrupts memory and kills engines, the CtrlInjector stalls a
// scrub reload past its watchdog deadline, tears a multi-stage reload
// mid-write, fires the watchdog spuriously while a reload is healthy, and
// crashes a hitless updater between its shadow writes and the bank-flip
// commit. Faults are drawn at journal boundaries (one draw per supervised
// operation), from a seeded shuffle, so the schedule is a pure function of
// the seed — chaos runs stay byte-identical at any worker count.

import (
	"fmt"
	"math/rand"

	"vrpower/internal/obs"
)

// Run instrumentation (surfaced by the cmd tools' -stats flag).
var (
	obsCtrlStalls   = obs.NewCounter("faults.ctrl_stalls_injected")
	obsCtrlTorn     = obs.NewCounter("faults.ctrl_torn_injected")
	obsCtrlFalsePos = obs.NewCounter("faults.ctrl_false_positives_injected")
	obsCtrlCrashes  = obs.NewCounter("faults.ctrl_crashes_injected")
)

// CtrlFault is one control-plane fault class.
type CtrlFault int

const (
	// CtrlNone: the operation proceeds unmolested.
	CtrlNone CtrlFault = iota
	// CtrlStall: the scrub reload hangs — it never completes on its own, so
	// only the watchdog deadline can unstick it (reload stall/timeout).
	CtrlStall
	// CtrlTorn: the reload crashes mid-write, leaving half the stages on
	// the new image and half on the old (torn multi-stage write).
	CtrlTorn
	// CtrlFalsePositive: the reload is healthy but the watchdog fires
	// anyway; the supervisor must recognise progress and extend, not kill.
	CtrlFalsePositive
	// CtrlCrash: a hitless updater dies after its shadow writes but before
	// the bank-flip commit (crash-before-commit).
	CtrlCrash
)

// String names the fault class.
func (f CtrlFault) String() string {
	switch f {
	case CtrlNone:
		return "none"
	case CtrlStall:
		return "stall"
	case CtrlTorn:
		return "torn"
	case CtrlFalsePositive:
		return "falsepos"
	case CtrlCrash:
		return "crash"
	default:
		return fmt.Sprintf("CtrlFault(%d)", int(f))
	}
}

// CtrlConfig parameterises a CtrlInjector: how many of each fault class to
// inject over the run. The zero value injects nothing.
type CtrlConfig struct {
	// Seed drives the injection order; equal seeds give equal schedules.
	Seed int64
	// Stalls, Torn and FalsePositives are drawn (in seeded-shuffle order)
	// one per scrub reload; Crashes are drawn one per hitless commit.
	Stalls         int
	Torn           int
	FalsePositives int
	Crashes        int
}

// Total returns the number of faults the config injects.
func (c CtrlConfig) Total() int {
	return c.Stalls + c.Torn + c.FalsePositives + c.Crashes
}

// Validate reports configuration errors.
func (c CtrlConfig) Validate() error {
	if c.Stalls < 0 || c.Torn < 0 || c.FalsePositives < 0 || c.Crashes < 0 {
		return fmt.Errorf("faults: negative ctrl fault counts (stall %d, torn %d, falsepos %d, crash %d)",
			c.Stalls, c.Torn, c.FalsePositives, c.Crashes)
	}
	if c.Total() < 1 {
		return fmt.Errorf("faults: ctrl injector with no faults to inject")
	}
	return nil
}

// CtrlInjector deals control-plane faults at journal boundaries. Scrub
// faults (stall, torn, false positive) form one seeded-shuffle deck drawn
// once per reload attempt; crashes are a separate budget drawn once per
// hitless commit (a crash is only meaningful on the commit path).
type CtrlInjector struct {
	scrubQueue []CtrlFault
	crashLeft  int
}

// NewCtrlInjector builds the injector. The scrub deck's order is a seeded
// shuffle of the configured stall/torn/false-positive counts.
func NewCtrlInjector(cfg CtrlConfig) (*CtrlInjector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	deck := make([]CtrlFault, 0, cfg.Stalls+cfg.Torn+cfg.FalsePositives)
	for i := 0; i < cfg.Stalls; i++ {
		deck = append(deck, CtrlStall)
	}
	for i := 0; i < cfg.Torn; i++ {
		deck = append(deck, CtrlTorn)
	}
	for i := 0; i < cfg.FalsePositives; i++ {
		deck = append(deck, CtrlFalsePositive)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return &CtrlInjector{scrubQueue: deck, crashLeft: cfg.Crashes}, nil
}

// DrawScrub deals the next scrub-reload fault (CtrlNone once the deck is
// spent). Called once per reload attempt, so a retried reload re-draws —
// a stall can be followed by a torn write on the retry.
func (ci *CtrlInjector) DrawScrub() CtrlFault {
	if len(ci.scrubQueue) == 0 {
		return CtrlNone
	}
	f := ci.scrubQueue[0]
	ci.scrubQueue = ci.scrubQueue[1:]
	switch f {
	case CtrlStall:
		obsCtrlStalls.Inc()
	case CtrlTorn:
		obsCtrlTorn.Inc()
	case CtrlFalsePositive:
		obsCtrlFalsePos.Inc()
	}
	return f
}

// DrawCommit deals the next hitless-commit fault: CtrlCrash while the
// crash budget lasts, CtrlNone after.
func (ci *CtrlInjector) DrawCommit() CtrlFault {
	if ci.crashLeft == 0 {
		return CtrlNone
	}
	ci.crashLeft--
	obsCtrlCrashes.Inc()
	return CtrlCrash
}
