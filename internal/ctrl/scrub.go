package ctrl

// This file implements SEU scrubbing: when detection (per-stage parity,
// the netsim oracle, or a dead-engine heartbeat) flags a corrupted engine,
// the control plane rebuilds the engine's memory image from the
// authoritative routing table and reloads it — the FPGA equivalent of
// configuration-memory scrubbing. Reloads can themselves fail mid-flight
// (a reconfiguration fault), so the scrubber retries under a bounded
// budget with exponential backoff and reports the total repair latency in
// engine cycles, the number the MTTR experiments aggregate.

import (
	"fmt"
	"time"

	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
)

// Run instrumentation. The latency histogram records engine cycles (one
// observation unit = one cycle), not wall-clock nanoseconds.
var (
	obsScrubsCompleted     = obs.NewCounter("ctrl.scrubs_completed")
	obsScrubAttemptsFailed = obs.NewCounter("ctrl.scrub_attempts_failed")
	obsScrubsExhausted     = obs.NewCounter("ctrl.scrubs_exhausted")
	obsScrubLatency        = obs.NewHistogram("ctrl.scrub_latency_cycles")
)

// ScrubPolicy bounds the scrubber's retry loop and prices a reload.
type ScrubPolicy struct {
	// MaxAttempts is the total rebuild+reload attempts before the scrubber
	// gives the engine up as dead.
	MaxAttempts int
	// BackoffCycles is the pause before the second attempt; it doubles on
	// every further retry (exponential backoff).
	BackoffCycles int64
	// BackoffJitter subtracts up to this fraction of each backoff pause,
	// drawn deterministically from BackoffSeed (0 keeps the exact
	// exponential schedule — the legacy behaviour).
	BackoffJitter float64
	// BackoffSeed seeds the jitter stream; equal seeds give equal pauses.
	BackoffSeed int64
	// WriteCycles is the cost of rewriting one stage-memory word during a
	// reload (writes are serialised through the configuration port).
	WriteCycles int64
}

// Backoff returns the policy's retry pacing as the shared Backoff helper.
func (p ScrubPolicy) Backoff() Backoff {
	return Backoff{Base: p.BackoffCycles, Jitter: p.BackoffJitter, Seed: p.BackoffSeed}
}

// DefaultScrubPolicy allows four attempts with a 512-cycle base backoff and
// one cycle per word written.
func DefaultScrubPolicy() ScrubPolicy {
	return ScrubPolicy{MaxAttempts: 4, BackoffCycles: 512, WriteCycles: 1}
}

// withDefaults fills zero fields.
func (p ScrubPolicy) withDefaults() ScrubPolicy {
	d := DefaultScrubPolicy()
	if p.MaxAttempts == 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BackoffCycles == 0 {
		p.BackoffCycles = d.BackoffCycles
	}
	if p.WriteCycles == 0 {
		p.WriteCycles = d.WriteCycles
	}
	return p
}

// Validate reports policy errors.
func (p ScrubPolicy) Validate() error {
	if p.MaxAttempts < 1 {
		return fmt.Errorf("ctrl: scrub MaxAttempts %d, want >= 1", p.MaxAttempts)
	}
	if p.BackoffCycles < 0 || p.WriteCycles < 0 {
		return fmt.Errorf("ctrl: negative scrub costs (backoff %d, write %d)", p.BackoffCycles, p.WriteCycles)
	}
	if p.BackoffJitter < 0 || p.BackoffJitter > 1 {
		return fmt.Errorf("ctrl: scrub backoff jitter %g outside [0,1]", p.BackoffJitter)
	}
	return nil
}

// ReconfigFailer injects mid-flight reconfiguration failures; each call
// consumes one failure from a budget and reports whether this attempt
// fails. faults.Injector implements it. A nil failer never fails.
type ReconfigFailer interface {
	FailReconfig() bool
}

// ScrubResult describes one completed repair.
type ScrubResult struct {
	// Image is the rebuilt, parity-clean engine image to install.
	Image *pipeline.Image
	// Attempts is how many rebuild+reload rounds were needed (1 = clean).
	Attempts int
	// Writes is the word count of the final successful load.
	Writes int
	// LatencyCycles is the full repair latency: every attempt's reload
	// writes plus the exponential backoff between attempts.
	LatencyCycles int64
}

// Scrubber rebuilds and reloads corrupted engine images under a bounded
// retry budget.
type Scrubber struct {
	pol    ScrubPolicy
	failer ReconfigFailer
	// log is the optional unified event sink for attempt-level outcomes
	// the caller cannot see (mid-flight reconfiguration failures).
	log *obs.EventLog
}

// SetEventLog attaches a structured event sink for attempt-level scrub
// outcomes; nil detaches (the Log method is nil-safe).
func (s *Scrubber) SetEventLog(l *obs.EventLog) { s.log = l }

// NewScrubber builds a scrubber. Zero policy fields take defaults; failer
// may be nil (reloads then never fail).
func NewScrubber(pol ScrubPolicy, failer ReconfigFailer) (*Scrubber, error) {
	pol = pol.withDefaults()
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	return &Scrubber{pol: pol, failer: failer}, nil
}

// Policy returns the effective (default-filled) policy.
func (s *Scrubber) Policy() ScrubPolicy { return s.pol }

// Scrub repairs one engine: rebuild produces a fresh image from the
// authoritative tables, and the reload is attempted under the bounded
// retry + exponential backoff policy. On success the result carries the
// clean image and the accumulated repair latency; when every attempt fails
// the engine stays dead and an error is returned (the partial result still
// reports the attempts and latency spent).
func (s *Scrubber) Scrub(rebuild func() (*pipeline.Image, error)) (ScrubResult, error) {
	var res ScrubResult
	bo := s.pol.Backoff()
	for attempt := 1; attempt <= s.pol.MaxAttempts; attempt++ {
		res.Attempts = attempt
		if attempt > 1 {
			res.LatencyCycles += bo.Delay(attempt - 1)
		}
		img, err := rebuild()
		if err != nil {
			// The rebuild itself is deterministic, so a compile failure
			// will not heal on retry; surface it immediately.
			return res, fmt.Errorf("ctrl: scrub rebuild: %w", err)
		}
		words := img.Words()
		res.LatencyCycles += int64(words) * s.pol.WriteCycles
		if s.failer != nil && s.failer.FailReconfig() {
			// Mid-flight reconfiguration failure: the writes were spent but
			// the load is void; back off and retry.
			obsScrubAttemptsFailed.Inc()
			s.log.Log(obs.LevelWarn, -1, "scrub_attempt_failed",
				"attempt", attempt, "writes_voided", words)
			continue
		}
		res.Image = img
		res.Writes = words
		obsScrubsCompleted.Inc()
		obsScrubLatency.Observe(time.Duration(res.LatencyCycles))
		return res, nil
	}
	obsScrubsExhausted.Inc()
	s.log.Log(obs.LevelError, -1, "scrub_exhausted", "attempts", s.pol.MaxAttempts)
	return res, fmt.Errorf("ctrl: scrub failed after %d attempts: %w", s.pol.MaxAttempts, ErrScrubExhausted)
}

// ScrubNetwork repairs network vn's engine on the managed router: a fresh
// copy of the engine's pristine image (the compilation of the live table
// set under the manager's pinned stage map) is reloaded through the
// scrubber, and the result's Image is the caller's to install. The manager
// is marked reloading for the duration, so concurrent lifecycle mutations
// are rejected instead of racing the reload (the merged scheme reloads the
// shared structure, so vn only selects the triggering network there).
func (m *Manager) ScrubNetwork(vn int, sc *Scrubber) (ScrubResult, error) {
	if vn < 0 || vn >= len(m.tables) {
		return ScrubResult{}, fmt.Errorf("ctrl: network %d outside [0,%d)", vn, len(m.tables))
	}
	if err := m.BeginReload(); err != nil {
		return ScrubResult{}, err
	}
	defer m.EndReload()
	return sc.Scrub(func() (*pipeline.Image, error) { return m.PinnedImage(m.engineOf(vn)) })
}
