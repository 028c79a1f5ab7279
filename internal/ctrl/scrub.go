package ctrl

// This file implements SEU scrubbing: when detection (per-stage parity,
// the netsim oracle, or a dead-engine heartbeat) flags a corrupted engine,
// the control plane rebuilds the engine's memory image from the
// authoritative routing table and reloads it — the FPGA equivalent of
// configuration-memory scrubbing. A reload writes one word a cycle through
// the configuration port, so its latency in engine cycles (the number the
// MTTR experiments aggregate) is the image's word count. A reload that
// stalls or tears is the watchdog's and the journal's business
// (watchdog.go, journal.go), not a retry here.

import (
	"fmt"
	"time"

	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
)

// Run instrumentation. The latency histogram records engine cycles (one
// observation unit = one cycle), not wall-clock nanoseconds.
var (
	obsScrubsCompleted = obs.NewCounter("ctrl.scrubs_completed")
	obsScrubLatency    = obs.NewHistogram("ctrl.scrub_latency_cycles")
)

// Scrub repairs one engine: rebuild produces a fresh image from the
// authoritative tables, once, and the image is returned for the caller to
// reload at one cycle per word (its Words() are the reload's writes and its
// latency in cycles). The rebuild is deterministic — a copy of the compile
// that built the engine at set-up, or that compile again — so an error would
// recur on any retry and is returned as it is.
func Scrub(rebuild func() (*pipeline.Image, error)) (*pipeline.Image, error) {
	img, err := rebuild()
	if err != nil {
		return nil, fmt.Errorf("ctrl: scrub rebuild: %w", err)
	}
	obsScrubsCompleted.Inc()
	obsScrubLatency.Observe(time.Duration(img.Words()))
	return img, nil
}
