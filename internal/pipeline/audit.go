package pipeline

// This file implements the post-recovery invariant auditor: after every
// journaled recovery (a replayed scrub, a rolled-back commit) the harness
// replays a probe set — addresses with oracle-known next hops — through a
// throwaway parity-checking engine over the live image and cross-checks
// each answer. The invariant is drop-never-misforward: a probe may come
// back Faulted (the parity column caught residual corruption and the packet
// would be dropped), but a resolved probe must match the RIB oracle
// exactly. A mismatch means the recovery left a torn image serving wrong
// next hops — the one outcome the journal exists to prevent.

import (
	"vrpower/internal/ip"
	"vrpower/internal/obs"
)

// Audit instrumentation (surfaced by the cmd tools' -stats flag).
var (
	obsAuditProbes     = obs.NewCounter("pipeline.audit_probes")
	obsAuditMismatches = obs.NewCounter("pipeline.audit_mismatches")
)

// Probe is one audit lookup with its oracle-known answer.
type Probe struct {
	Addr ip.Addr
	// VN is the VNID the probe carries (0 for single-network engines).
	VN int
	// Want is the RIB oracle's answer for Addr in that network.
	Want ip.NextHop
}

// AuditResult summarises one audit pass.
type AuditResult struct {
	// Probes is how many lookups were replayed.
	Probes int
	// Faulted counts probes the parity check terminated: the packet is
	// dropped, which the invariant allows.
	Faulted int
	// Mismatches counts resolved probes whose next hop differed from the
	// oracle — drop-never-misforward violations.
	Mismatches int
}

// Clean reports whether the audit found no misforwarding.
func (r AuditResult) Clean() bool { return r.Mismatches == 0 }

// AuditImage replays probes through a throwaway parity-checking engine over
// img and cross-checks every resolved answer against the oracle. The live
// engine is never touched: the audit builds its own BatchSim over the same
// words (nothing is copied or derived), so stats, bank state and in-flight
// lookups of the real data plane stay unperturbed.
func AuditImage(img *Image, probes []Probe) AuditResult {
	var res AuditResult
	if img == nil || len(probes) == 0 {
		return res
	}
	sim := NewBatchSim(img)
	sim.EnableParityCheck()
	res.Probes = len(probes)
	// One shard, each chunk built from its probes and counted as it resolves;
	// a fresh engine is idle, so the run cannot fail.
	fill := func(start int, reqs []Request) {
		for j := range reqs {
			reqs[j] = Request{Addr: probes[start+j].Addr, VN: probes[start+j].VN}
		}
	}
	sim.RunSharded(len(probes), 1, fill, func(_, start int, rs []Result) {
		for j := range rs {
			switch {
			case rs[j].Faulted:
				res.Faulted++
			case rs[j].NHI != probes[start+j].Want:
				res.Mismatches++
			}
		}
	})
	obsAuditProbes.Add(int64(res.Probes))
	obsAuditMismatches.Add(int64(res.Mismatches))
	return res
}
