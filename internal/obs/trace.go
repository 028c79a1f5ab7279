package obs

// Sampled per-lookup flight tracing. A TraceSampler decides — from nothing
// but the packet's VNID and its deterministic sequence number — whether a
// lookup is traced, so the sampled set is a pure function of the run's
// seeds and identical at any worker count. Traced lookups record their
// traversal through the pipeline stages (which entry was read, which
// shadow bank served it, whether parity refused the word) plus the
// harness-level annotations (backlog displacement by write bubbles,
// drop/forward outcome) into a bounded lock-free ring buffer, dumpable as
// JSONL sorted by sequence number.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"vrpower/internal/keyed"
)

// StageVisit is one pipeline-stage memory access of a traced lookup.
type StageVisit struct {
	// Stage is the pipeline stage index; Entry the stage-memory word read.
	Stage int    `json:"stage"`
	Entry uint32 `json:"entry"`
	// NewBank marks a read served from the shadow (post-update) bank while
	// a hitless update was mid-commit.
	NewBank bool `json:"new_bank,omitempty"`
	// Fault marks the access that terminated the lookup: stale parity or an
	// out-of-range child pointer.
	Fault bool `json:"fault,omitempty"`
}

// FlightTrace is one sampled lookup's lifecycle through the data plane.
// Field order is the JSONL column order; encoding/json preserves it, so a
// dump is byte-stable for a fixed trace set.
type FlightTrace struct {
	// Seq is the lookup's deterministic sequence number (the sampling key
	// alongside VN) — unique within a run, and the dump sort key.
	Seq int64 `json:"seq"`
	// VN is the virtual network the packet belongs to; Engine the pipeline
	// that resolved it, by its index on Device, the simulated FPGA that
	// holds it (omitted for device 0, so a run of one device never names it).
	VN     int `json:"vn"`
	Engine int `json:"engine"`
	Device int `json:"device,omitempty"`
	// Addr is the destination address in dotted-quad form.
	Addr string `json:"addr"`
	// Enter/Exit stamp pipeline entry and exit in run cycles; Wait is the
	// cycles spent queued before entry (nonzero when displaced).
	Enter int64 `json:"enter"`
	Exit  int64 `json:"exit"`
	Wait  int64 `json:"wait,omitempty"`
	// Displaced marks an arrival that waited behind hitless-update write
	// bubbles (or an ingress queue) before entering the pipeline.
	Displaced bool `json:"displaced,omitempty"`
	// Outcome is "forward", "noroute", "drop-fault" (parity refusal),
	// "drop-down" (engine out of service) or "mismatch" (oracle disagree).
	Outcome string `json:"outcome"`
	// NHI is the resolved next-hop index (-1 for no route / drops).
	NHI int `json:"nhi"`
	// Visits is the stage-by-stage traversal, in access order.
	Visits []StageVisit `json:"visits,omitempty"`
}

// TraceSampler makes the deterministic trace decision: a lookup is sampled
// iff a fixed-key hash of (VN, Seq) falls under the rate threshold. No
// state, no clock, no randomness — the same (vn, seq) pair answers the same
// way in every run and at every -j.
type TraceSampler struct {
	threshold uint64
	seed      uint64
}

// NewTraceSampler builds a sampler that traces about rate (in [0,1]) of all
// lookups. seed perturbs the hash so distinct runs can sample distinct
// lookups; the decision stays a pure function of (seed, vn, seq). A rate
// <= 0 samples nothing, >= 1 everything.
func NewTraceSampler(rate float64, seed int64) *TraceSampler {
	return &TraceSampler{threshold: keyed.Threshold(rate), seed: uint64(seed)}
}

// Sample reports whether the lookup with the given VNID and sequence number
// is traced. Safe on a nil sampler (never samples) and allocation-free.
func (s *TraceSampler) Sample(vn int, seq int64) bool {
	if s == nil || s.threshold == 0 {
		return false
	}
	return keyed.Coin(keyed.Mix(keyed.Gamma+(s.seed^uint64(seq)*0xBF58476D1CE4E5B9^uint64(vn+1)*keyed.Gamma)), s.threshold)
}

// TraceRing is a bounded lock-free ring buffer of flight traces. Put is one
// atomic fetch-add plus one atomic pointer store, so engine workers record
// traces concurrently without a lock; once the ring wraps, the oldest
// traces are overwritten in arrival order. Snapshot/WriteJSONL order by Seq,
// so for a sampled volume within capacity the dump is byte-identical at any
// worker count; past capacity the *retained set* depends on arrival order,
// which under -j > 1 is scheduling-dependent — size the ring above the
// expected sample volume when reproducible dumps matter.
type TraceRing struct {
	mask  uint64
	next  atomic.Uint64
	slots []atomic.Pointer[FlightTrace]
}

// NewTraceRing builds a ring holding up to capacity traces (rounded up to a
// power of two, minimum 16).
func NewTraceRing(capacity int) *TraceRing {
	c := 16
	for c < capacity {
		c <<= 1
	}
	return &TraceRing{mask: uint64(c - 1), slots: make([]atomic.Pointer[FlightTrace], c)}
}

// Put records one trace. Safe for concurrent use and on a nil ring (no-op).
func (r *TraceRing) Put(t *FlightTrace) {
	if r == nil {
		return
	}
	i := r.next.Add(1) - 1
	r.slots[i&r.mask].Store(t)
}

// Cap returns the ring capacity.
func (r *TraceRing) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Written returns the total traces ever put (retained + overwritten).
func (r *TraceRing) Written() int64 {
	if r == nil {
		return 0
	}
	return int64(r.next.Load())
}

// Overwritten returns how many traces the ring has dropped to stay bounded.
func (r *TraceRing) Overwritten() int64 {
	if o := r.Written() - int64(r.Cap()); o > 0 {
		return o
	}
	return 0
}

// Snapshot returns the retained traces sorted by Seq. It tolerates
// concurrent Puts (a slot mid-overwrite yields either the old or the new
// trace, never a torn one — slots are atomic pointers).
func (r *TraceRing) Snapshot() []*FlightTrace {
	if r == nil {
		return nil
	}
	out := make([]*FlightTrace, 0, len(r.slots))
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// WriteJSONL dumps the retained traces after a {"schema":N} line, one JSON
// object per line, sorted by Seq. Safe on a nil ring (writes nothing).
func (r *TraceRing) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	if _, err := io.WriteString(w, jsonlSchemaLine); err != nil {
		return err
	}
	for _, t := range r.Snapshot() {
		line, err := json.Marshal(t)
		if err != nil {
			return fmt.Errorf("obs: marshal trace seq %d: %w", t.Seq, err)
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}
