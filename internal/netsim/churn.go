package netsim

// The churn stressor of the composed runner: the control plane pushes churn
// batches into the serving engines as write bubbles — no reload, no
// blackhole. At each slice boundary the coordinator commits a finished
// update and arms the next one (update.Churn → ctrl.BeginHitlessUpdate →
// pipeline.BatchSim.BeginUpdate); inside a slice each engine spends its
// input slots on pending bubbles first, lookups second — a displaced
// arrival waits in its ingress queue, so with queues deep enough updates
// delay packets but never drop them. Every result is checked against the
// reference table of the epoch it was injected in: the oracle for the
// updated network flips to the post-update table exactly when the commit
// bubble enters the pipeline, mirroring the shadow-bank flip inside the sim.

import (
	"vrpower/internal/obs"
	"vrpower/internal/scenario"
	"vrpower/internal/update"
)

// Update instrumentation (surfaced by cmd/lookupsim -stats).
var (
	obsUpdateBatches = obs.NewCounter("netsim.update_batches")
	obsUpdateWrites  = obs.NewCounter("netsim.update_writes")
	obsUpdateBubbles = obs.NewCounter("netsim.update_bubbles")
)

// UpdateBatch is one applied churn batch's lifecycle.
type UpdateBatch struct {
	// VN is the updated network; Engine the pipeline it rewrote (the
	// network's own for VS, the shared engine 0 for VM).
	VN     int
	Engine int
	// RawOps is the generated batch size; CoalescedOps what survived
	// last-op-wins coalescing and was actually diffed.
	RawOps       int
	CoalescedOps int
	// Writes is the image-diff word count; Bubbles the write-bubble budget
	// spent installing it.
	Writes  int
	Bubbles int
	// ArmedAt is the cycle the batch entered the data plane; DoneAt the
	// cycle its commit bubble left the last stage. Their difference is the
	// update latency under load.
	ArmedAt int64
	DoneAt  int64
}

// LatencyCycles is the arm-to-commit update latency.
func (b UpdateBatch) LatencyCycles() int64 { return b.DoneAt - b.ArmedAt }

// commitUpdate finishes an engine's completed hitless update: the control
// plane installs the new table and image, the fault lifecycle's serving-
// image pointer follows the flipped shadow bank (SEUs and scrub rebuilds
// must target what the engine now reads), the journal closes the op and the
// live image is audited.
func (r *scenRun) commitUpdate(e *scenEng) error {
	rep, tel := r.rep, r.s.tel
	h := e.handle
	if _, err := h.Commit(); err != nil {
		return err
	}
	e.fs.img = h.Image()
	e.batch.DoneAt = e.doneAt
	rep.Batches = append(rep.Batches, e.batch)
	rep.BatchesApplied++
	rep.UpdateWrites += int64(e.batch.Writes)
	rep.PlannedBubbles += int64(e.batch.Bubbles)
	obsUpdateBatches.Inc()
	obsUpdateWrites.Add(int64(e.batch.Writes))
	obsUpdateBubbles.Add(int64(e.batch.Bubbles))
	tel.Events.Log(obs.LevelInfo, e.doneAt, "update_commit",
		"vn", e.batch.VN, "engine", e.batch.Engine, "writes", e.batch.Writes,
		"bubbles", e.batch.Bubbles, "latency_cycles", e.batch.LatencyCycles())
	r.chaosOnCommit(e, e.doneAt)
	e.handle = nil
	e.newRef = nil
	e.doneAt = -1
	return nil
}

// abortUpdate cancels an engine's in-flight update (scrub reload would
// clobber its shadow writes). An update whose commit bubble already drained
// — shadow bank and oracle flipped — is past the point of no return: it is
// committed instead, so the control plane's tables never diverge from what
// the engine serves.
func (r *scenRun) abortUpdate(e *scenEng, b int64) error {
	if e.handle == nil {
		return nil
	}
	if e.doneAt >= 0 {
		return r.commitUpdate(e)
	}
	r.chaosCloseOp(e, b)
	e.handle.Abort()
	r.rep.BatchesAborted++
	r.s.tel.Events.Log(obs.LevelWarn, b, "update_abort",
		"vn", e.batch.VN, "engine", e.batch.Engine, "writes", e.batch.Writes)
	e.handle = nil
	e.newRef = nil
	e.doneAt = -1
	return nil
}

// scenChurn is the composed run's update stressor: commit-then-arm at every
// boundary, one batch in flight at a time over all devices, each armed
// through the control plane of the device serving its network.
// It runs after the fault stressor's boundary, so it never arms an update
// on an engine that just went down.
type scenChurn struct {
	scenario.NopStressor
	r *scenRun
}

func (scenChurn) Name() string { return "churn" }

func (c scenChurn) Boundary(b int64, _ bool) error {
	r := c.r
	rep, tel := r.rep, r.s.tel
	for _, dev := range r.devs {
		for _, e := range dev.engines {
			if e.handle == nil || e.doneAt < 0 {
				continue
			}
			if err := r.commitUpdate(e); err != nil {
				return err
			}
		}
	}
	if c.inFlight() {
		return nil // one batch in flight at a time
	}
	churn := r.spec.Churn
	if r.started >= churn.Batches {
		return nil
	}
	vn := churn.TargetVN
	if vn < 0 {
		vn = r.started % r.s.k
	}
	target := r.home[vn]
	if target.fs.dead {
		// The batch's engine is gone for good: abort rather than wait
		// forever, so the run terminates.
		rep.BatchesAborted++
		tel.Events.Log(obs.LevelWarn, b, "update_abort", "vn", vn, "engine", target.idx, "writes", 0)
		r.started++
		return nil
	}
	if target.fs.down() {
		return nil // engine mid-repair: retry at the next boundary
	}
	dev := target.dev
	ops, err := update.Churn(dev.mgr.Tables()[vn], churn.Ops, update.ChurnConfig{Seed: r.spec.Seed + int64(r.started)})
	if err != nil {
		return err
	}
	h, err := dev.mgr.BeginHitlessUpdate(vn, ops)
	if err != nil {
		return err
	}
	e := dev.engines[h.Engine()]
	if err := e.sim.BeginUpdate(h.Image(), h.Bubbles()); err != nil {
		h.Abort()
		return err
	}
	e.handle = h
	e.newRef = h.Table().Reference()
	e.doneAt = -1
	e.batch = UpdateBatch{
		VN:           vn,
		Engine:       h.Engine(),
		RawOps:       h.RawOps(),
		CoalescedOps: len(h.Ops()),
		Writes:       h.Writes(),
		Bubbles:      h.Bubbles(),
		ArmedAt:      b,
	}
	tel.Events.Log(obs.LevelInfo, b, "update_arm",
		"vn", vn, "engine", h.Engine(), "raw_ops", h.RawOps(), "coalesced_ops", len(h.Ops()),
		"writes", h.Writes(), "bubbles", h.Bubbles())
	r.chaosOnArm(e, h, b)
	r.started++
	return nil
}

func (c scenChurn) Outstanding() bool {
	return c.r.started < c.r.spec.Churn.Batches || c.inFlight()
}

// inFlight reports whether a batch is armed on any engine of any device.
func (c scenChurn) inFlight() bool {
	for _, dev := range c.r.devs {
		for _, e := range dev.engines {
			if e.handle != nil {
				return true
			}
		}
	}
	return false
}
