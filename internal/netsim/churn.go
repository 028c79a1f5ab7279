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
	"vrpower/internal/ctrl"
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
// must target what the engine now reads), the upsets the retired bank held
// are repaired at the flip, the journal closes the op and the live image is
// audited.
func (r *scenRun) commitUpdate(e *scenEng) error {
	rep, tel := r.rep, r.s.tel
	h := e.handle
	if _, err := h.Commit(); err != nil {
		return err
	}
	r.kept[e.batch.VN] = e.newRef
	e.fs.img = h.Image()
	r.repairOutstanding(&e.fs, e.doneAt)
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
	r.chaosDone(e, e.doneAt)
	e.handle, e.newRef, e.doneAt = nil, nil, -1
	return nil
}

// interrupt stops engine e's armed update at boundary b, before its flip:
// a scrub is about to reload the engine, or the watchdog found its updater
// crashed. Either way the journal closes the op — a rollback for a crashed
// updater, an abort otherwise — the watchdog disarms, the shadow bank is
// discarded, the oracle goes back to the kept table's (a commit bubble in
// the pipe flipped it), and the interruption is counted and logged once. The
// update waits in r.retry for the churn stressor to re-arm it as prepared.
func (r *scenRun) interrupt(e *scenEng, b int64) {
	if e.handle == nil {
		return
	}
	rep, tel, ch := r.rep, r.s.tel, &e.ch
	crashed := ch.crashed
	if ch.tok != nil {
		if crashed {
			rec, err := e.dev.jrs[e.idx].Recover(b)
			if err == nil && rec.Action == ctrl.Rollback {
				rep.Chaos.Rollbacks++
			}
			rep.Chaos.RetriedBatches++
			rep.Chaos.RecoverySum += b - ch.faultAt
			rep.Chaos.Recoveries++
			tel.Events.Log(obs.LevelWarn, b, "recovery_rollback",
				"engine", e.idx, "vn", e.batch.VN, "applies", rec.StagesApplied,
				"crashed_at", ch.faultAt, "recovery_cycles", b-ch.faultAt)
			rep.Chaos.add(r.audit(e, b, "engine", e.idx))
		} else {
			_ = ch.tok.Abort(b)
		}
		e.dev.wd.Disarm(e.idx)
	}
	// The engine refuses only an update whose commit bubble is in the pipe,
	// which only a scrub stops: its reload replaces the engine.
	_ = e.sim.AbortUpdate()
	e.handle.Abort()
	r.refs[e.batch.VN] = r.kept[e.batch.VN]
	rep.BatchesAborted++
	if !crashed {
		tel.Events.Log(obs.LevelWarn, b, "update_abort",
			"vn", e.batch.VN, "engine", e.batch.Engine, "writes", e.batch.Writes)
	}
	r.retry = retryBatch{h: e.handle, ref: e.newRef}
	e.handle, e.newRef, e.doneAt = nil, nil, -1
	ch.reset()
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
	churn, retry := r.spec.Churn, r.retry
	if retry.h == nil && r.started >= churn.Batches {
		return nil
	}
	vn := churn.TargetVN
	switch {
	case retry.h != nil:
		vn = retry.h.VN()
	case vn < 0:
		vn = r.started % r.s.k
	}
	target := r.home[vn]
	if target.fs.dead {
		// The batch's engine is gone for good: abort rather than wait
		// forever, so the run terminates.
		rep.BatchesAborted++
		tel.Events.Log(obs.LevelWarn, b, "update_abort", "vn", vn, "engine", target.idx, "writes", 0)
		r.nextBatch()
		return nil
	}
	if target.fs.down() {
		return nil // engine mid-repair: retry at the next boundary
	}
	dev := target.dev
	h, ref := retry.h, retry.ref
	if h != nil {
		// An interrupted batch re-arms as it was prepared: nothing is
		// regenerated, applied or recompiled, and its oracle is kept.
		if err := h.Rearm(); err != nil {
			return err
		}
	} else {
		ops, err := update.Churn(dev.mgr.Tables()[vn], churn.Ops, update.ChurnConfig{Seed: r.spec.Seed + int64(r.started)})
		if err != nil {
			return err
		}
		if h, err = dev.mgr.BeginHitlessUpdate(vn, ops); err != nil {
			return err
		}
	}
	e := dev.engines[h.Engine()]
	if err := e.sim.BeginUpdate(h.Image(), h.Bubbles()); err != nil {
		h.Abort()
		return err
	}
	if ref == nil {
		ref = h.Table().Reference()
	}
	e.handle = h
	e.newRef = ref
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
	r.nextBatch()
	return nil
}

// nextBatch moves the schedule past the batch just armed or given up: an
// interrupted one leaves the retry slot, a fresh one advances the count.
func (r *scenRun) nextBatch() {
	if r.retry.h != nil {
		r.retry = retryBatch{}
		return
	}
	r.started++
}

func (c scenChurn) Outstanding() bool {
	return c.r.started < c.r.spec.Churn.Batches || c.r.retry.h != nil || c.inFlight()
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
