package netsim

// This file is the chaos stressor for the composed scenario runner: the
// control-plane faults of faults.CtrlInjector (reload stalls, torn
// multi-stage writes, watchdog false positives, crash-before-commit)
// injected at the journal boundaries of the scrub and hitless-update paths,
// with the ctrl.Journal + ctrl.Watchdog recovery machinery unwinding every
// one of them to a defined image — old or new, never a mix. After every
// recovery the live image is audited against the RIB oracle
// (pipeline.AuditImage): a probe may drop on parity, it must never
// misforward. All decisions run at slice boundaries on the coordinator from
// seeded state, so chaos runs stay byte-identical at any -j.
//
// Fault → recovery map (the run's state machine, documented in DESIGN §13):
//
//	stall     scrub reload hangs; watchdog deadline expires → bounded
//	          retries (journal replay, doubling backoff) → per-VNID degraded
//	          + operator event when the budget is spent.
//	torn      reload dies mid-write at its ready boundary; half the stages
//	          carry the new image. Journal says scrub ⇒ REPLAY: the
//	          remaining stages are rewritten and the install completes.
//	falsepos  watchdog fires while the reload is healthy; the supervisor
//	          records it and extends the deadline — no retry consumed.
//	crash     hitless updater dies with shadow writes pending, before the
//	          commit bubble; the watchdog's deadline finds it, or a scrub
//	          of its engine sooner. Either way it is the one interrupt path
//	          (scenRun.interrupt): journal says commit ⇒ ROLLBACK, the
//	          shadow bank is discarded, the old image keeps serving, the
//	          batch re-arms.

import (
	"math"

	"vrpower/internal/ctrl"
	"vrpower/internal/faults"
	"vrpower/internal/ip"
	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
	"vrpower/internal/scenario"
)

// auditProbeCap bounds the per-network probe count of one invariant audit.
const auditProbeCap = 64

// ChaosReport is the chaos stressor's section of the scenario report.
type ChaosReport struct {
	// Injected* count the faults actually dealt to operations (a configured
	// fault is only injected when an operation arrives to carry it).
	InjectedCrashes        int
	InjectedStalls         int
	InjectedTorn           int
	InjectedFalsePositives int
	// Rollbacks and Replays are the journal's recovery decisions; every
	// injected crash must end as a rollback, every stall/torn as replays.
	Rollbacks int
	Replays   int
	// Watchdog ladder accounting, copied from the watchdog at run end.
	WatchdogRetries int
	FalsePositives  int
	Escalations     int
	// RetriedBatches counts hitless batches a rollback handed back to the
	// churn stressor to re-arm.
	RetriedBatches int
	// RecoverySum/Recoveries aggregate fault-to-recovered latency in cycles.
	RecoverySum int64
	Recoveries  int
	// DegradedSlicesPerVN counts slices each network spent watchdog-degraded.
	DegradedSlicesPerVN []int64
	// Invariant audits: after every recovery the live image is replayed
	// against the oracle.
	AuditTally
	// Journal totals across engines.
	JournalBegun   int
	JournalCommits int
	JournalAborts  int
}

// MeanRecoveryCycles is the average fault-to-recovered latency.
func (c *ChaosReport) MeanRecoveryCycles() float64 {
	if c.Recoveries == 0 {
		return 0
	}
	return float64(c.RecoverySum) / float64(c.Recoveries)
}

// engChaos is one engine's chaos state: the open journal token and the
// fault dealt to its current supervised operation.
type engChaos struct {
	tok *ctrl.OpToken
	// draw is the fault dealt to the in-flight scrub reload.
	draw faults.CtrlFault
	// faultAt stamps when the current fault took effect, a crash included
	// (recovery-latency accounting); -1 when the operation is unfaulted.
	faultAt int64
	// latency is the reload's modeled write latency, for sizing watchdog
	// extensions across retries and replays.
	latency int64
	// appliedStages is the journal watermark: stages already covered by
	// apply records (a torn write journals the first half early).
	appliedStages int
	// fpFired marks the one-shot false positive as already delivered.
	fpFired bool
	// armedAt stamps the supervised operation's start boundary.
	armedAt int64
	// Crash-before-commit state: the updater dies when PendingBubbles
	// drops to crashAtBubble (-1: no crash scheduled).
	crashAtBubble int
	crashed       bool
}

func (ch *engChaos) reset() {
	*ch = engChaos{faultAt: -1, crashAtBubble: -1, armedAt: -1}
}

// chaosOn reports whether the chaos machinery is wired into this device.
func (d *device) chaosOn() bool { return d.wd != nil }

// ---- supervised ops: begin and completion (scrub reloads, hitless commits)

// chaosBegin opens engine e's supervised op (vn -1 for a scrub) at boundary
// b: the journal's intent record lands before any stage write. It reports
// false without chaos, or with an op already open on the engine's journal.
func (r *scenRun) chaosBegin(e *scenEng, op ctrl.OpKind, vn int, b int64) bool {
	if !e.dev.chaosOn() {
		return false
	}
	tok, err := e.dev.jrs[e.idx].Begin(op, e.idx, vn, b)
	if err != nil {
		return false
	}
	e.ch.reset()
	e.ch.tok, e.ch.armedAt = tok, b
	return true
}

// chaosDone closes engine e's supervised op as completed, at a reload's
// install or a hitless commit's flip: the apply records not yet journaled
// (the stages a reload has left, the commit's writes), the commit record,
// watchdog disarm, a faulted op's recovery latency, and the invariant audit
// of the image the engine now serves.
func (r *scenRun) chaosDone(e *scenEng, at int64) {
	ch := &e.ch
	if ch.tok == nil {
		return
	}
	if ch.tok.Op() == ctrl.OpScrub {
		for s := ch.appliedStages; s < e.fs.img.Stages(); s++ {
			ch.tok.Apply(s, e.fs.img.StageLen(s), at)
		}
	} else {
		ch.tok.Apply(-1, e.batch.Writes, at)
	}
	_ = ch.tok.Commit(at)
	e.dev.wd.Disarm(e.idx)
	if ch.faultAt >= 0 {
		r.rep.Chaos.RecoverySum += at - ch.faultAt
		r.rep.Chaos.Recoveries++
	}
	r.rep.Chaos.add(r.audit(e, at, "engine", e.idx))
	ch.reset()
}

// ---- scrub-path hooks (called from scenFaults) ----------------------------

// chaosScrubArmed supervises a successfully launched reload: the watchdog
// deadline covers the expected completion, and one scrub-side fault is
// dealt from the seeded deck.
func (r *scenRun) chaosScrubArmed(e *scenEng, b, latency int64) {
	if !e.dev.chaosOn() || e.ch.tok == nil {
		return
	}
	ch, wd := &e.ch, e.dev.wd
	ch.latency = latency
	fs := &e.fs
	wd.Arm(e.idx, ctrl.OpScrub, -1, b+latency)
	ch.draw = e.dev.ci.DrawScrub()
	rep := r.rep.Chaos
	switch ch.draw {
	case faults.CtrlStall:
		rep.InjectedStalls++
		ch.faultAt = b
		// The reload hangs: it will never become ready on its own; only
		// the watchdog can unstick it.
		fs.repairAt = math.MaxInt64
		r.s.tel.Events.Log(obs.LevelWarn, b, "chaos_inject",
			"fault", ch.draw.String(), "engine", e.idx, "deadline", wd.Deadline(e.idx))
	case faults.CtrlTorn:
		rep.InjectedTorn++
		ch.faultAt = b
		r.s.tel.Events.Log(obs.LevelWarn, b, "chaos_inject",
			"fault", ch.draw.String(), "engine", e.idx, "tear_at", fs.repairAt)
	case faults.CtrlFalsePositive:
		rep.InjectedFalsePositives++
		r.s.tel.Events.Log(obs.LevelWarn, b, "chaos_inject",
			"fault", ch.draw.String(), "engine", e.idx)
	}
}

// ---- commit-path hooks (called from scenChurn / commitUpdate) -------------

// chaosOnArm supervises a hitless commit: journal intent, watchdog deadline
// from the bubble budget, and the crash draw.
func (r *scenRun) chaosOnArm(e *scenEng, h *ctrl.HitlessUpdate, b int64) {
	if !r.chaosBegin(e, ctrl.OpCommit, h.VN(), b) {
		return
	}
	ch := &e.ch
	// Expected completion: one bubble per cycle plus the pipeline flush.
	depth := int64(e.fs.img.Stages())
	e.dev.wd.Arm(e.idx, ctrl.OpCommit, h.VN(), b+int64(h.Bubbles())+depth)
	if e.dev.ci.DrawCommit() == faults.CtrlCrash {
		r.rep.Chaos.InjectedCrashes++
		ch.crashAtBubble = h.Bubbles() / 2
		if ch.crashAtBubble < 1 {
			ch.crashAtBubble = 1
		}
		r.s.tel.Events.Log(obs.LevelWarn, b, "chaos_inject",
			"fault", "crash", "engine", e.idx, "vn", h.VN(), "crash_at_bubble", ch.crashAtBubble)
	}
}

// chaosCrash kills the updater mid-stream: the shadow writes so far are
// journaled as the torn watermark and the engine keeps serving lookups from
// the old bank while the watchdog runs down.
func (r *scenRun) chaosCrash(e *scenEng, cyc int64) {
	ch := &e.ch
	ch.crashed = true
	ch.faultAt = cyc
	if ch.tok != nil {
		injected := e.batch.Bubbles - e.sim.PendingBubbles()
		ch.tok.Apply(-1, injected, cyc)
	}
	r.s.tel.Events.Log(obs.LevelError, cyc, "crash_before_commit",
		"engine", e.idx, "vn", e.batch.VN, "bubbles_left", e.sim.PendingBubbles())
}

// ---- the stressor ---------------------------------------------------------

// scenChaos drives recovery at slice boundaries over one device's engines,
// journals and watchdog. It registers FIRST, so a torn reload is repaired
// before scenFaults would install it and a crashed updater is interrupted
// before scenChurn would try to commit it.
type scenChaos struct {
	scenario.NopStressor
	r   *scenRun
	dev *device
}

func (scenChaos) Name() string { return "chaos" }

func (c scenChaos) Boundary(b int64, _ bool) error {
	wd := c.dev.wd
	for _, e := range c.dev.engines {
		ch := &e.ch
		if ch.tok == nil && !wd.Watching(e.idx) {
			continue
		}
		switch {
		case ch.crashed:
			if wd.Expired(e.idx, b) {
				c.r.interrupt(e, b)
			}
		case e.fs.reloading() && ch.draw == faults.CtrlTorn && e.fs.repairAt <= b:
			c.tearAndReplay(e, b)
		case e.fs.reloading() && ch.draw == faults.CtrlFalsePositive && !ch.fpFired && b > ch.armedAt:
			wd.FalsePositive(e.idx, b)
			ch.fpFired = true
		case e.fs.reloading() && ch.draw == faults.CtrlStall && wd.Expired(e.idx, b):
			c.stallLadder(e, b)
		}
	}
	return nil
}

// tearAndReplay tears the reload at its ready boundary — half the stages
// already carry the new image — then recovers: the journal's policy for a
// torn scrub is REPLAY, so the remaining stages are rewritten and the
// install is pushed out by the remainder latency. The torn image is never
// served: the engine stays down for the whole window, which is exactly the
// drop-never-misforward invariant.
func (c scenChaos) tearAndReplay(e *scenEng, b int64) {
	r := c.r
	ch := &e.ch
	fs := &e.fs
	half := fs.pending.Stages() / 2
	// The torn image: copies of the pending image's first half over copies
	// of the old words — later SEUs on the torn image never reach the
	// pending image.
	fs.img = pipeline.Splice(fs.pending, fs.img, half)
	if ch.tok != nil {
		for s := 0; s < half; s++ {
			ch.tok.Apply(s, fs.img.StageLen(s), b)
		}
	}
	ch.appliedStages = half
	rec, err := c.dev.jrs[e.idx].Recover(b)
	if err == nil && rec.Action == ctrl.Replay {
		r.rep.Chaos.Replays++
	}
	// The replay rewrites the remaining stages: the install lands after the
	// remainder of the write latency, under an extended deadline.
	remainder := ch.latency - ch.latency/2
	if remainder < 1 {
		remainder = 1
	}
	fs.repairAt = b + remainder
	c.dev.wd.Extend(e.idx, fs.repairAt)
	ch.draw = faults.CtrlNone
	r.s.tel.Events.Log(obs.LevelWarn, b, "recovery_replay",
		"engine", e.idx, "op", "scrub", "stages_applied", rec.StagesApplied,
		"resume_stage", half, "ready_at", fs.repairAt)
}

// stallLadder walks the watchdog's escalation ladder over a stalled reload:
// in-budget expiries replay the reload under a backoff; a spent budget
// degrades the engine's networks and raises the operator event.
func (c scenChaos) stallLadder(e *scenEng, b int64) {
	r, wd := c.r, c.dev.wd
	ch := &e.ch
	fs := &e.fs
	verdict, delay := wd.Check(e.idx, b)
	switch verdict {
	case ctrl.WatchRetry:
		rec, err := c.dev.jrs[e.idx].Recover(b)
		if err == nil && rec.Action == ctrl.Replay {
			r.rep.Chaos.Replays++
		}
		// The replay restarts the reload after the backoff; the next fault
		// card decides whether it sticks.
		ch.draw = c.dev.ci.DrawScrub()
		fs.repairAt = b + delay + ch.latency
		wd.Extend(e.idx, fs.repairAt)
		switch ch.draw {
		case faults.CtrlStall:
			r.rep.Chaos.InjectedStalls++
			fs.repairAt = math.MaxInt64 // only the watchdog unsticks it
		case faults.CtrlTorn:
			r.rep.Chaos.InjectedTorn++
		case faults.CtrlFalsePositive:
			r.rep.Chaos.InjectedFalsePositives++
			ch.fpFired = false
		}
		r.s.tel.Events.Log(obs.LevelWarn, b, "recovery_replay",
			"engine", e.idx, "op", "scrub", "stages_applied", rec.StagesApplied,
			"backoff", delay, "ready_at", fs.repairAt)
	case ctrl.WatchEscalate:
		// Budget spent: the op aborts, the engine's networks go degraded
		// until an operator intervenes (for this run: permanently).
		if ch.tok != nil {
			_ = ch.tok.Abort(b)
		}
		fs.pending = nil
		fs.repairAt = -1
		fs.dead = true
		r.s.tel.Events.Log(obs.LevelError, b, "engine_degraded",
			"engine", e.idx, "op", "scrub", "reason", ctrl.ErrReloadTimeout.Error())
		ch.reset()
	}
}

// ---- invariant audit ------------------------------------------------------

// AuditTally is invariant-audit accounting: audits run and probes replayed.
// Faulted probes drop (allowed); mismatches are misforwards and must be zero.
type AuditTally struct {
	Audits          int
	AuditProbes     int
	AuditFaulted    int
	AuditMismatches int
}

// add counts one audit's verdict.
func (t *AuditTally) add(res pipeline.AuditResult) {
	t.Audits++
	t.AuditProbes += res.Probes
	t.AuditFaulted += res.Faulted
	t.AuditMismatches += res.Mismatches
}

// audit replays oracle-known probes through the image engine e serves — a
// stride sample of every network it hosts, authoritative routes with their
// oracle answers — and logs the verdict under the given leading keys.
// Faulted probes drop (the parity column caught residual corruption —
// allowed); a resolved probe that disagrees with the RIB oracle is a
// misforward and fails the run.
func (r *scenRun) audit(e *scenEng, at int64, keys ...any) pipeline.AuditResult {
	var probes []pipeline.Probe
	for reqVN, vn := range e.served {
		// Without churn the tables are the ones the run was built from; the
		// device's churn manager's tables are authoritative. Either way the
		// kept oracle is the table's.
		tbl, ref := r.s.tables[vn], r.kept[vn]
		if mgr := e.dev.mgr; mgr != nil {
			tbl = mgr.Tables()[vn]
		}
		stride := max(1, (tbl.Len()+auditProbeCap-1)/auditProbeCap)
		var addrs [auditProbeCap]ip.Addr
		var want [auditProbeCap]ip.NextHop
		n := 0
		for i := 0; i < tbl.Len(); i += stride {
			addrs[n] = tbl.Routes[i].Prefix.Addr
			n++
		}
		ref.LookupAll(addrs[:n], want[:n])
		for i, addr := range addrs[:n] {
			probes = append(probes, pipeline.Probe{Addr: addr, VN: reqVN, Want: want[i]})
		}
	}
	res := pipeline.AuditImage(e.fs.img, probes)
	level := obs.LevelInfo
	if res.Mismatches > 0 {
		level = obs.LevelError
	}
	r.s.tel.Events.Log(level, at, "invariant_audit",
		append(keys, "probes", res.Probes, "faulted", res.Faulted, "mismatches", res.Mismatches)...)
	return res
}

// chaosSliceStats folds the journal and watchdog state into the slice row:
// cumulative recoveries and currently degraded networks. It also accrues
// the per-VN degraded-slice counters.
func (r *scenRun) chaosSliceStats() (recoveries, degradedVNs int) {
	for _, dev := range r.devs {
		for _, j := range dev.jrs {
			st := j.Stats()
			recoveries += st.Replays + st.Rollbacks
		}
	}
	for vn, e := range r.home {
		if e != nil && e.dev.chaosOn() && e.dev.wd.Degraded(e.idx) {
			degradedVNs++
			r.rep.Chaos.DegradedSlicesPerVN[vn]++
		}
	}
	return recoveries, degradedVNs
}

// chaosFinalize folds the watchdog's ladder tallies and the journal totals
// into the report at run end.
func (r *scenRun) chaosFinalize() {
	rep := r.rep.Chaos
	for _, dev := range r.devs {
		if !dev.chaosOn() {
			continue
		}
		rep.WatchdogRetries += dev.wd.Retries()
		rep.FalsePositives += dev.wd.FalsePositives()
		rep.Escalations += dev.wd.Escalations()
		for _, j := range dev.jrs {
			st := j.Stats()
			rep.JournalBegun += st.Begun
			rep.JournalCommits += st.Commits
			rep.JournalAborts += st.Aborts
		}
	}
}
