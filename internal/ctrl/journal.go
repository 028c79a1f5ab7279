package ctrl

// This file is the control plane's write-ahead journal. PRs 2-3 made scrub
// reloads and hitless commits survivable for the DATA plane; this journal
// makes them survivable for the CONTROL plane itself. Every multi-stage
// image rewrite — a scrub reload walking stage memories through the
// configuration port, a hitless update streaming write bubbles toward its
// bank-flip commit — first records intent, then one apply record per unit
// of progress, then a commit (or abort) record. A crash between intent and
// commit leaves the journal open; Recover then decides deterministically
// whether the torn operation replays forward (idempotent reloads) or rolls
// back (shadow-bank commits, which must never half-flip), so the image is
// always driven to a defined state — old or new, never a mix.

import (
	"fmt"

	"vrpower/internal/obs"
)

// Journal instrumentation (surfaced by the cmd tools' -stats flag).
var (
	obsJournalOps       = obs.NewCounter("ctrl.journal_ops")
	obsJournalReplays   = obs.NewCounter("ctrl.journal_replays")
	obsJournalRollbacks = obs.NewCounter("ctrl.journal_rollbacks")
)

// OpKind is the class of journaled operation.
type OpKind int

const (
	// OpScrub is a scrub reload: a full rewrite of an engine's stage
	// memories from a rebuilt image. Idempotent — replaying a torn reload
	// from the start yields the same clean image.
	OpScrub OpKind = iota
	// OpCommit is a hitless-update commit: shadow-bank writes followed by
	// the per-stage bank flip. NOT idempotent past the flip, so a torn
	// commit rolls back to the old bank instead of replaying.
	OpCommit
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpScrub:
		return "scrub"
	case OpCommit:
		return "commit"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// RecType is a journal record's type.
type RecType int

const (
	// RecIntent opens an operation: the target is named before any write.
	RecIntent RecType = iota
	// RecApply records one unit of progress (a stage written, or the
	// bubble-stream watermark at a crash).
	RecApply
	// RecCommit closes an operation as fully applied.
	RecCommit
	// RecAbort closes an operation as rolled back.
	RecAbort
)

// String names the record type.
func (t RecType) String() string {
	switch t {
	case RecIntent:
		return "intent"
	case RecApply:
		return "apply"
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	default:
		return fmt.Sprintf("RecType(%d)", int(t))
	}
}

// Record is one journal entry.
type Record struct {
	// Seq numbers records in append order.
	Seq  int
	Type RecType
	Op   OpKind
	// Engine is the target engine slot; VN the target network (-1 for
	// whole-engine operations like scrubs).
	Engine int
	VN     int
	// Stage and Writes locate an apply record's progress: the stage written
	// and the word count (-1/0 for non-apply records).
	Stage  int
	Writes int
	// Cycle is the run cycle the record was appended at.
	Cycle int64
}

// JournalStats summarises the journal's lifetime.
type JournalStats struct {
	// Begun counts opened operations; Commits and Aborts the clean closes.
	Begun   int
	Commits int
	Aborts  int
	// Replays and Rollbacks count Recover decisions over torn operations.
	Replays   int
	Rollbacks int
}

// Journal is the write-ahead log. It is driven from the coordinating
// goroutine (like every control-plane decision in a run); it is not safe
// for concurrent use. At most one operation is open at a time, mirroring
// the manager's reload guard.
type Journal struct {
	recs []Record
	open *OpToken
	st   JournalStats
	log  *obs.EventLog
}

// NewJournal builds an empty journal.
func NewJournal() *Journal { return &Journal{} }

// SetEventLog attaches a structured event sink; intent/commit/abort and
// recovery decisions are mirrored into it. nil detaches.
func (j *Journal) SetEventLog(l *obs.EventLog) { j.log = l }

// Stats returns the lifetime counters.
func (j *Journal) Stats() JournalStats { return j.st }

// Open returns the in-flight operation's token, or nil when the journal is
// consistent (every begun operation committed or aborted).
func (j *Journal) Open() *OpToken { return j.open }

// Torn reports an operation stuck between intent and commit — the state
// Recover resolves.
func (j *Journal) Torn() bool { return j.open != nil }

func (j *Journal) append(t RecType, op OpKind, engine, vn, stage, writes int, cycle int64) {
	j.recs = append(j.recs, Record{
		Seq: len(j.recs), Type: t, Op: op,
		Engine: engine, VN: vn, Stage: stage, Writes: writes, Cycle: cycle,
	})
}

// Begin opens an operation: the intent record is written before any stage
// memory is touched. It fails with ErrOpInFlight while another operation
// is open.
func (j *Journal) Begin(op OpKind, engine, vn int, cycle int64) (*OpToken, error) {
	if j.open != nil {
		return nil, fmt.Errorf("ctrl: journal %s on engine %d: %w", op, engine, ErrOpInFlight)
	}
	t := &OpToken{j: j, op: op, engine: engine, vn: vn}
	j.open = t
	j.st.Begun++
	obsJournalOps.Inc()
	j.append(RecIntent, op, engine, vn, -1, 0, cycle)
	j.log.Log(obs.LevelInfo, cycle, "journal_begin", "op", op.String(), "engine", engine, "vn", vn)
	return t, nil
}

// OpToken is the handle to an open journaled operation.
type OpToken struct {
	j       *Journal
	op      OpKind
	engine  int
	vn      int
	applies int
	writes  int
	closed  bool
}

// Op returns the operation kind; Engine and VN its target.
func (t *OpToken) Op() OpKind { return t.op }

// Engine returns the target engine slot.
func (t *OpToken) Engine() int { return t.engine }

// VN returns the target network (-1 for whole-engine operations).
func (t *OpToken) VN() int { return t.vn }

// Apply records one unit of progress. Calls on a closed token are dropped
// (the operation's outcome is already journaled).
func (t *OpToken) Apply(stage, writes int, cycle int64) {
	if t.closed {
		return
	}
	t.applies++
	t.writes += writes
	t.j.append(RecApply, t.op, t.engine, t.vn, stage, writes, cycle)
}

// Commit closes the operation as fully applied.
func (t *OpToken) Commit(cycle int64) error {
	if t.closed {
		return fmt.Errorf("ctrl: journal commit: %w", ErrUpdateFinished)
	}
	t.close(RecCommit, cycle)
	t.j.st.Commits++
	t.j.log.Log(obs.LevelInfo, cycle, "journal_commit",
		"op", t.op.String(), "engine", t.engine, "vn", t.vn, "applies", t.applies, "writes", t.writes)
	return nil
}

// Abort closes the operation as rolled back.
func (t *OpToken) Abort(cycle int64) error {
	if t.closed {
		return fmt.Errorf("ctrl: journal abort: %w", ErrUpdateFinished)
	}
	t.close(RecAbort, cycle)
	t.j.st.Aborts++
	t.j.log.Log(obs.LevelWarn, cycle, "journal_abort",
		"op", t.op.String(), "engine", t.engine, "vn", t.vn, "applies", t.applies)
	return nil
}

func (t *OpToken) close(rt RecType, cycle int64) {
	t.closed = true
	t.j.append(rt, t.op, t.engine, t.vn, -1, 0, cycle)
	if t.j.open == t {
		t.j.open = nil
	}
}

// RecoveryAction is what Recover decided to do with a torn operation.
type RecoveryAction int

const (
	// Replay drives the operation forward: re-apply the remaining stages
	// from the journaled intent (safe because reloads are idempotent).
	Replay RecoveryAction = iota
	// Rollback abandons the operation: shadow writes are discarded and the
	// old bank keeps serving.
	Rollback
)

// String names the action.
func (a RecoveryAction) String() string {
	if a == Rollback {
		return "rollback"
	}
	return "replay"
}

// Recovery is the deterministic plan for one torn operation.
type Recovery struct {
	Action RecoveryAction
	Op     OpKind
	Engine int
	VN     int
	// StagesApplied is the journaled progress watermark: a replay resumes
	// after it, a rollback discards it.
	StagesApplied int
}

// Recover resolves the journal's torn operation with a fixed policy: a torn
// scrub reload REPLAYS (re-installing the rebuilt image is idempotent, and
// the intent record still names it), a torn hitless commit ROLLS BACK (the
// bank flip is all-or-nothing; the shadow writes are discarded and the old
// image keeps serving). A rollback closes the operation with an abort
// record here; a replay leaves it open for the caller to finish and Commit.
// It fails when the journal is consistent (nothing to recover), wrapping
// ErrTornCommit in the returned plan's event trail instead of the error.
func (j *Journal) Recover(cycle int64) (Recovery, error) {
	t := j.open
	if t == nil {
		return Recovery{}, fmt.Errorf("ctrl: recover with a consistent journal (no torn operation)")
	}
	rec := Recovery{Op: t.op, Engine: t.engine, VN: t.vn, StagesApplied: t.applies}
	if t.op == OpCommit {
		rec.Action = Rollback
		j.st.Rollbacks++
		obsJournalRollbacks.Inc()
		t.close(RecAbort, cycle)
		j.st.Aborts++
	} else {
		rec.Action = Replay
		j.st.Replays++
		obsJournalReplays.Inc()
	}
	j.log.Log(obs.LevelWarn, cycle, "journal_recover",
		"op", t.op.String(), "action", rec.Action.String(),
		"engine", t.engine, "vn", t.vn, "applies", rec.StagesApplied)
	return rec, nil
}
