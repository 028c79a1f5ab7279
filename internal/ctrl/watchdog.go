package ctrl

// This file implements the control plane's watchdog: every journaled
// operation (scrub reload, hitless commit) is armed with a slice-denominated
// deadline derived from its expected completion cycle, and the supervisor
// walks a fixed escalation ladder when the deadline expires — bounded
// retries with exponential backoff first, then the engine is marked
// per-VNID degraded and an operator event is raised. A scrub rebuilds and
// reloads once; the watchdog bounds how long that reload may run before the
// control plane stops waiting.

import (
	"fmt"

	"vrpower/internal/obs"
)

// Watchdog instrumentation (surfaced by the cmd tools' -stats flag).
var (
	obsWatchdogRetries     = obs.NewCounter("ctrl.watchdog_retries")
	obsWatchdogEscalations = obs.NewCounter("ctrl.watchdog_escalations")
	obsWatchdogFalsePos    = obs.NewCounter("ctrl.watchdog_false_positives")
)

// The escalation ladder. A supervised operation's deadline is its expected
// completion cycle plus graceSlices scenario slices; the first maxRetries
// expiries are answered with a retry after retryBase cycles, doubling per
// retry (256, then 512); the next one escalates.
const (
	graceSlices = 4
	maxRetries  = 2
	retryBase   = 256
)

// Verdict is the watchdog's ruling on a supervised operation.
type Verdict int

const (
	// WatchOK: the operation is inside its deadline (or not supervised).
	WatchOK Verdict = iota
	// WatchRetry: the deadline expired inside the retry budget; back off by
	// the returned delay and re-attempt.
	WatchRetry
	// WatchEscalate: the retry budget is spent; the engine is now per-VNID
	// degraded and an operator event has been raised.
	WatchEscalate
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case WatchOK:
		return "ok"
	case WatchRetry:
		return "retry"
	case WatchEscalate:
		return "escalate"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// watched is one supervised operation.
type watched struct {
	op       OpKind
	vn       int
	deadline int64
	retries  int
}

// Watchdog supervises journaled operations per engine. Like the journal it
// runs on the coordinating goroutine and is not safe for concurrent use.
type Watchdog struct {
	slice int64
	log   *obs.EventLog
	ops   map[int]*watched
	// degraded marks engines whose supervised operation escalated: their
	// networks stay administratively down until an operator (or a later
	// successful recovery) clears them.
	degraded map[int]bool

	retriesTotal   int
	falsePositives int
	escalations    int
}

// NewWatchdog builds a watchdog whose grace windows are slice cycles long.
func NewWatchdog(slice int64, log *obs.EventLog) (*Watchdog, error) {
	if slice < 1 {
		return nil, fmt.Errorf("ctrl: watchdog slice %d, want >= 1", slice)
	}
	return &Watchdog{
		slice: slice, log: log,
		ops: make(map[int]*watched), degraded: make(map[int]bool),
	}, nil
}

// Arm starts supervising an operation on engine: the deadline is the
// expected completion cycle plus the slice-denominated grace window.
// Re-arming an engine replaces its previous supervision.
func (w *Watchdog) Arm(engine int, op OpKind, vn int, expectedDone int64) {
	w.ops[engine] = &watched{op: op, vn: vn, deadline: w.window(expectedDone)}
}

// window converts an expected completion cycle into a deadline.
func (w *Watchdog) window(expectedDone int64) int64 {
	return expectedDone + graceSlices*w.slice
}

// Extend moves a supervised operation's deadline to cover a new expected
// completion cycle (a retry or a replay pushed the finish out).
func (w *Watchdog) Extend(engine int, expectedDone int64) {
	if o := w.ops[engine]; o != nil {
		o.deadline = w.window(expectedDone)
	}
}

// Disarm stops supervising engine (the operation completed) and clears any
// degraded mark — a successful recovery restores the engine to service.
func (w *Watchdog) Disarm(engine int) {
	delete(w.ops, engine)
	delete(w.degraded, engine)
}

// Watching reports whether engine has a supervised operation.
func (w *Watchdog) Watching(engine int) bool { return w.ops[engine] != nil }

// Deadline returns engine's current deadline cycle, or -1 when unarmed.
func (w *Watchdog) Deadline(engine int) int64 {
	if o := w.ops[engine]; o != nil {
		return o.deadline
	}
	return -1
}

// Expired reports whether engine's supervised operation blew its deadline.
func (w *Watchdog) Expired(engine int, cycle int64) bool {
	o := w.ops[engine]
	return o != nil && cycle >= o.deadline
}

// Check walks the escalation ladder for engine at cycle. Inside the
// deadline (or unarmed) it returns WatchOK. On expiry it returns WatchRetry
// with the backoff delay while the retry budget lasts; the caller
// re-attempts and Extends the deadline. When the budget is spent it marks
// the engine per-VNID degraded, drops the supervision, raises the operator
// event and returns WatchEscalate.
func (w *Watchdog) Check(engine int, cycle int64) (Verdict, int64) {
	o := w.ops[engine]
	if o == nil || cycle < o.deadline {
		return WatchOK, 0
	}
	if o.retries < maxRetries {
		o.retries++
		w.retriesTotal++
		obsWatchdogRetries.Inc()
		delay := int64(retryBase) << (o.retries - 1)
		w.log.Log(obs.LevelWarn, cycle, "watchdog_retry",
			"engine", engine, "op", o.op.String(), "vn", o.vn,
			"retry", o.retries, "of", maxRetries, "backoff", delay,
			"error", ErrReloadTimeout.Error())
		return WatchRetry, delay
	}
	w.degraded[engine] = true
	delete(w.ops, engine)
	w.escalations++
	obsWatchdogEscalations.Inc()
	w.log.Log(obs.LevelError, cycle, "watchdog_escalate",
		"engine", engine, "op", o.op.String(), "vn", o.vn,
		"retries", o.retries, "error", ErrReloadTimeout.Error())
	return WatchEscalate, 0
}

// FalsePositive records that a fired deadline was spurious — the operation
// was still making progress (e.g. a long merged-scheme reload) — and
// extends the deadline by one grace window from cycle instead of walking
// the ladder.
func (w *Watchdog) FalsePositive(engine int, cycle int64) {
	o := w.ops[engine]
	if o == nil {
		return
	}
	o.deadline = w.window(cycle)
	w.falsePositives++
	obsWatchdogFalsePos.Inc()
	w.log.Log(obs.LevelWarn, cycle, "watchdog_false_positive",
		"engine", engine, "op", o.op.String(), "vn", o.vn, "new_deadline", o.deadline)
}

// Degraded reports whether engine escalated and has not yet been restored.
func (w *Watchdog) Degraded(engine int) bool { return w.degraded[engine] }

// Retries returns the lifetime retry count across all engines.
func (w *Watchdog) Retries() int { return w.retriesTotal }

// FalsePositives returns the lifetime spurious-fire count.
func (w *Watchdog) FalsePositives() int { return w.falsePositives }

// Escalations returns the lifetime escalation count.
func (w *Watchdog) Escalations() int { return w.escalations }
