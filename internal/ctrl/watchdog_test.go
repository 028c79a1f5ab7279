package ctrl

import "testing"

func newTestWatchdog(t *testing.T, slice int64) *Watchdog {
	t.Helper()
	w, err := NewWatchdog(slice, nil)
	if err != nil {
		t.Fatalf("NewWatchdog: %v", err)
	}
	return w
}

// TestWatchdogDeadlineFromExpectedDone checks the deadline is the expected
// completion cycle plus the slice-denominated grace window.
func TestWatchdogDeadlineFromExpectedDone(t *testing.T) {
	w := newTestWatchdog(t, 1024)
	w.Arm(0, OpScrub, -1, 5000)
	want := int64(5000 + 4*1024)
	if got := w.Deadline(0); got != want {
		t.Fatalf("deadline %d, want %d", got, want)
	}
	if w.Expired(0, want-1) {
		t.Fatal("expired one cycle before the deadline")
	}
	if !w.Expired(0, want) {
		t.Fatal("not expired at the deadline")
	}
	if w.Deadline(1) != -1 {
		t.Fatal("unarmed engine should report deadline -1")
	}
}

// TestWatchdogLadder walks the full escalation ladder: OK inside the
// window, two retries with doubling backoff, then escalation marks the
// engine degraded and drops supervision.
func TestWatchdogLadder(t *testing.T) {
	w := newTestWatchdog(t, 100)
	w.Arm(3, OpCommit, 1, 1000)
	deadline := w.Deadline(3) // 1400

	if v, _ := w.Check(3, deadline-1); v != WatchOK {
		t.Fatalf("verdict %s before deadline, want ok", v)
	}
	v, d := w.Check(3, deadline)
	if v != WatchRetry || d != 256 {
		t.Fatalf("first expiry: verdict %s delay %d, want retry/256", v, d)
	}
	// The caller would retry and Extend; expire again without extending.
	v, d = w.Check(3, deadline+10)
	if v != WatchRetry || d != 512 {
		t.Fatalf("second expiry: verdict %s delay %d, want retry/512", v, d)
	}
	if w.Degraded(3) {
		t.Fatal("degraded before the retry budget is spent")
	}
	v, _ = w.Check(3, deadline+20)
	if v != WatchEscalate {
		t.Fatalf("third expiry: verdict %s, want escalate", v)
	}
	if !w.Degraded(3) {
		t.Fatal("escalation should mark the engine degraded")
	}
	if w.Watching(3) {
		t.Fatal("escalation should drop the supervision")
	}
	if v, _ := w.Check(3, deadline+30); v != WatchOK {
		t.Fatalf("post-escalation check verdict %s, want ok (unarmed)", v)
	}
	if w.Retries() != 2 || w.Escalations() != 1 {
		t.Fatalf("retries %d escalations %d, want 2/1", w.Retries(), w.Escalations())
	}
}

// TestWatchdogExtendCoversReplay checks Extend moves the deadline so an
// in-budget retry gets a fresh window.
func TestWatchdogExtendCoversReplay(t *testing.T) {
	w := newTestWatchdog(t, 50)
	w.Arm(0, OpScrub, -1, 200)
	deadline := w.Deadline(0) // 400
	if v, _ := w.Check(0, deadline); v != WatchRetry {
		t.Fatal("expected a retry at first expiry")
	}
	w.Extend(0, 600)
	if got := w.Deadline(0); got != 800 {
		t.Fatalf("extended deadline %d, want 800", got)
	}
	if w.Expired(0, deadline) {
		t.Fatal("old deadline should no longer be expired after Extend")
	}
}

// TestWatchdogDisarmClearsDegraded checks a completed recovery restores the
// engine: Disarm drops both the supervision and the degraded mark.
func TestWatchdogDisarmClearsDegraded(t *testing.T) {
	w := newTestWatchdog(t, 10)
	w.Arm(1, OpScrub, -1, 0)
	for retry := 1; retry <= 2; retry++ {
		if v, _ := w.Check(1, w.Deadline(1)); v != WatchRetry {
			t.Fatalf("expiry %d should retry", retry)
		}
	}
	if v, _ := w.Check(1, w.Deadline(1)); v != WatchEscalate {
		t.Fatal("spent budget should escalate")
	}
	if !w.Degraded(1) {
		t.Fatal("engine should be degraded")
	}
	w.Disarm(1)
	if w.Degraded(1) {
		t.Fatal("Disarm should clear the degraded mark")
	}
}

// TestWatchdogFalsePositive checks a spurious fire extends the deadline
// without consuming the retry budget or degrading the engine.
func TestWatchdogFalsePositive(t *testing.T) {
	w := newTestWatchdog(t, 50)
	w.Arm(0, OpScrub, -1, 400)
	deadline := w.Deadline(0) // 600
	if !w.Expired(0, deadline+5) {
		t.Fatal("should be expired")
	}
	w.FalsePositive(0, deadline+5)
	if w.Expired(0, deadline+5) {
		t.Fatal("false positive should extend the deadline past now")
	}
	if got, want := w.Deadline(0), deadline+5+200; got != want {
		t.Fatalf("deadline %d, want %d", got, want)
	}
	if w.FalsePositives() != 1 || w.Retries() != 0 || w.Degraded(0) {
		t.Fatalf("false positive bookkeeping: fp=%d retries=%d degraded=%v",
			w.FalsePositives(), w.Retries(), w.Degraded(0))
	}
	// Re-arming replaces supervision cleanly.
	w.Arm(0, OpCommit, 2, 1000)
	if got := w.Deadline(0); got != 1200 {
		t.Fatalf("re-armed deadline %d, want 1200", got)
	}
}

// TestWatchdogPolicyValidation checks the constructor rejects the one input
// the fixed ladder takes, the slice length, below one cycle.
func TestWatchdogPolicyValidation(t *testing.T) {
	for _, slice := range []int64{0, -1} {
		if _, err := NewWatchdog(slice, nil); err == nil {
			t.Fatalf("slice %d should be rejected", slice)
		}
	}
}
