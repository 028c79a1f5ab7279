package ctrl

import (
	"errors"
	"testing"
)

// TestJournalCleanCommitLifecycle drives an operation through intent, three
// applies and a commit, and checks every record lands in order.
func TestJournalCleanCommitLifecycle(t *testing.T) {
	j := NewJournal()
	tok, err := j.Begin(OpScrub, 2, -1, 100)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if !j.Torn() {
		t.Fatal("journal should be torn (open) between intent and commit")
	}
	tok.Apply(0, 10, 110)
	tok.Apply(1, 12, 120)
	tok.Apply(2, 7, 130)
	if tok.applies != 3 || tok.writes != 29 {
		t.Fatalf("applies %d writes %d, want 3/29", tok.applies, tok.writes)
	}
	if err := tok.Commit(140); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if j.Torn() {
		t.Fatal("journal still torn after commit")
	}
	recs := j.recs
	wantTypes := []RecType{RecIntent, RecApply, RecApply, RecApply, RecCommit}
	if len(recs) != len(wantTypes) {
		t.Fatalf("got %d records, want %d", len(recs), len(wantTypes))
	}
	for i, r := range recs {
		if r.Type != wantTypes[i] {
			t.Errorf("record %d type %s, want %s", i, r.Type, wantTypes[i])
		}
		if r.Seq != i {
			t.Errorf("record %d seq %d", i, r.Seq)
		}
		if r.Engine != 2 || r.Op != OpScrub {
			t.Errorf("record %d target engine %d op %s", i, r.Engine, r.Op)
		}
	}
	st := j.Stats()
	if st.Begun != 1 || st.Commits != 1 || st.Aborts != 0 || st.Replays != 0 || st.Rollbacks != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestJournalSingleWriter checks a second Begin is rejected with the
// sentinel while an operation is open, and allowed after it closes.
func TestJournalSingleWriter(t *testing.T) {
	j := NewJournal()
	tok, err := j.Begin(OpCommit, 0, 3, 0)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if _, err := j.Begin(OpScrub, 1, -1, 5); !errors.Is(err, ErrOpInFlight) {
		t.Fatalf("second Begin error %v, want ErrOpInFlight", err)
	}
	if err := tok.Abort(10); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if _, err := j.Begin(OpScrub, 1, -1, 20); err != nil {
		t.Fatalf("Begin after abort: %v", err)
	}
}

// TestJournalClosedTokenRejectsMutation checks a committed token rejects
// further Commit/Abort with the sentinel and drops Apply silently.
func TestJournalClosedTokenRejectsMutation(t *testing.T) {
	j := NewJournal()
	tok, _ := j.Begin(OpScrub, 0, -1, 0)
	if err := tok.Commit(1); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := tok.Commit(2); !errors.Is(err, ErrUpdateFinished) {
		t.Fatalf("double commit error %v, want ErrUpdateFinished", err)
	}
	if err := tok.Abort(3); !errors.Is(err, ErrUpdateFinished) {
		t.Fatalf("abort after commit error %v, want ErrUpdateFinished", err)
	}
	before := len(j.recs)
	tok.Apply(0, 1, 4)
	if len(j.recs) != before {
		t.Fatal("Apply on a closed token appended a record")
	}
}

// TestRecoverTornScrubReplays checks the recovery policy for reloads: the
// plan is a replay, the operation STAYS open for the caller to finish.
func TestRecoverTornScrubReplays(t *testing.T) {
	j := NewJournal()
	tok, _ := j.Begin(OpScrub, 1, -1, 0)
	tok.Apply(0, 8, 10)
	tok.Apply(1, 8, 20)
	rec, err := j.Recover(50)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.Action != Replay || rec.Op != OpScrub || rec.Engine != 1 || rec.StagesApplied != 2 {
		t.Fatalf("recovery %+v", rec)
	}
	if !j.Torn() {
		t.Fatal("replay must leave the operation open for the caller to complete")
	}
	// The caller finishes the replay and commits.
	tok.Apply(2, 8, 60)
	if err := tok.Commit(70); err != nil {
		t.Fatalf("Commit after replay: %v", err)
	}
	st := j.Stats()
	if st.Replays != 1 || st.Rollbacks != 0 || st.Commits != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestRecoverTornCommitRollsBack checks the recovery policy for hitless
// commits: the plan is a rollback and the operation is CLOSED with an abort
// record (the bank flip must never half-apply).
func TestRecoverTornCommitRollsBack(t *testing.T) {
	j := NewJournal()
	tok, _ := j.Begin(OpCommit, 0, 2, 0)
	tok.Apply(-1, 5, 10)
	rec, err := j.Recover(40)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.Action != Rollback || rec.Op != OpCommit || rec.VN != 2 || rec.StagesApplied != 1 {
		t.Fatalf("recovery %+v", rec)
	}
	if j.Torn() {
		t.Fatal("rollback must close the torn operation")
	}
	last := j.recs[len(j.recs)-1]
	if last.Type != RecAbort {
		t.Fatalf("final record %s, want abort", last.Type)
	}
	if err := tok.Commit(50); !errors.Is(err, ErrUpdateFinished) {
		t.Fatalf("commit after rollback error %v, want ErrUpdateFinished", err)
	}
	st := j.Stats()
	if st.Rollbacks != 1 || st.Aborts != 1 || st.Replays != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestRecoverConsistentJournalErrors checks Recover refuses when nothing is
// torn.
func TestRecoverConsistentJournalErrors(t *testing.T) {
	j := NewJournal()
	if _, err := j.Recover(0); err == nil {
		t.Fatal("Recover on a consistent journal should error")
	}
}
