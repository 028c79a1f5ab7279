package ctrl

import (
	"errors"
	"strings"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/pipeline"
	"vrpower/internal/rib"
	"vrpower/internal/update"
)

// forwardingIntact verifies the manager's router still resolves routes of
// every live network — the "no corrupted state" half of each error-path
// assertion.
func forwardingIntact(t *testing.T, m *Manager) {
	t.Helper()
	sysTables := m.Tables()
	images := m.Router().Images()
	for vn, tbl := range sysTables {
		ref := tbl.Reference()
		r := tbl.Routes[0]
		img, reqVN := images[0], vn
		if m.cfg.Scheme != core.VM {
			img, reqVN = images[vn], 0
		}
		got := pipeline.Lookup(img, pipeline.Request{Addr: r.Prefix.Addr, VN: reqVN})
		if want := ref.Lookup(r.Prefix.Addr); got != want {
			t.Fatalf("VN %d forwarding broken after failed op: %d, want %d", vn, got, want)
		}
	}
}

// TestRemoveUnknownVNIDLeavesStateIntact: removing a VNID that does not
// exist must fail cleanly — same K, same event log, forwarding untouched.
func TestRemoveUnknownVNIDLeavesStateIntact(t *testing.T) {
	for _, scheme := range []core.Scheme{core.VS, core.VM} {
		m, err := New(core.Config{Scheme: scheme, ClockGating: true}, genTables(t, 3, 150, 30))
		if err != nil {
			t.Fatal(err)
		}
		events := len(m.Events())
		for _, vn := range []int{-1, 3, 99} {
			if _, err := m.RemoveNetwork(vn); err == nil {
				t.Errorf("%s: remove of unknown VNID %d succeeded", scheme, vn)
			}
		}
		if m.K() != 3 {
			t.Errorf("%s: K = %d after failed removes, want 3", scheme, m.K())
		}
		if len(m.Events()) != events {
			t.Errorf("%s: failed removes appended events", scheme)
		}
		forwardingIntact(t, m)
	}
}

// TestAddPastIOPinLimitRollsBack: the separate scheme runs out of I/O pins
// at K=16 on the XC6VLX760 (the paper's VS scalability wall). The add must
// fail with a capacity error and leave the running 15-network router fully
// serviceable.
func TestAddPastIOPinLimitRollsBack(t *testing.T) {
	set, err := rib.GenerateVirtualSet(15, 60, 0.5, 31)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(core.Config{Scheme: core.VS, ClockGating: true}, set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.AddNetwork(genTable(t, 60, 32))
	if err == nil {
		t.Fatal("16th VS network accepted past the I/O pin budget")
	}
	if !strings.Contains(err.Error(), "pin") && !strings.Contains(err.Error(), "I/O") {
		t.Logf("note: error %q does not mention pins", err)
	}
	if m.K() != 15 {
		t.Fatalf("K = %d after failed add, want 15 (rolled back)", m.K())
	}
	if got := len(m.Router().Images()); got != 15 {
		t.Fatalf("router has %d engines after failed add, want 15", got)
	}
	forwardingIntact(t, m)
	// The manager must still accept in-budget operations afterwards.
	ops, err := update.Churn(m.Tables()[0], 20, update.ChurnConfig{Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyUpdates(0, ops); err != nil {
		t.Fatalf("update after failed add: %v", err)
	}
}

// TestMutationsRejectedDuringReload: while a reload is in flight every
// lifecycle mutation must fail without touching state, and succeed again
// once the reload closes.
func TestMutationsRejectedDuringReload(t *testing.T) {
	m, err := New(core.Config{Scheme: core.VS, ClockGating: true}, genTables(t, 3, 150, 34))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.BeginReload(); err != nil {
		t.Fatal(err)
	}
	if err := m.BeginReload(); !errors.Is(err, ErrReloadInFlight) {
		t.Errorf("nested BeginReload error %v, want ErrReloadInFlight", err)
	}
	ops, err := update.Churn(m.Tables()[1], 10, update.ChurnConfig{Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyUpdates(1, ops); !errors.Is(err, ErrReloadInFlight) {
		t.Errorf("ApplyUpdates during reload error %v, want ErrReloadInFlight", err)
	}
	if _, err := m.AddNetwork(genTable(t, 150, 36)); !errors.Is(err, ErrReloadInFlight) {
		t.Errorf("AddNetwork during reload error %v, want ErrReloadInFlight", err)
	}
	if _, err := m.RemoveNetwork(0); !errors.Is(err, ErrReloadInFlight) {
		t.Errorf("RemoveNetwork during reload error %v, want ErrReloadInFlight", err)
	}
	if m.K() != 3 || len(m.Events()) != 0 {
		t.Errorf("state changed during reload: K=%d events=%d", m.K(), len(m.Events()))
	}
	m.EndReload()
	if _, err := m.ApplyUpdates(1, ops); err != nil {
		t.Errorf("ApplyUpdates after EndReload: %v", err)
	}
	forwardingIntact(t, m)
}

// TestHitlessDoubleCommitWrapsSentinel: committing a finished hitless
// update must surface ErrUpdateFinished through errors.Is.
func TestHitlessDoubleCommitWrapsSentinel(t *testing.T) {
	m, err := New(core.Config{Scheme: core.VS, ClockGating: true}, genTables(t, 2, 150, 41))
	if err != nil {
		t.Fatal(err)
	}
	ops, err := update.Churn(m.Tables()[0], 10, update.ChurnConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.BeginHitlessUpdate(0, ops)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Commit(); !errors.Is(err, ErrUpdateFinished) {
		t.Fatalf("double commit error %v, want ErrUpdateFinished", err)
	}
	forwardingIntact(t, m)
}
