package ctrl

import (
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/rib"
	"vrpower/internal/update"
)

func genTables(t *testing.T, k, n int, seed int64) []*rib.Table {
	t.Helper()
	set, err := rib.GenerateVirtualSet(k, n, 0.5, seed)
	if err != nil {
		t.Fatal(err)
	}
	return set.Tables
}

func genTable(t *testing.T, n int, seed int64) *rib.Table {
	t.Helper()
	tbl, err := rib.Generate("extra", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestNewRejectsNV(t *testing.T) {
	if _, err := New(core.Config{Scheme: core.NV, ClockGating: true}, genTables(t, 2, 100, 1)); err == nil {
		t.Error("NV manager accepted")
	}
}

func TestAddNetworkVS(t *testing.T) {
	m, err := New(core.Config{Scheme: core.VS, ClockGating: true}, genTables(t, 2, 200, 2))
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 2 {
		t.Fatalf("K = %d, want 2", m.K())
	}
	ev, err := m.AddNetwork(genTable(t, 200, 99))
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 3 || ev.K != 3 || ev.VN != 2 {
		t.Errorf("after add: K=%d ev=%+v", m.K(), ev)
	}
	if ev.Action != Add {
		t.Errorf("action = %s", ev.Action)
	}
	if ev.DisruptedNetworks != 1 {
		t.Errorf("VS add disrupted %d networks, want 1 (only the newcomer)", ev.DisruptedNetworks)
	}
	if ev.Writes <= 0 {
		t.Errorf("VS add writes = %d, want > 0 (engine load)", ev.Writes)
	}
	if ev.Bubbles != 0 {
		t.Errorf("VS add bubbles = %d, want 0 (loads offline)", ev.Bubbles)
	}
	if len(m.Router().Images()) != 3 {
		t.Errorf("router has %d engines, want 3", len(m.Router().Images()))
	}
}

func TestAddNetworkVMDisruptsAll(t *testing.T) {
	m, err := New(core.Config{Scheme: core.VM, ClockGating: true}, genTables(t, 3, 200, 3))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := m.AddNetwork(genTable(t, 200, 98))
	if err != nil {
		t.Fatal(err)
	}
	if ev.DisruptedNetworks != 4 {
		t.Errorf("VM add disrupted %d, want 4 (everyone)", ev.DisruptedNetworks)
	}
	if ev.Writes <= 0 || ev.Bubbles <= 0 {
		t.Errorf("VM add cost writes=%d bubbles=%d, want > 0", ev.Writes, ev.Bubbles)
	}
}

func TestAddNetworkVSHitsIOCeiling(t *testing.T) {
	// Start at the paper's ceiling and push one more network in.
	m, err := New(core.Config{Scheme: core.VS, ClockGating: true}, genTables(t, 15, 120, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddNetwork(genTable(t, 120, 97)); err == nil {
		t.Fatal("16th VS network placed, want I/O capacity error")
	}
	// Rollback must leave the manager serving 15 networks.
	if m.K() != 15 {
		t.Errorf("after failed add: K = %d, want 15", m.K())
	}
	if m.Router() == nil || len(m.Router().Images()) != 15 {
		t.Error("router not restored after failed add")
	}
	// The merged scheme takes the 16th network in stride.
	vm, err := New(core.Config{Scheme: core.VM, ClockGating: true}, genTables(t, 15, 120, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.AddNetwork(genTable(t, 120, 97)); err != nil {
		t.Errorf("VM add of 16th network failed: %v", err)
	}
}

func TestRemoveNetwork(t *testing.T) {
	for _, sc := range []core.Scheme{core.VS, core.VM} {
		m, err := New(core.Config{Scheme: sc, ClockGating: true}, genTables(t, 3, 150, 5))
		if err != nil {
			t.Fatal(err)
		}
		ev, err := m.RemoveNetwork(1)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if m.K() != 2 || ev.K != 2 {
			t.Errorf("%s: after remove K = %d", sc, m.K())
		}
		if sc == core.VM && ev.DisruptedNetworks != 3 {
			t.Errorf("VM remove disrupted %d, want 3", ev.DisruptedNetworks)
		}
		if sc == core.VS && ev.DisruptedNetworks != 1 {
			t.Errorf("VS remove disrupted %d, want 1", ev.DisruptedNetworks)
		}
		if _, err := m.RemoveNetwork(5); err == nil {
			t.Errorf("%s: out-of-range remove accepted", sc)
		}
	}
}

func TestRemoveLastNetworkRefused(t *testing.T) {
	m, err := New(core.Config{Scheme: core.VS, ClockGating: true}, genTables(t, 1, 100, 6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RemoveNetwork(0); err == nil {
		t.Error("removing the last network accepted")
	}
}

func TestApplyUpdatesCheaperOnVS(t *testing.T) {
	tables := genTables(t, 3, 400, 7)
	ops, err := update.Churn(tables[0], 40, update.ChurnConfig{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	vs, err := New(core.Config{Scheme: core.VS, ClockGating: true}, tables)
	if err != nil {
		t.Fatal(err)
	}
	evVS, err := vs.ApplyUpdates(0, ops)
	if err != nil {
		t.Fatal(err)
	}
	vmTables := genTables(t, 3, 400, 7)
	vm, err := New(core.Config{Scheme: core.VM, ClockGating: true}, vmTables)
	if err != nil {
		t.Fatal(err)
	}
	evVM, err := vm.ApplyUpdates(0, ops)
	if err != nil {
		t.Fatal(err)
	}
	if evVM.Writes <= evVS.Writes {
		t.Errorf("VM update writes %d not above VS %d", evVM.Writes, evVS.Writes)
	}
	if evVS.DisruptedNetworks != 1 || evVM.DisruptedNetworks != 3 {
		t.Errorf("disruption: VS %d (want 1), VM %d (want 3)", evVS.DisruptedNetworks, evVM.DisruptedNetworks)
	}
	if _, err := vs.ApplyUpdates(9, ops); err == nil {
		t.Error("out-of-range update accepted")
	}
}

func TestEventsLogged(t *testing.T) {
	m, err := New(core.Config{Scheme: core.VS, ClockGating: true}, genTables(t, 2, 150, 9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddNetwork(genTable(t, 150, 96)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RemoveNetwork(0); err != nil {
		t.Fatal(err)
	}
	ev := m.Events()
	if len(ev) != 2 || ev[0].Action != Add || ev[1].Action != Remove {
		t.Errorf("event log = %+v", ev)
	}
	if Add.String() != "add" || Remove.String() != "remove" || Update.String() != "update" {
		t.Error("action names wrong")
	}
}
