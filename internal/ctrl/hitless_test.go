package ctrl

import (
	"math/rand"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/pipeline"
	"vrpower/internal/trie"
	"vrpower/internal/update"
)

func churnOps(t *testing.T, m *Manager, vn, n int, seed int64) []update.Op {
	t.Helper()
	ops, err := update.Churn(m.Tables()[vn], n, update.ChurnConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

func TestHitlessUpdateVSCommit(t *testing.T) {
	m, err := New(core.Config{Scheme: core.VS, ClockGating: true}, genTables(t, 3, 300, 41))
	if err != nil {
		t.Fatal(err)
	}
	ops := churnOps(t, m, 1, 50, 42)
	h, err := m.BeginHitlessUpdate(1, ops)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Reloading() {
		t.Error("hitless update does not hold the reload guard")
	}
	if h.Engine() != 1 {
		t.Errorf("VS engine = %d, want 1", h.Engine())
	}
	if h.Writes() <= 0 || h.Bubbles() <= 0 {
		t.Errorf("writes=%d bubbles=%d, want > 0 for real churn", h.Writes(), h.Bubbles())
	}
	if h.RawOps() != len(ops) || len(h.Ops()) > len(ops) {
		t.Errorf("raw=%d coalesced=%d from %d ops", h.RawOps(), len(h.Ops()), len(ops))
	}
	ev, err := h.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if m.Reloading() {
		t.Error("guard still held after commit")
	}
	if ev.Action != Update || ev.DisruptedNetworks != 0 {
		t.Errorf("event = %+v, want a hitless update disrupting 0 networks", ev)
	}
	if m.Tables()[1] != h.Table() {
		t.Error("commit did not install the post-update table")
	}
	if kept := m.Router().Images()[1]; kept == h.Image() || !kept.Equal(h.Image()) {
		t.Error("commit must keep the new engine image and serve a separate, equal copy")
	}
	// The installed image forwards per the new table.
	ref := h.Table().Reference()
	for _, r := range h.Table().Routes[:50] {
		if got, want := pipeline.Lookup(h.Image(), pipeline.Request{Addr: r.Prefix.Addr}), ref.Lookup(r.Prefix.Addr); got != want {
			t.Fatalf("post-commit lookup(%s) = %d, want %d", r.Prefix.Addr, got, want)
		}
	}
	if _, err := h.Commit(); err == nil {
		t.Error("double commit accepted")
	}
}

func TestHitlessUpdateSharesReloadGuard(t *testing.T) {
	m, err := New(core.Config{Scheme: core.VS, ClockGating: true}, genTables(t, 2, 200, 43))
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.BeginHitlessUpdate(0, churnOps(t, m, 0, 20, 44))
	if err != nil {
		t.Fatal(err)
	}
	// Everything that rewrites the data plane is rejected mid-update.
	if _, err := m.AddNetwork(genTable(t, 200, 45)); err == nil {
		t.Error("AddNetwork accepted during a hitless update")
	}
	if _, err := m.RemoveNetwork(0); err == nil {
		t.Error("RemoveNetwork accepted during a hitless update")
	}
	if _, err := m.ApplyUpdates(0, h.Ops()); err == nil {
		t.Error("ApplyUpdates accepted during a hitless update")
	}
	if _, err := m.BeginHitlessUpdate(1, churnOps(t, m, 1, 20, 46)); err == nil {
		t.Error("second hitless update accepted while one is in flight")
	}
	h.Abort()
	if m.Reloading() {
		t.Error("guard still held after abort")
	}
	// And the converse: a reload in flight blocks hitless updates.
	if err := m.BeginReload(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.BeginHitlessUpdate(0, churnOps(t, m, 0, 20, 47)); err == nil {
		t.Error("hitless update accepted during a reload")
	}
	m.EndReload()
}

func TestHitlessUpdateAbortLeavesStateIntact(t *testing.T) {
	m, err := New(core.Config{Scheme: core.VM, ClockGating: true}, genTables(t, 3, 250, 48))
	if err != nil {
		t.Fatal(err)
	}
	before := m.Tables()[2]
	img := m.Router().Images()[0]
	events := len(m.Events())
	h, err := m.BeginHitlessUpdate(2, churnOps(t, m, 2, 30, 49))
	if err != nil {
		t.Fatal(err)
	}
	if h.Engine() != 0 {
		t.Errorf("VM engine = %d, want 0 (the shared merged engine)", h.Engine())
	}
	h.Abort()
	if m.Tables()[2] != before || m.Router().Images()[0] != img || len(m.Events()) != events {
		t.Error("abort mutated manager state")
	}
	h.Abort() // idempotent
	if _, err := h.Commit(); err == nil {
		t.Error("commit accepted after abort")
	}
}

// TestHitlessUpdateVMCostlierThanVS pins the separate-vs-merged asymmetry
// end-to-end through the hitless path: the same churn on one network costs
// far more writes and bubbles against the shared merged structure.
func TestHitlessUpdateVMCostlierThanVS(t *testing.T) {
	tables := genTables(t, 4, 400, 50)
	ops, err := update.Churn(tables[0], 50, update.ChurnConfig{Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	cost := func(scheme core.Scheme) (int, int) {
		m, err := New(core.Config{Scheme: scheme, ClockGating: true}, tables)
		if err != nil {
			t.Fatal(err)
		}
		h, err := m.BeginHitlessUpdate(0, ops)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Abort()
		return h.Writes(), h.Bubbles()
	}
	vsW, vsB := cost(core.VS)
	vmW, vmB := cost(core.VM)
	if vmW <= vsW || vmB <= vsB {
		t.Errorf("VM update (writes=%d bubbles=%d) not costlier than VS (writes=%d bubbles=%d)", vmW, vmB, vsW, vsB)
	}
}

func TestBeginHitlessUpdateValidation(t *testing.T) {
	m, err := New(core.Config{Scheme: core.VS, ClockGating: true}, genTables(t, 2, 150, 52))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.BeginHitlessUpdate(5, churnOps(t, m, 0, 5, 53)); err == nil {
		t.Error("out-of-range VN accepted")
	}
	if _, err := m.BeginHitlessUpdate(0, nil); err == nil {
		t.Error("empty op batch accepted")
	}
	if m.Reloading() {
		t.Error("failed begin left the guard held")
	}
}

// TestPinnedImagesAreFreshCompiles: the manager compiles into tries it
// rebuilds in place, batch after batch; after random hitless batches —
// committed or aborted, growing and shrinking tables — on either scheme,
// every pinned image is word for word the image a fresh trie compiles from
// the manager's tables.
func TestPinnedImagesAreFreshCompiles(t *testing.T) {
	sm, err := trie.NewStageMap(core.DefaultStages, 32)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(t *testing.T, m *Manager, e int) *pipeline.Image {
		tables := m.Tables()[e : e+1]
		if m.cfg.Scheme == core.VM {
			tables = m.Tables()
		}
		img, err := pipeline.NewRoutes(tables).Compile(sm)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	for _, sc := range []core.Scheme{core.VS, core.VM} {
		t.Run(sc.String(), func(t *testing.T) {
			m, err := New(core.Config{Scheme: sc, ClockGating: true}, genTables(t, 3, 300, 61))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(62))
			for batch := 0; batch < 12; batch++ {
				vn := rng.Intn(m.K())
				ops, err := update.Churn(m.Tables()[vn], 1+rng.Intn(120), update.ChurnConfig{
					Seed: rng.Int63(), AnnounceFrac: 0.05 + 0.6*rng.Float64(), WithdrawFrac: 0.05 + 0.3*rng.Float64()})
				if err != nil {
					t.Fatal(err)
				}
				h, err := m.BeginHitlessUpdate(vn, ops)
				if err != nil {
					t.Fatal(err)
				}
				if batch%4 == 3 {
					h.Abort()
				} else if _, err := h.Commit(); err != nil {
					t.Fatal(err)
				}
				for e, img := range m.pinned {
					writes, err := update.Diff(img, fresh(t, m, e))
					if err != nil {
						t.Fatal(err)
					}
					if len(writes) != 0 {
						t.Fatalf("batch %d: engine %d's pinned image differs from a fresh compile in %d words", batch, e, len(writes))
					}
				}
			}
		})
	}
}
