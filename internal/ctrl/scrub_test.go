package ctrl

import (
	"errors"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
)

// TestScrubFirstAttemptSucceeds: a scrub rebuilds once and hands back the
// rebuilt image itself, counting one completed scrub whose latency is the
// image's word count (one cycle per word written).
func TestScrubFirstAttemptSucceeds(t *testing.T) {
	m, err := New(core.Config{Scheme: core.VS, ClockGating: true}, genTables(t, 2, 200, 20))
	if err != nil {
		t.Fatal(err)
	}
	img, err := m.compile(m.Tables(), 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := obs.TakeSnapshot()
	rebuilds := 0
	got, err := Scrub(func() (*pipeline.Image, error) { rebuilds++; return img, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got != img || rebuilds != 1 {
		t.Errorf("scrub returned %p after %d rebuilds, want %p after 1", got, rebuilds, img)
	}
	if n := snap.CounterDelta("ctrl.scrubs_completed"); n != 1 {
		t.Errorf("ctrl.scrubs_completed grew by %d, want 1", n)
	}
}

// TestScrubNetworkRepairsCorruption: corrupt the data plane's copy of a live
// VS engine, scrub it from the manager's pinned image, and verify the image
// handed back for the reload is parity-clean, forwards correctly, and is
// neither the corrupted copy nor the manager's own.
func TestScrubNetworkRepairsCorruption(t *testing.T) {
	tables := genTables(t, 3, 300, 23)
	m, err := New(core.Config{Scheme: core.VS, ClockGating: true}, tables)
	if err != nil {
		t.Fatal(err)
	}
	served, err := m.PinnedImage(1)
	if err != nil {
		t.Fatal(err)
	}
	if !served.FlipBit(0, 0, 0) {
		t.Fatal("could not corrupt engine 1")
	}
	if s, _ := served.Corrupted(); len(s) != 1 {
		t.Fatalf("expected 1 corrupted word, got %d", len(s))
	}
	installed, err := Scrub(func() (*pipeline.Image, error) { return m.PinnedImage(1) })
	if err != nil {
		t.Fatal(err)
	}
	if installed == served || installed == m.Router().Images()[1] {
		t.Fatal("scrub handed back an image something else holds")
	}
	if s, _ := installed.Corrupted(); len(s) != 0 {
		t.Errorf("installed image still has %d corrupted words", len(s))
	}
	if s, _ := m.Router().Images()[1].Corrupted(); len(s) != 0 {
		t.Errorf("the data plane's upset reached the manager's image: %d corrupted words", len(s))
	}
	ref := tables[1].Reference()
	for _, r := range tables[1].Routes[:50] {
		if got, want := pipeline.Lookup(installed, pipeline.Request{Addr: r.Prefix.Addr}), ref.Lookup(r.Prefix.Addr); got != want {
			t.Fatalf("scrubbed engine lookup %s: %d, want %d", r.Prefix, got, want)
		}
	}
}

// TestScrubNetworkValidatesVN: a rebuild that fails (here: an engine the
// manager does not have) is returned, not retried, and counts no scrub.
func TestScrubNetworkValidatesVN(t *testing.T) {
	m, err := New(core.Config{Scheme: core.VS, ClockGating: true}, genTables(t, 2, 100, 24))
	if err != nil {
		t.Fatal(err)
	}
	snap := obs.TakeSnapshot()
	rebuilds := 0
	img, err := Scrub(func() (*pipeline.Image, error) { rebuilds++; return m.PinnedImage(5) })
	if err == nil || img != nil {
		t.Fatalf("scrub of unknown engine returned (%v, %v), want an error", img, err)
	}
	if rebuilds != 1 {
		t.Errorf("failed rebuild ran %d times, want 1", rebuilds)
	}
	if n := snap.CounterDelta("ctrl.scrubs_completed"); n != 0 {
		t.Errorf("failed scrub counted %d completions", n)
	}
	boom := errors.New("boom")
	if _, err := Scrub(func() (*pipeline.Image, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Errorf("scrub error %v does not wrap the rebuild's", err)
	}
}

func TestScrubNetworkVMInstallsMergedEngine(t *testing.T) {
	tables := genTables(t, 3, 200, 25)
	m, err := New(core.Config{Scheme: core.VM, ClockGating: true}, tables)
	if err != nil {
		t.Fatal(err)
	}
	served, err := m.PinnedImages()
	if err != nil {
		t.Fatal(err)
	}
	served[0].FlipBit(0, 0, 1)
	// Network 2's routes live in the shared engine 0.
	installed, err := Scrub(func() (*pipeline.Image, error) { return m.PinnedImage(m.engineOf(2)) })
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := installed.Corrupted(); len(s) != 0 {
		t.Errorf("merged image still has %d corrupted words", len(s))
	}
	// The merged engine must resolve per-VN next hops again.
	for vn, tbl := range tables {
		ref := tbl.Reference()
		r := tbl.Routes[0]
		if got, want := pipeline.Lookup(installed, pipeline.Request{Addr: r.Prefix.Addr, VN: vn}), ref.Lookup(r.Prefix.Addr); got != want {
			t.Fatalf("VN %d lookup after VM scrub: %d, want %d", vn, got, want)
		}
	}
}
