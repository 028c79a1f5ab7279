package ctrl

import (
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/pipeline"
)

// budgetFailer fails the first n reconfiguration attempts.
type budgetFailer struct{ left int }

func (f *budgetFailer) FailReconfig() bool {
	if f.left <= 0 {
		return false
	}
	f.left--
	return true
}

func TestScrubPolicyDefaults(t *testing.T) {
	sc, err := NewScrubber(ScrubPolicy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := sc.Policy(); p != DefaultScrubPolicy() {
		t.Errorf("zero policy filled to %+v, want defaults %+v", p, DefaultScrubPolicy())
	}
	if _, err := NewScrubber(ScrubPolicy{MaxAttempts: -1}, nil); err == nil {
		t.Error("negative MaxAttempts accepted")
	}
}

func TestScrubFirstAttemptSucceeds(t *testing.T) {
	m, err := New(core.Config{Scheme: core.VS, ClockGating: true}, genTables(t, 2, 200, 20))
	if err != nil {
		t.Fatal(err)
	}
	img, err := m.compileSeparate(m.Tables()[0])
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := NewScrubber(ScrubPolicy{MaxAttempts: 3, BackoffCycles: 100, WriteCycles: 2}, nil)
	res, err := sc.Scrub(func() (*pipeline.Image, error) { return img, nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", res.Attempts)
	}
	if res.Writes != img.Words() {
		t.Errorf("writes = %d, want %d", res.Writes, img.Words())
	}
	if want := int64(img.Words()) * 2; res.LatencyCycles != want {
		t.Errorf("latency = %d cycles, want %d (writes only)", res.LatencyCycles, want)
	}
}

// TestScrubRetriesWithExponentialBackoff: two injected mid-flight failures
// cost two wasted loads plus backoff 100 then 200 before the third attempt
// lands.
func TestScrubRetriesWithExponentialBackoff(t *testing.T) {
	m, err := New(core.Config{Scheme: core.VS, ClockGating: true}, genTables(t, 2, 200, 21))
	if err != nil {
		t.Fatal(err)
	}
	img, err := m.compileSeparate(m.Tables()[0])
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := NewScrubber(ScrubPolicy{MaxAttempts: 4, BackoffCycles: 100, WriteCycles: 1}, &budgetFailer{left: 2})
	res, err := sc.Scrub(func() (*pipeline.Image, error) { return img, nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", res.Attempts)
	}
	want := 3*int64(img.Words()) + 100 + 200
	if res.LatencyCycles != want {
		t.Errorf("latency = %d cycles, want %d", res.LatencyCycles, want)
	}
}

func TestScrubExhaustsRetryBudget(t *testing.T) {
	m, err := New(core.Config{Scheme: core.VS, ClockGating: true}, genTables(t, 2, 150, 22))
	if err != nil {
		t.Fatal(err)
	}
	img, err := m.compileSeparate(m.Tables()[0])
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := NewScrubber(ScrubPolicy{MaxAttempts: 2, BackoffCycles: 50, WriteCycles: 1}, &budgetFailer{left: 10})
	res, err := sc.Scrub(func() (*pipeline.Image, error) { return img, nil })
	if err == nil {
		t.Fatal("scrub with inexhaustible failures succeeded")
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (bounded)", res.Attempts)
	}
	if res.Image != nil {
		t.Error("failed scrub returned an image")
	}
}

// TestScrubNetworkRepairsCorruption: corrupt the data plane's copy of a live
// VS engine, scrub it through the manager, and verify the image handed back
// for the reload is parity-clean, forwards correctly, and is neither the
// corrupted copy nor the manager's own.
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
	sc, _ := NewScrubber(ScrubPolicy{}, nil)
	res, err := m.ScrubNetwork(1, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Image == nil || res.Attempts != 1 {
		t.Fatalf("scrub result %+v", res)
	}
	installed := res.Image
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
	if m.Reloading() {
		t.Error("manager left in reloading state after scrub")
	}
}

func TestScrubNetworkValidatesVN(t *testing.T) {
	m, err := New(core.Config{Scheme: core.VS, ClockGating: true}, genTables(t, 2, 100, 24))
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := NewScrubber(ScrubPolicy{}, nil)
	if _, err := m.ScrubNetwork(5, sc); err == nil {
		t.Error("scrub of unknown network accepted")
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
	sc, _ := NewScrubber(ScrubPolicy{}, nil)
	res, err := m.ScrubNetwork(2, sc)
	if err != nil {
		t.Fatal(err)
	}
	installed := res.Image
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
