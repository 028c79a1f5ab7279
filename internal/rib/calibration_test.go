package rib

import (
	"testing"

	"vrpower/internal/trie"
)

// TestTrieCalibration validates the Potaroo substitution (Section V-E): a
// generated 3725-route table must build a uni-bit trie close to the paper's
// published shape — 9726 nodes plain and 16127 nodes after leaf pushing
// (which also pins the leaf/one-child split: 1663 leaves, 6401 one-child
// internal nodes). The generator defaults were calibrated to these targets;
// the tolerance absorbs seed-to-seed variance.
func TestTrieCalibration(t *testing.T) {
	const (
		paperPrefixes = 3725
		paperNodes    = 9726
		paperPushed   = 16127
		paperLeaves   = 1663 // (paperPushed - paperNodes) derived: leaves = (nodes - onechild + 1 + ...) see DESIGN
		tolerance     = 0.08
	)
	within := func(got, want int) bool {
		diff := float64(got-want) / float64(want)
		if diff < 0 {
			diff = -diff
		}
		return diff <= tolerance
	}
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		tbl, err := Generate("cal", paperPrefixes, seed)
		if err != nil {
			t.Fatal(err)
		}
		tr := trie.Build(tbl.Routes)
		s := tr.Stats()
		if !within(s.Nodes, paperNodes) {
			t.Errorf("seed %d: plain trie nodes = %d, want %d ±%.0f%%", seed, s.Nodes, paperNodes, tolerance*100)
		}
		if !within(s.Leaves, paperLeaves) {
			t.Errorf("seed %d: leaves = %d, want %d ±%.0f%%", seed, s.Leaves, paperLeaves, tolerance*100)
		}
		tr.LeafPush()
		if pushed := tr.Stats().Nodes; !within(pushed, paperPushed) {
			t.Errorf("seed %d: leaf-pushed nodes = %d, want %d ±%.0f%%", seed, pushed, paperPushed, tolerance*100)
		}
	}
}

// TestCalibrationHeightSane checks that the generated tries stay within the
// IPv4 depth bound and reach realistic /24-and-deeper depths.
func TestCalibrationHeightSane(t *testing.T) {
	tbl, err := Generate("cal", 3725, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := trie.Build(tbl.Routes)
	s := tr.Stats()
	if s.Height > 32 {
		t.Fatalf("trie height %d exceeds 32", s.Height)
	}
	if s.Height < 24 {
		t.Errorf("trie height %d, want >= 24 (tables announce /24 runs with nested ladders)", s.Height)
	}
}
