package core

import (
	"fmt"

	"vrpower/internal/merge"
	"vrpower/internal/pipeline"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

// TableProfile is the shape of one network's leaf-pushed trie — its
// per-level internal and leaf counts — the input to the analytic memory
// model. The paper evaluates with all K tables of equal size (Assumption 2),
// so one profile describes every network.
type TableProfile = trie.Stats

// ProfileOf extracts the profile of a routing table's leaf-pushed trie.
func ProfileOf(tbl *rib.Table) TableProfile {
	return trie.StatsOf(pipeline.NewRoutes([]*rib.Table{tbl}).Levels)
}

// PaperProfile generates the reference profile of Section V-E: a synthetic
// table calibrated to the paper's published 3725-prefix Potaroo snapshot
// (9726 trie nodes, 16127 after leaf pushing).
func PaperProfile() (TableProfile, error) {
	tbl, err := rib.Generate("paper", 3725, 1)
	if err != nil {
		return TableProfile{}, err
	}
	return ProfileOf(tbl), nil
}

// MemoryDemand evaluates the analytic memory model for one scheme without
// placing it on a device — the Fig. 4 computation, which sweeps K beyond
// what the device can host. It returns the pointer (internal node) and NHI
// (leaf vector) memory in bits.
//
// NV and VS store K independent tries: pointers and 1-wide NHI scale with K.
// VM stores one merged trie: per level, K tries' nodes merge down by the
// sharing model T = K·m/(1+(K−1)α), but every merged leaf carries a K-wide
// NHI vector (Section V-D) — the pointer-saving vs NHI-growth trade-off the
// paper highlights.
func MemoryDemand(cfg Config, prof TableProfile, alpha float64) (ptrBits, nhiBits int64, err error) {
	cfg = cfg.withDefaults()
	levels, err := analyticLevels(cfg, prof, alpha)
	for _, l := range levels {
		ptrBits, nhiBits = ptrBits+l.ptr, nhiBits+l.nhi
	}
	n := int64(cfg.engines())
	return n * ptrBits, n * nhiBits, err
}

// BuildAnalytic constructs a router from the analytic memory model instead
// of concrete tables: the per-level memories come from the profile (scaled
// by the sharing model for VM) and are priced exactly as in Build. This is
// the fast path behind the Fig. 5–8 sweeps, mirroring how the paper
// parameterises merging by α directly because "merging efficiency cannot be
// determined in advance" (Section V-E).
func BuildAnalytic(cfg Config, prof TableProfile, alpha float64) (*Router, error) {
	cfg = cfg.withDefaults()
	levels, err := analyticLevels(cfg, prof, alpha)
	if err != nil {
		return nil, err
	}
	sm, err := stageMap(cfg, levels)
	if err != nil {
		return nil, err
	}
	// Every analytic engine has cfg.Stages stages, trailing ones empty where a
	// balanced map needs fewer.
	sm.Stages = cfg.Stages
	engines := make([]engine, cfg.engines())
	for i := range engines {
		engines[i] = engine{levels: levels, sm: sm}
	}
	return price(cfg, engines)
}

// analyticLevels is one engine's per-level memories under the analytic
// model: the profile's trie for NV and VS; for VM, per level, K tries' nodes
// merged by the sharing model at α, with a K-wide NHI vector at each leaf,
// rounded down level by level.
func analyticLevels(cfg Config, prof TableProfile, alpha float64) ([]level, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !(alpha >= 0 && alpha <= 1) {
		return nil, fmt.Errorf("core: alpha %g outside [0,1]", alpha)
	}
	if cfg.Scheme != VM {
		return levelsOf(cfg, prof.PerLevel, 1), nil
	}
	levels := make([]level, len(prof.PerLevel))
	for i, lv := range prof.PerLevel {
		mi := merge.AnalyticNodes(cfg.K, float64(lv.Internal), alpha)
		ml := merge.AnalyticNodes(cfg.K, float64(lv.Leaves), alpha)
		levels[i] = level{
			ptr: int64(mi * 2 * float64(cfg.Layout.PtrBits)),
			nhi: int64(ml * float64(cfg.K) * float64(cfg.Layout.NHIBits)),
		}
	}
	return levels, nil
}
