package core

import (
	"fmt"

	"vrpower/internal/merge"
	"vrpower/internal/power"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

// TableProfile is the per-level shape of one network's leaf-pushed trie,
// the input to the analytic memory model. The paper evaluates with all K
// tables of equal size (Assumption 2), so one profile describes every
// network.
type TableProfile struct {
	// PerLevel holds internal/leaf node counts per trie level.
	PerLevel []trie.Level
	Nodes    int
	Leaves   int
	Height   int
}

// ProfileOf extracts the profile of a routing table's leaf-pushed trie.
func ProfileOf(tbl *rib.Table) TableProfile {
	tr := trie.Build(tbl.Routes)
	tr.LeafPush()
	s := tr.Stats()
	return TableProfile{PerLevel: s.PerLevel, Nodes: s.Nodes, Leaves: s.Leaves, Height: s.Height}
}

// PaperProfile generates the reference profile of Section V-E: a synthetic
// table calibrated to the paper's published 3725-prefix Potaroo snapshot
// (9726 trie nodes, 16127 after leaf pushing).
func PaperProfile() (TableProfile, error) {
	tbl, err := rib.Generate("paper", rib.DefaultGen(3725, 1))
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
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	if alpha < 0 || alpha > 1 {
		return 0, 0, fmt.Errorf("core: alpha %g outside [0,1]", alpha)
	}
	l := cfg.Layout
	switch cfg.Scheme {
	case NV, VS:
		for _, lv := range prof.PerLevel {
			ptrBits += int64(cfg.K) * int64(lv.Internal) * 2 * int64(l.PtrBits)
			nhiBits += int64(cfg.K) * int64(lv.Leaves) * int64(l.NHIBits)
		}
	case VM:
		for _, lv := range prof.PerLevel {
			mi := merge.AnalyticNodes(cfg.K, float64(lv.Internal), alpha)
			ml := merge.AnalyticNodes(cfg.K, float64(lv.Leaves), alpha)
			ptrBits += int64(mi * 2 * float64(l.PtrBits))
			nhiBits += int64(ml * float64(cfg.K) * float64(l.NHIBits))
		}
	}
	return ptrBits, nhiBits, nil
}

// BuildAnalytic constructs a router from the analytic memory model instead
// of concrete tables: stage memories come from the profile (scaled by the
// sharing model for VM), then placement, timing and power proceed exactly
// as in Build. This is the fast path behind the Fig. 5–8 sweeps, mirroring
// how the paper parameterises merging by α directly because "merging
// efficiency cannot be determined in advance" (Section V-E).
func BuildAnalytic(cfg Config, prof TableProfile, alpha float64) (*Router, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("core: alpha %g outside [0,1]", alpha)
	}
	l := cfg.Layout
	var sm trie.StageMap
	var err error
	if cfg.Balanced {
		bits := make([]int64, len(prof.PerLevel))
		for level, lv := range prof.PerLevel {
			nhiWidth := int64(1)
			if cfg.Scheme == VM {
				// Balanced partitioning sees the merged per-level memory.
				mi := merge.AnalyticNodes(cfg.K, float64(lv.Internal), alpha)
				ml := merge.AnalyticNodes(cfg.K, float64(lv.Leaves), alpha)
				bits[level] = int64(mi*2*float64(l.PtrBits)) +
					int64(ml*float64(cfg.K)*float64(l.NHIBits))
				continue
			}
			bits[level] = int64(lv.Internal)*2*int64(l.PtrBits) +
				int64(lv.Leaves)*nhiWidth*int64(l.NHIBits)
		}
		sm, err = trie.NewBalancedStageMap(cfg.Stages, bits)
	} else {
		sm, err = trie.NewStageMap(cfg.Stages, prof.Height)
	}
	if err != nil {
		return nil, err
	}

	var engines []power.EngineDesign
	var ptrBits, nhiBits int64
	switch cfg.Scheme {
	case NV, VS:
		stageBits := make([]int64, cfg.Stages)
		for level, lv := range prof.PerLevel {
			bits := int64(lv.Internal)*2*int64(l.PtrBits) + int64(lv.Leaves)*int64(l.NHIBits)
			stageBits[sm.Stage(level)] += bits
			ptrBits += int64(cfg.K) * int64(lv.Internal) * 2 * int64(l.PtrBits)
			nhiBits += int64(cfg.K) * int64(lv.Leaves) * int64(l.NHIBits)
		}
		engines = make([]power.EngineDesign, cfg.K)
		for i := range engines {
			engines[i] = power.EngineDesign{
				StageBits:   stageBits,
				Utilization: engineUtilization(cfg.Scheme, cfg.K),
			}
		}
	case VM:
		stageBits := make([]int64, cfg.Stages)
		for level, lv := range prof.PerLevel {
			mi := merge.AnalyticNodes(cfg.K, float64(lv.Internal), alpha)
			ml := merge.AnalyticNodes(cfg.K, float64(lv.Leaves), alpha)
			pb := int64(mi * 2 * float64(l.PtrBits))
			nb := int64(ml * float64(cfg.K) * float64(l.NHIBits))
			stageBits[sm.Stage(level)] += pb + nb
			ptrBits += pb
			nhiBits += nb
		}
		engines = []power.EngineDesign{{StageBits: stageBits, Utilization: 1}}
	}
	r, err := place(cfg, engines)
	if err != nil {
		return nil, err
	}
	r.ptrBits = ptrBits
	r.nhiBits = nhiBits
	return r, nil
}
