package core

import (
	"fmt"

	"vrpower/internal/fpga"
	"vrpower/internal/merge"
	"vrpower/internal/pipeline"
	"vrpower/internal/power"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

// Build constructs a router of cfg.Scheme from the K routing tables:
// tables → (merged) leaf-pushed tries → compiled pipeline images → placed
// design with its achievable clock and power-model input. It is
// CompileTable for each table (one merged compile for VM) followed by
// Assemble.
func Build(cfg Config, tables []*rib.Table) (*Router, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(tables) != cfg.K {
		return nil, fmt.Errorf("core: %d tables for K = %d", len(tables), cfg.K)
	}
	var images []*pipeline.Image
	if cfg.Scheme == VM {
		img, err := CompileMerged(cfg, tables)
		if err != nil {
			return nil, err
		}
		images = []*pipeline.Image{img}
	} else {
		images = make([]*pipeline.Image, len(tables))
		for i, tbl := range tables {
			var err error
			if images[i], err = CompileTable(cfg, tbl); err != nil {
				return nil, err
			}
		}
	}
	return Assemble(cfg, images)
}

// CompileTable compiles one table's engine image the way Build does for an
// NV or VS router: leaf-pushed trie, cfg's stage count and mapping. The
// image depends on cfg.Stages, cfg.Balanced, cfg.Layout and the table, and
// on nothing else in cfg — not the scheme, not K — so one compiled image
// serves every router that hosts the table.
func CompileTable(cfg Config, tbl *rib.Table) (*pipeline.Image, error) {
	cfg = cfg.withDefaults()
	tr := trie.Build(tbl.Routes)
	tr.LeafPush()
	if !cfg.Balanced {
		return pipeline.Compile(tr, cfg.Stages)
	}
	sm, err := balancedMap(cfg, trieLevelBits(cfg, tr.Stats().PerLevel, 1))
	if err != nil {
		return nil, err
	}
	return pipeline.CompileMapped(tr, sm)
}

// CompileMerged compiles the shared engine image of a VM router over
// tables. Unlike CompileTable's, this image is a function of the whole
// tenant list and its order.
func CompileMerged(cfg Config, tables []*rib.Table) (*pipeline.Image, error) {
	cfg = cfg.withDefaults()
	m, err := merge.Build(tables)
	if err != nil {
		return nil, err
	}
	m.LeafPush()
	if !cfg.Balanced {
		return pipeline.CompileMerged(m, cfg.Stages)
	}
	sm, err := balancedMap(cfg, mergedLevelBits(cfg, m.Stats().PerLevel, m.K()))
	if err != nil {
		return nil, err
	}
	return pipeline.CompileMergedMapped(m, sm)
}

// Assemble builds the router of cfg.Scheme over already-compiled engine
// images — K of them for NV/VS, the one merged image for VM: per-device
// resources → fpga.Place → achievable clock → power-model input. It walks no
// trie; its cost is a pass over the images' stage memories.
//
// The router keeps the image pointers it is given and Images() returns
// them, so images shared between routers (or owned by a cache) must be
// treated as read-only through every router assembled over them; a caller
// that will write to one — fault injection, a shadow-bank update — serves
// img.Clone() instead.
func Assemble(cfg Config, images []*pipeline.Image) (*Router, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	want := cfg.K
	if cfg.Scheme == VM {
		want = 1
	}
	if len(images) != want {
		return nil, fmt.Errorf("core: %d images for a %s router with K = %d, want %d", len(images), cfg.Scheme, cfg.K, want)
	}
	engines := make([]power.EngineDesign, len(images))
	var ptrBits, nhiBits int64
	for i, img := range images {
		engines[i] = power.EngineDesign{
			StageBits:   cfg.Layout.AllStageBits(img),
			Utilization: engineUtilization(cfg.Scheme, cfg.K),
		}
		p, n := cfg.Layout.PointerAndNHIBits(img)
		ptrBits += p
		nhiBits += n
	}
	r, err := place(cfg, engines)
	if err != nil {
		return nil, err
	}
	r.images = images
	r.ptrBits = ptrBits
	r.nhiBits = nhiBits
	return r, nil
}

// trieLevelBits sizes each trie level under the configured layout with a
// k-wide NHI at leaves.
func trieLevelBits(cfg Config, perLevel []trie.Level, k int) []int64 {
	bits := make([]int64, len(perLevel))
	for lv, l := range perLevel {
		bits[lv] = int64(l.Internal)*2*int64(cfg.Layout.PtrBits) +
			int64(l.Leaves)*int64(k)*int64(cfg.Layout.NHIBits)
	}
	return bits
}

// mergedLevelBits is trieLevelBits for the merged trie's level type.
func mergedLevelBits(cfg Config, perLevel []merge.Level, k int) []int64 {
	bits := make([]int64, len(perLevel))
	for lv, l := range perLevel {
		bits[lv] = int64(l.Internal)*2*int64(cfg.Layout.PtrBits) +
			int64(l.Leaves)*int64(k)*int64(cfg.Layout.NHIBits)
	}
	return bits
}

// balancedMap builds the min-max memory partition over the levels.
func balancedMap(cfg Config, levelBits []int64) (trie.StageMap, error) {
	return trie.NewBalancedStageMap(cfg.Stages, levelBits)
}

// engineUtilization returns µ for one engine under Assumption 1: NV and VS
// engines each see 1/K of the traffic; the VM engine time-shares all of it.
func engineUtilization(s Scheme, k int) float64 {
	if s == VM {
		return 1
	}
	return 1 / float64(k)
}

// place computes per-device resources, places the design, derives the
// achievable clock and finalises the power-model input.
func place(cfg Config, engines []power.EngineDesign) (*Router, error) {
	devices := 1
	if cfg.Scheme == NV {
		devices = cfg.K
	}
	enginesPerDevice := len(engines) / devices

	// Logic: the measured uni-bit PE per stage (Section V-C).
	pe := fpga.UnibitPE()
	used := fpga.Resources{
		FFs:    enginesPerDevice * cfg.Stages * pe.FFs,
		LUTs:   enginesPerDevice * cfg.Stages * pe.LUTs(),
		IOPins: fpga.ShellPins + enginesPerDevice*fpga.EnginePins,
	}
	// BRAM blocks per device and the per-stage congestion driver; stages
	// under the hybrid threshold map to distributed RAM (LUT RAM) instead.
	maxPerStage := 0
	blocksPerDevice := 0
	for i := 0; i < enginesPerDevice; i++ {
		for _, bits := range engines[i].StageBits {
			if cfg.DistRAMThreshold > 0 && bits > 0 && bits <= cfg.DistRAMThreshold {
				quanta := (bits + power.DistRAMQuantumBits - 1) / power.DistRAMQuantumBits
				used.DistRAMBits += quanta * power.DistRAMQuantumBits
				used.LUTs += int(quanta) // one 64-bit LUT RAM per quantum
				continue
			}
			n := cfg.Mode.BlocksFor(bits)
			blocksPerDevice += n
			if n > maxPerStage {
				maxPerStage = n
			}
		}
	}
	if cfg.Mode == fpga.BRAM36Mode {
		used.BRAM36 = blocksPerDevice
	} else {
		used.BRAM18 = blocksPerDevice
	}

	pl, err := fpga.Place(cfg.Device, cfg.Grade, used, cfg.Stages, maxPerStage, enginesPerDevice)
	if err != nil {
		return nil, err
	}
	fmax := cfg.Timing.Fmax(pl)

	design := power.SystemDesign{
		Grade:                cfg.Grade,
		Mode:                 cfg.Mode,
		FMHz:                 fmax,
		Devices:              devices,
		Engines:              engines,
		ClockGating:          cfg.ClockGating,
		DistRAMThresholdBits: cfg.DistRAMThreshold,
		StaticScale:          cfg.Device.AreaScale(),
	}
	if err := design.Validate(); err != nil {
		return nil, err
	}
	return &Router{cfg: cfg, design: design, placement: pl, fmax: fmax}, nil
}
