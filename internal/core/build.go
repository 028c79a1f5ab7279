package core

import (
	"fmt"

	"vrpower/internal/fpga"
	"vrpower/internal/pipeline"
	"vrpower/internal/power"
	"vrpower/internal/rib"
	"vrpower/internal/sweep"
	"vrpower/internal/trie"
)

// Build constructs a router of cfg.Scheme from the K routing tables: tables →
// one count pass over their routes → the leaf-pushed per-level node counts →
// priced and placed design → compiled images, so a design that does not place
// is refused before anything is compiled. NV and VS images are
// CompileTable's, the VM one a function of the whole tenant list; Assemble
// over them prices alike.
func Build(cfg Config, tables []*rib.Table) (*Router, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(tables) != cfg.K {
		return nil, fmt.Errorf("core: %d tables for K = %d", len(tables), cfg.K)
	}
	// Each engine depends only on its own table (VM's one merged engine on
	// all of them), so the routes are counted, and after pricing compiled,
	// side by side on the sweep pool.
	engines, err := sweep.Run(cfg.engines(), func(i int) (engine, error) {
		if cfg.Scheme == VM {
			return routesEngine(cfg, tables)
		}
		return routesEngine(cfg, tables[i:i+1])
	})
	if err != nil {
		return nil, err
	}
	r, err := price(cfg, engines)
	if err != nil {
		return nil, err
	}
	r.images, err = sweep.Run(len(engines), func(i int) (*pipeline.Image, error) {
		return engines[i].compile()
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// CompileTable compiles one table's engine image the way Build does for an
// NV or VS router. The image depends on cfg.Stages, cfg.Balanced, cfg.Layout
// and the table, and on nothing else in cfg — not the scheme, not K — so one
// compiled image serves every router that hosts the table.
func CompileTable(cfg Config, tbl *rib.Table) (*pipeline.Image, error) {
	e, err := routesEngine(cfg.withDefaults(), []*rib.Table{tbl})
	if err != nil {
		return nil, err
	}
	return e.compile()
}

// Assemble builds the router of cfg.Scheme over compiled engine images — K
// for NV/VS, the merged one for VM — priced from the per-level counts each
// image keeps (Image.Levels) through its stage map, in O(images · levels).
// The router serves the images it is given: images shared between routers
// are read-only through each of them, and a caller that will write to one —
// fault injection, a shadow-bank update — serves img.Clone() (copied on write).
func Assemble(cfg Config, images []*pipeline.Image) (*Router, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(images) != cfg.engines() {
		return nil, fmt.Errorf("core: %d images for a %s router with K = %d, want %d", len(images), cfg.Scheme, cfg.K, cfg.engines())
	}
	engines := make([]engine, len(images))
	for i, img := range images {
		engines[i] = engine{levels: levelsOf(cfg, img.Levels, img.K), sm: img.Map}
	}
	r, err := price(cfg, engines)
	if err != nil {
		return nil, err
	}
	r.images = images
	return r, nil
}

// level is one trie level's memory in bits: its internal nodes' child
// pointers and its leaves' next-hop vectors.
type level struct{ ptr, nhi int64 }

// engine is one lookup engine as priced: its per-level memories, the stage
// map they are laid out by and, built from a table, its compile.
type engine struct {
	levels  []level
	sm      trie.StageMap
	compile func() (*pipeline.Image, error)
}

// routesEngine is the engine over tables — a table's own, or the merged one
// of a VM router — counted, and compiled, as their leaf-pushed trie with a
// K-wide NHI vector at every leaf.
func routesEngine(cfg Config, tables []*rib.Table) (engine, error) {
	r := pipeline.NewRoutes(tables)
	levels := levelsOf(cfg, r.Levels, len(tables))
	sm, err := stageMap(cfg, levels)
	return engine{levels, sm, func() (*pipeline.Image, error) { return r.Compile(sm) }}, err
}

// levelsOf sizes per-level node counts under cfg.Layout: two pointers an
// internal node, a k-wide NHI vector a leaf.
func levelsOf(cfg Config, counts []trie.Level, k int) []level {
	out := make([]level, len(counts))
	for i, c := range counts {
		out[i] = level{
			ptr: int64(c.Internal) * 2 * int64(cfg.Layout.PtrBits),
			nhi: int64(c.Leaves) * int64(k) * int64(cfg.Layout.NHIBits),
		}
	}
	return out
}

// stageMap is the level→stage mapping cfg gives a trie of these per-level
// memories: the min-max memory partition when cfg.Balanced, else the plain
// fold into stage 0 over its height.
func stageMap(cfg Config, levels []level) (trie.StageMap, error) {
	if !cfg.Balanced {
		return trie.NewStageMap(cfg.Stages, len(levels)-1)
	}
	bits := make([]int64, len(levels))
	for i, l := range levels {
		bits[i] = l.ptr + l.nhi
	}
	return trie.NewBalancedStageMap(cfg.Stages, bits)
}

// price is the one resource function (Eq. 1–6) behind every router: each
// engine's per-level memories summed into stage memories through its map,
// the Fig. 4 pointer/NHI split, one device's resources, fpga.Place, the
// achievable clock and the power-model input. Callers differ only in where
// the counts come from: routes (Build), compiled images (Assemble) or a
// TableProfile (BuildAnalytic, MemoryDemand).
func price(cfg Config, engines []engine) (*Router, error) {
	r := &Router{cfg: cfg, design: power.SystemDesign{
		Grade:                cfg.Grade,
		Mode:                 cfg.Mode,
		Devices:              1,
		Engines:              make([]power.EngineDesign, len(engines)),
		ClockGating:          cfg.ClockGating,
		DistRAMThresholdBits: cfg.DistRAMThreshold,
		StaticScale:          cfg.Device.AreaScale(),
	}}
	if cfg.Scheme == NV {
		r.design.Devices = cfg.K
	}
	// Assumption 1: NV and VS engines each see 1/K of the traffic; the VM
	// engine time-shares all of it.
	utilization := 1 / float64(cfg.K)
	if cfg.Scheme == VM {
		utilization = 1
	}
	for i, e := range engines {
		bits := make([]int64, e.sm.Stages)
		for lv, l := range e.levels {
			bits[e.sm.Stage(lv)] += l.ptr + l.nhi
			r.ptrBits, r.nhiBits = r.ptrBits+l.ptr, r.nhiBits+l.nhi
		}
		r.design.Engines[i] = power.EngineDesign{StageBits: bits, Utilization: utilization}
	}

	// One device (NV's are alike): the measured uni-bit PE per stage (Section
	// V-C), BRAM blocks with the widest stage's as the congestion driver, and
	// a 64-bit LUT RAM per quantum of the stages under the hybrid threshold.
	device := r.design
	n := len(engines) / device.Devices
	device.Engines = device.Engines[:n]
	blocks, widest := device.TotalBlocks()
	pe := fpga.UnibitPE()
	used := fpga.Resources{
		FFs:         n * cfg.Stages * pe.FFs,
		LUTs:        n * cfg.Stages * pe.LUTs(),
		IOPins:      fpga.ShellPins + n*fpga.EnginePins,
		DistRAMBits: device.TotalDistRAMBits(),
	}
	used.LUTs += int(used.DistRAMBits / power.DistRAMQuantumBits)
	if cfg.Mode == fpga.BRAM36Mode {
		used.BRAM36 = blocks
	} else {
		used.BRAM18 = blocks
	}
	var err error
	if r.placement, err = fpga.Place(cfg.Device, cfg.Grade, used, cfg.Stages, widest, n); err != nil {
		return nil, err
	}
	r.design.FMHz = cfg.Timing.Fmax(r.placement)
	if err := r.design.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}
