// Package vrpower reproduces "FPGA-based Router Virtualization: A Power
// Perspective" (Ganegedara & Prasanna, IEEE IPDPSW 2012) as a software
// system: trie-based pipelined IP lookup engines for non-virtualized,
// virtualized-separate and virtualized-merged routers, a Virtex-6 device and
// timing model, the paper's calibrated power models, and the full benchmark
// harness that regenerates every table and figure of the evaluation.
//
// This file is the API the examples are written against: the names they,
// the README and the root tests use, re-exported from the internal
// packages. The command-line tools and the benchmark import internal/
// directly.
//
// Quick start:
//
//	set, _ := vrpower.GenerateVirtualSet(8, 3725, 0.6, 1)
//	r, _ := vrpower.Build(vrpower.Config{
//		Scheme:      vrpower.VS,
//		K:           8,
//		Grade:       vrpower.Grade2,
//		ClockGating: true,
//	}, set.Tables)
//	model, _ := r.ModelPower()
//	fmt.Printf("%.2f W at %.0f MHz, %.1f Gbps\n",
//		model.Total(), r.Fmax(), r.ThroughputGbps())
package vrpower

import (
	"vrpower/internal/core"
	"vrpower/internal/ctrl"
	"vrpower/internal/fpga"
	"vrpower/internal/ip"
	"vrpower/internal/merge"
	"vrpower/internal/netsim"
	"vrpower/internal/pipeline"
	"vrpower/internal/power"
	"vrpower/internal/rib"
	"vrpower/internal/scenario"
	"vrpower/internal/traffic"
	"vrpower/internal/trie"
	"vrpower/internal/update"
)

// Scheme is a router organisation (Section IV of the paper).
type Scheme = core.Scheme

const (
	// NV is the non-virtualized conventional router: one device per network.
	NV = core.NV
	// VS is the virtualized-separate router: K engines on one device.
	VS = core.VS
	// VM is the virtualized-merged router: one shared engine, merged tables.
	VM = core.VM
)

// Schemes lists NV, VS, VM in paper order.
func Schemes() []Scheme { return core.Schemes() }

// Config parameterises a router build; see core.Config for field docs.
type Config = core.Config

// Router is a built, placed and timed router configuration.
type Router = core.Router

// TableProfile is the per-level trie shape driving analytic builds.
type TableProfile = core.TableProfile

// Build constructs a router from concrete routing tables (compiled lookup
// engines included); BuildAnalytic uses the analytic memory model instead.
func Build(cfg Config, tables []*Table) (*Router, error) { return core.Build(cfg, tables) }

// BuildAnalytic constructs a router from a table profile and a merging
// efficiency α, the fast path behind the figure sweeps.
func BuildAnalytic(cfg Config, prof TableProfile, alpha float64) (*Router, error) {
	return core.BuildAnalytic(cfg, prof, alpha)
}

// PaperProfile returns the profile of the calibrated Potaroo-substitute
// table (3725 prefixes, Section V-E).
func PaperProfile() (TableProfile, error) { return core.PaperProfile() }

// MemoryDemand sizes a scheme's pointer and NHI memory without placing it
// on a device (the Fig. 4 computation).
func MemoryDemand(cfg Config, prof TableProfile, alpha float64) (ptrBits, nhiBits int64, err error) {
	return core.MemoryDemand(cfg, prof, alpha)
}

// Table is one network's routing table.
type Table = rib.Table

// Generate builds a synthetic BGP-like routing table of the given size from
// the generator calibrated to the paper's published trie statistics.
func Generate(name string, prefixes int, seed int64) (*Table, error) {
	return rib.Generate(name, prefixes, seed)
}

// GenerateVirtualSet builds K same-size tables with share-controlled
// structural overlap (higher share → higher merging efficiency α).
func GenerateVirtualSet(k, prefixes int, share float64, seed int64) (*rib.VirtualSet, error) {
	return rib.GenerateVirtualSet(k, prefixes, share, seed)
}

// CompactTable returns the ORTC-minimal table with identical forwarding
// behaviour (fewer routes, fewer trie nodes, less lookup power).
func CompactTable(tbl *Table) *Table {
	return &Table{Name: tbl.Name + "-compact", Routes: trie.Compact(tbl.Routes)}
}

// BuildTrie constructs a uni-bit trie from routes.
func BuildTrie(routes []ip.Route) *trie.Trie { return trie.Build(routes) }

// MergeTables overlays K tables into one merged trie.
func MergeTables(tables []*Table) (*merge.Trie, error) { return merge.Build(tables) }

// AnalyticMergedNodes evaluates the node-sharing model
// T = K·m/(1+(K−1)·α).
func AnalyticMergedNodes(k int, m, alpha float64) float64 {
	return merge.AnalyticNodes(k, m, alpha)
}

// SpeedGrade selects the FPGA speed/power bin.
type SpeedGrade = fpga.SpeedGrade

const (
	// Grade2 is speed grade -2 (high performance).
	Grade2 = fpga.Grade2
	// Grade1L is speed grade -1L (low power).
	Grade1L = fpga.Grade1L
	// BRAM18Mode packs memories into 18 Kb blocks.
	BRAM18Mode = fpga.BRAM18Mode
)

// XC6VLX760 returns the paper's Virtex-6 device (Table II).
func XC6VLX760() fpga.Device { return fpga.XC6VLX760() }

// DefaultLayout matches the paper's 18-bit read width.
func DefaultLayout() pipeline.MemLayout { return pipeline.DefaultLayout() }

// Analyzer emulates post place-and-route power measurement.
type Analyzer = power.Analyzer

// NewAnalyzer returns the calibrated "experimental" power source.
func NewAnalyzer() *Analyzer { return power.NewAnalyzer() }

// StaticWatts returns the per-grade leakage power (Section V-A).
func StaticWatts(g SpeedGrade) float64 { return power.StaticWatts(g) }

// BRAMWatts evaluates the Table III BRAM power model.
func BRAMWatts(g SpeedGrade, m fpga.BRAMMode, bits int64, fMHz float64) float64 {
	return power.BRAMWatts(g, m, bits, fMHz)
}

// MilliwattsPerGbps is the paper's efficiency metric (Fig. 8).
func MilliwattsPerGbps(totalWatts, gbps float64) float64 {
	return power.MilliwattsPerGbps(totalWatts, gbps)
}

// PercentError is the Fig. 7 metric: (model−experimental)/experimental·100.
func PercentError(model, experimental float64) float64 {
	return power.PercentError(model, experimental)
}

// TrafficConfig parameterises the packet generator.
type TrafficConfig = traffic.Config

// RoutedAddr draws destination addresses covered by each network's table.
const RoutedAddr = traffic.RoutedAddr

// NewTraffic builds a deterministic packet generator.
func NewTraffic(cfg TrafficConfig) (*traffic.Generator, error) { return traffic.New(cfg) }

// NewForwarding wraps a built router and its tables for simulation: every
// result is checked against the reference tables.
func NewForwarding(r *Router, tables []*Table) (*netsim.System, error) {
	return netsim.New(r, tables)
}

// ParseScenario parses a comma-separated key=value scenario spec (e.g.
// "load=const:0.5,faults=seu:1e-9,kill=1@9000,cycles=32768"; grammar in
// docs/CLI.md) into what the forwarding system's RunScenario runs.
func ParseScenario(spec string) (scenario.Spec, error) { return scenario.Parse(spec) }

// NewManager builds the lifecycle manager (virtual network add/remove and
// route updates at runtime) around an initial network set.
func NewManager(cfg Config, tables []*Table) (*ctrl.Manager, error) {
	return ctrl.New(cfg, tables)
}

// GenerateChurn produces n deterministic BGP-style updates against a table.
func GenerateChurn(tbl *Table, n int, seed int64) ([]update.Op, error) {
	return update.Churn(tbl, n, update.ChurnConfig{Seed: seed})
}
