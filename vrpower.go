// Package vrpower reproduces "FPGA-based Router Virtualization: A Power
// Perspective" (Ganegedara & Prasanna, IEEE IPDPSW 2012) as a software
// system: trie-based pipelined IP lookup engines for non-virtualized,
// virtualized-separate and virtualized-merged routers, a Virtex-6 device and
// timing model, the paper's calibrated power models, and the full benchmark
// harness that regenerates every table and figure of the evaluation.
//
// This file is the public facade: it re-exports the curated API of the
// internal packages so downstream users interact with one import path.
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
	"io"

	"vrpower/internal/core"
	"vrpower/internal/ctrl"
	"vrpower/internal/faults"
	"vrpower/internal/fpga"
	"vrpower/internal/hdl"
	"vrpower/internal/ip"
	"vrpower/internal/merge"
	"vrpower/internal/netsim"
	"vrpower/internal/packet"
	"vrpower/internal/pipeline"
	"vrpower/internal/planner"
	"vrpower/internal/power"
	"vrpower/internal/rib"
	"vrpower/internal/scenario"
	"vrpower/internal/traffic"
	"vrpower/internal/trie"
	"vrpower/internal/update"
)

// Router schemes (Section IV of the paper).
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

// DefaultStages is the paper's 28-stage pipeline depth.
const DefaultStages = core.DefaultStages

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

// ProfileOf extracts the leaf-pushed trie profile of a routing table.
func ProfileOf(tbl *Table) TableProfile { return core.ProfileOf(tbl) }

// PaperProfile returns the profile of the calibrated Potaroo-substitute
// table (3725 prefixes, Section V-E).
func PaperProfile() (TableProfile, error) { return core.PaperProfile() }

// MemoryDemand sizes a scheme's pointer and NHI memory without placing it
// on a device (the Fig. 4 computation).
func MemoryDemand(cfg Config, prof TableProfile, alpha float64) (ptrBits, nhiBits int64, err error) {
	return core.MemoryDemand(cfg, prof, alpha)
}

// Addresses, prefixes and routes.
type (
	// Addr is an IPv4 address.
	Addr = ip.Addr
	// Prefix is a CIDR prefix.
	Prefix = ip.Prefix
	// Route pairs a prefix with its next hop.
	Route = ip.Route
	// NextHop identifies an output port; NoRoute means no match.
	NextHop = ip.NextHop
)

// NoRoute is the NextHop for unmatched addresses.
const NoRoute = ip.NoRoute

// ParseAddr parses dotted-quad notation.
func ParseAddr(s string) (Addr, error) { return ip.ParseAddr(s) }

// ParsePrefix parses CIDR notation.
func ParsePrefix(s string) (Prefix, error) { return ip.ParsePrefix(s) }

// Routing tables.
type (
	// Table is one network's routing table.
	Table = rib.Table
	// GenConfig parameterises the synthetic BGP-like generator.
	GenConfig = rib.GenConfig
	// VirtualSet is a set of K per-network tables.
	VirtualSet = rib.VirtualSet
)

// Generate builds a synthetic routing table.
func Generate(name string, c GenConfig) (*Table, error) { return rib.Generate(name, c) }

// DefaultGen returns the generator configuration calibrated to the paper's
// published trie statistics.
func DefaultGen(n int, seed int64) GenConfig { return rib.DefaultGen(n, seed) }

// GenerateVirtualSet builds K same-size tables with share-controlled
// structural overlap (higher share → higher merging efficiency α).
func GenerateVirtualSet(k, prefixes int, share float64, seed int64) (*VirtualSet, error) {
	return rib.GenerateVirtualSet(k, prefixes, share, seed)
}

// ReadTable parses the text serialisation produced by Table.Write.
func ReadTable(name string, r io.Reader) (*Table, error) {
	return rib.Read(name, r)
}

// Tries and merging.
type (
	// Trie is a uni-bit binary trie.
	Trie = trie.Trie
	// MergedTrie overlays K tries with per-VN NHI vectors.
	MergedTrie = merge.Trie
)

// BuildTrie constructs a uni-bit trie from routes.
func BuildTrie(routes []Route) *Trie { return trie.Build(routes) }

// MergeTables overlays K tables into one merged trie.
func MergeTables(tables []*Table) (*MergedTrie, error) { return merge.Build(tables) }

// AnalyticMergedNodes evaluates the node-sharing model
// T = K·m/(1+(K−1)·α).
func AnalyticMergedNodes(k int, m, alpha float64) float64 {
	return merge.AnalyticNodes(k, m, alpha)
}

// FPGA device, grades and timing.
type (
	// Device is an FPGA part's resource inventory.
	Device = fpga.Device
	// SpeedGrade selects the speed/power bin.
	SpeedGrade = fpga.SpeedGrade
	// BRAMMode selects 18 Kb or 36 Kb block packing.
	BRAMMode = fpga.BRAMMode
	// Timing is the post place-and-route frequency model.
	Timing = fpga.Timing
	// Placement is a design fitted onto a device.
	Placement = fpga.Placement
)

const (
	// Grade2 is speed grade -2 (high performance).
	Grade2 = fpga.Grade2
	// Grade1L is speed grade -1L (low power).
	Grade1L = fpga.Grade1L
	// BRAM18Mode packs memories into 18 Kb blocks.
	BRAM18Mode = fpga.BRAM18Mode
	// BRAM36Mode packs memories into 36 Kb blocks.
	BRAM36Mode = fpga.BRAM36Mode
)

// XC6VLX760 returns the paper's Virtex-6 device (Table II).
func XC6VLX760() Device { return fpga.XC6VLX760() }

// Grades lists both evaluated speed grades.
func Grades() []SpeedGrade { return fpga.Grades() }

// DefaultTiming returns the calibrated timing model.
func DefaultTiming() Timing { return fpga.DefaultTiming() }

// ThroughputGbps converts a clock (MHz) and engine count to worst-case
// 40-byte-packet bandwidth.
func ThroughputGbps(fMHz float64, engines int) float64 {
	return fpga.ThroughputGbps(fMHz, engines)
}

// Power models.
type (
	// Breakdown decomposes power into static/logic/memory Watts.
	Breakdown = power.Breakdown
	// SystemDesign is the power-model input.
	SystemDesign = power.SystemDesign
	// EngineDesign describes one pipeline for power estimation.
	EngineDesign = power.EngineDesign
	// Analyzer emulates post place-and-route power measurement.
	Analyzer = power.Analyzer
)

// Estimate evaluates the analytical power models (Eq. 2/4/6).
func Estimate(d SystemDesign) (Breakdown, error) { return power.Estimate(d) }

// NewAnalyzer returns the calibrated "experimental" power source.
func NewAnalyzer() *Analyzer { return power.NewAnalyzer() }

// StaticWatts returns the per-grade leakage power (Section V-A).
func StaticWatts(g SpeedGrade) float64 { return power.StaticWatts(g) }

// BRAMWatts evaluates the Table III BRAM power model.
func BRAMWatts(g SpeedGrade, m BRAMMode, bits int64, fMHz float64) float64 {
	return power.BRAMWatts(g, m, bits, fMHz)
}

// LogicStageWatts returns per-stage logic+signal power (Section V-C).
func LogicStageWatts(g SpeedGrade, fMHz float64) float64 { return power.LogicStageWatts(g, fMHz) }

// MilliwattsPerGbps is the paper's efficiency metric (Fig. 8).
func MilliwattsPerGbps(totalWatts, gbps float64) float64 {
	return power.MilliwattsPerGbps(totalWatts, gbps)
}

// PercentError is the Fig. 7 metric: (model−experimental)/experimental·100.
func PercentError(model, experimental float64) float64 {
	return power.PercentError(model, experimental)
}

// Pipeline simulation.
type (
	// Image is a compiled pipeline memory image: the stage words the lookup
	// engine reads. Entry(s, i) shows one word; whoever may write an image
	// (FlipBit) serves its own Clone.
	Image = pipeline.Image
	// Sim is the cycle-stepped pipeline simulator: the oracle the
	// differential tests hold BatchSim to.
	Sim = pipeline.Sim
	// Request is one lookup (address + VNID).
	Request = pipeline.Request
	// Result is a completed lookup with cycle stamps.
	Result = pipeline.Result
	// MemLayout sizes pointer and NHI entries.
	MemLayout = pipeline.MemLayout
	// BatchSim is the production lookup engine, reading an image's words in
	// place — scalar-equivalent results, batched (Run) or streamed: Inject / Idle /
	// InjectBubble push one input slot a cycle and hand nothing back, Drain
	// walks what has left the pipe at batch width and hands back the exits.
	BatchSim = pipeline.BatchSim
	// Exit is one streamed lookup as BatchSim.Drain hands it back: a Result
	// plus the caller's stamp of the step it left on.
	Exit = pipeline.Exit
)

// NewSim builds a cycle-accurate simulator over an image.
func NewSim(img *Image) *Sim { return pipeline.NewSim(img) }

// NewBatchSim builds the production lookup engine over an image. Nothing is
// copied or derived: engines over one image read the same words, so an image
// that takes writes (SEUs) is served by its writer alone, as a Clone.
func NewBatchSim(img *Image) *BatchSim { return pipeline.NewBatchSim(img) }

// Flatten returns a copy of an image with every derived word (parity
// verdicts, fold flags, visit counts, jump table) recomputed from the stored
// ones — equal to its source unless those were let go stale.
func Flatten(img *Image) *Image { return pipeline.Flatten(img) }

// DefaultLayout matches the paper's 18-bit read width.
func DefaultLayout() MemLayout { return pipeline.DefaultLayout() }

// Traffic generation.
type (
	// Packet is one generated packet.
	Packet = traffic.Packet
	// TrafficConfig parameterises the generator.
	TrafficConfig = traffic.Config
	// TrafficGen produces deterministic packet streams.
	TrafficGen = traffic.Generator
)

// Traffic distributions and address models.
const (
	// Uniform spreads packets evenly over the K networks (Assumption 1).
	Uniform = traffic.Uniform
	// Weighted uses explicit per-VN weights.
	Weighted = traffic.Weighted
	// Zipf skews traffic toward low-numbered VNs.
	Zipf = traffic.Zipf
	// UniformAddr draws addresses uniformly from the IPv4 space.
	UniformAddr = traffic.UniformAddr
	// RoutedAddr draws addresses covered by the VN's table.
	RoutedAddr = traffic.RoutedAddr
)

// NewTraffic builds a packet generator.
func NewTraffic(cfg TrafficConfig) (*TrafficGen, error) { return traffic.New(cfg) }

// End-to-end simulation.
type (
	// ForwardingSystem drives a built router with packets and verifies
	// every result against the reference tables.
	ForwardingSystem = netsim.System
	// ForwardingReport summarises a forwarding run.
	ForwardingReport = netsim.Report
)

// NewForwarding wraps a built router and its tables for simulation.
func NewForwarding(r *Router, tables []*Table) (*ForwardingSystem, error) {
	return netsim.New(r, tables)
}

// Control-plane lifecycle (virtual network add/remove at runtime).
type (
	// Manager hosts a virtualized router and mutates its networks.
	Manager = ctrl.Manager
	// LifecycleEvent records one lifecycle operation and its cost.
	LifecycleEvent = ctrl.Event
)

// NewManager builds the lifecycle manager around an initial network set.
func NewManager(cfg Config, tables []*Table) (*Manager, error) {
	return ctrl.New(cfg, tables)
}

// Routing churn and incremental updates.
type (
	// UpdateOp is one BGP-style route update.
	UpdateOp = update.Op
	// ChurnConfig parameterises the churn generator.
	ChurnConfig = update.ChurnConfig
)

// GenerateChurn produces n deterministic updates against a table.
func GenerateChurn(tbl *Table, n int, seed int64) ([]UpdateOp, error) {
	return update.Churn(tbl, n, update.ChurnConfig{Seed: seed})
}

// ApplyChurn returns a new table with the updates applied.
func ApplyChurn(tbl *Table, ops []UpdateOp) *Table { return update.Apply(tbl, ops) }

// DiffImages counts the stage-memory writes that turn one compiled image
// into another; BubbleCount converts them to pipeline write bubbles.
func DiffImages(oldImg, newImg *Image) ([]update.Write, error) { return update.Diff(oldImg, newImg) }

// BubbleCount returns the write bubbles a write set needs.
func BubbleCount(writes []update.Write) int { return update.Bubbles(writes) }

// Wire formats (parse/edit around the lookup).
type (
	// Frame is a parsed VLAN-tagged IPv4 frame.
	Frame = packet.Frame
	// MAC is an Ethernet address.
	MAC = packet.MAC
)

// BuildFrame serialises a VLAN-tagged IPv4 frame.
func BuildFrame(dst, src MAC, vnid, priority int, srcIP, dstIP Addr, ttl, payloadLen int) ([]byte, error) {
	return packet.Build(dst, src, vnid, priority, srcIP, dstIP, ttl, payloadLen)
}

// ParseFrame validates and parses a frame.
func ParseFrame(buf []byte) (*Frame, error) { return packet.Parse(buf) }

// Device family and right-sizing.

// DeviceFamily lists the Virtex-6 parts in ascending capacity.
func DeviceFamily() []Device { return fpga.Family() }

// SmallestFit places a design on the smallest family member that hosts it.
func SmallestFit(grade SpeedGrade, used fpga.Resources, stages, maxBlocksPerStage, engines int) (*Placement, error) {
	return fpga.SmallestFit(grade, used, stages, maxBlocksPerStage, engines)
}

// BraidedTrie is the braided merged lookup structure (reference [17]).
type BraidedTrie = merge.BraidedTrie

// BraidTables merges K tables with greedy trie braiding: per-node twist
// bits re-orient each network's children to maximise node sharing.
func BraidTables(tables []*Table) (*BraidedTrie, error) { return merge.BuildBraided(tables) }

// Deployment planning.
type (
	// PlanRequirements describes the deployment to plan for.
	PlanRequirements = planner.Requirements
	// PlanCandidate is one feasible configuration with its metrics.
	PlanCandidate = planner.Candidate
)

// Plan enumerates every buildable configuration and returns the feasible
// ones, cheapest measured power first.
func Plan(req PlanRequirements) ([]PlanCandidate, error) { return planner.Plan(req) }

// BestPlan returns the cheapest feasible configuration.
func BestPlan(req PlanRequirements) (PlanCandidate, error) { return planner.Best(req) }

// PlanFrontier returns the power/throughput Pareto frontier of a plan.
func PlanFrontier(cands []PlanCandidate) []PlanCandidate { return planner.Frontier(cands) }

// CompactTable returns the ORTC-minimal table with identical forwarding
// behaviour (fewer routes, fewer trie nodes, less lookup power).
func CompactTable(tbl *Table) *Table {
	return &Table{Name: tbl.Name + "-compact", Routes: trie.Compact(tbl.Routes)}
}

// Fault injection and graceful degradation.
type (
	// FaultInjectorConfig parameterises the seeded fault injector (SEU rate
	// per bit-cycle, engine kill).
	FaultInjectorConfig = faults.Config
	// FaultInjector produces deterministic fault schedules over the
	// engines' compiled images.
	FaultInjector = faults.Injector
	// Upset is one scheduled single-event upset.
	Upset = faults.Upset
	// SEURecord is one injected upset's detect/repair lifecycle.
	SEURecord = netsim.SEURecord
)

// Composed scenarios: the slice-quantised open loop of a ForwardingSystem.
type (
	// ScenarioSpec is a parsed scenario: load shape, faults, kill, churn,
	// chaos, fleet and power caps acting together in one run.
	ScenarioSpec = scenario.Spec
	// ScenarioReport summarises a composed run (per-VNID delivery and
	// availability, SEU lifecycles and MTTR, churn batches and retained
	// throughput, governor and energy sections).
	ScenarioReport = netsim.ScenarioReport
)

// ParseScenario parses a comma-separated key=value scenario spec (e.g.
// "load=const:0.5,faults=seu:1e-9,kill=1@9000,cycles=32768"; grammar in
// docs/CLI.md) into what ForwardingSystem.RunScenario runs.
func ParseScenario(spec string) (ScenarioSpec, error) { return scenario.Parse(spec) }

// NewFaultInjector builds the deterministic fault injector; equal seeds
// yield byte-identical schedules at any worker count.
func NewFaultInjector(cfg FaultInjectorConfig, images []*Image) (*FaultInjector, error) {
	return faults.NewInjector(cfg, images)
}

// RTL backend.
type RTLDesign = hdl.Design

// EmitRTL generates synthesizable Verilog for a compiled pipeline image
// (one level per stage) plus $readmemh memory images and a self-checking
// testbench whose vectors come from the Go simulator.
func EmitRTL(img *Image, layout MemLayout, name string, vectors []Request) (*RTLDesign, error) {
	return hdl.Emit(img, layout, name, vectors)
}
