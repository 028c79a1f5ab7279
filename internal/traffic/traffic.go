// Package traffic generates the packet workloads that drive the lookup
// engines: 40-byte VNID-tagged packets distributed across K virtual networks
// (uniform per Assumption 1, or Zipf-skewed for the more complex
// distributions the paper mentions can be modelled by changing µ_i), with
// destination addresses drawn either uniformly or from the routed space.
package traffic

import (
	"fmt"
	"math/rand"

	"vrpower/internal/ip"
	"vrpower/internal/packet"
	"vrpower/internal/pipeline"
	"vrpower/internal/rib"
)

// Packet is one generated packet: a destination address and the virtual
// network it belongs to. Every packet is packetBytes on the wire.
type Packet struct {
	Addr ip.Addr
	VN   int
}

// packetBytes is every packet's wire size: 40 bytes, the minimum packet the
// paper's throughput metric assumes (Section VI-B).
const packetBytes = 40

// zipfS is the Zipf skew parameter of the Zipf distribution.
const zipfS = 1.3

// VNDist selects how packets spread over the K virtual networks.
type VNDist int

const (
	// Uniform is Assumption 1: µ_i = 1/K.
	Uniform VNDist = iota
	// Zipf skews traffic toward low-numbered VNs (s = zipfS).
	Zipf
)

// AddrModel selects how destination addresses are drawn.
type AddrModel int

const (
	// UniformAddr draws addresses uniformly from the IPv4 space; most
	// miss the routed space and resolve at shallow leaves.
	UniformAddr AddrModel = iota
	// RoutedAddr draws addresses covered by the VN's routing table,
	// exercising deep trie paths.
	RoutedAddr
)

// Config parameterises a Generator.
type Config struct {
	K    int
	Seed int64
	Dist VNDist
	Addr AddrModel
	// Tables provides the routed space for RoutedAddr (one per VN).
	Tables []*rib.Table
}

// Generator produces a deterministic packet stream.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	zipf *rand.Zipf
}

// New validates the configuration and builds a Generator.
func New(cfg Config) (*Generator, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("traffic: K = %d, want > 0", cfg.K)
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	switch cfg.Dist {
	case Zipf:
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(cfg.K-1))
	case Uniform:
	default:
		return nil, fmt.Errorf("traffic: unknown distribution %d", cfg.Dist)
	}
	if cfg.Addr == RoutedAddr {
		if len(cfg.Tables) != cfg.K {
			return nil, fmt.Errorf("traffic: RoutedAddr needs %d tables, got %d", cfg.K, len(cfg.Tables))
		}
		for i, t := range cfg.Tables {
			if t.Len() == 0 {
				return nil, fmt.Errorf("traffic: table %d is empty", i)
			}
		}
	}
	return g, nil
}

// pickVN draws the packet's virtual network.
func (g *Generator) pickVN() int {
	if g.zipf != nil {
		return int(g.zipf.Uint64())
	}
	return g.rng.Intn(g.cfg.K)
}

// pickAddr draws the destination address for the chosen VN.
func (g *Generator) pickAddr(vn int) ip.Addr {
	if g.cfg.Addr == RoutedAddr {
		t := g.cfg.Tables[vn]
		r := t.Routes[g.rng.Intn(t.Len())]
		host := ip.Addr(g.rng.Uint32()) &^ ip.Mask(r.Prefix.Len)
		return r.Prefix.Addr | host
	}
	return ip.Addr(g.rng.Uint32())
}

// Next generates one packet.
func (g *Generator) Next() Packet { return g.NextFor(g.pickVN()) }

// Batch generates n packets.
func (g *Generator) Batch(n int) []Packet {
	out := make([]Packet, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Requests generates n pipeline lookup requests.
func (g *Generator) Requests(n int) []pipeline.Request {
	out := make([]pipeline.Request, n)
	for i := range out {
		p := g.Next()
		out[i] = pipeline.Request{Addr: p.Addr, VN: p.VN}
	}
	return out
}

// Share returns the measured fraction of packets per VN, for checking a
// stream against the intended µ_i.
func Share(pkts []Packet, k int) []float64 {
	counts := make([]float64, k)
	for _, p := range pkts {
		if p.VN >= 0 && p.VN < k {
			counts[p.VN]++
		}
	}
	if len(pkts) > 0 {
		for i := range counts {
			counts[i] /= float64(len(pkts))
		}
	}
	return counts
}

// Frames generates n wire-format frames (Ethernet + VLAN VNID + IPv4) for
// the frame-level forwarding path. TTLs vary over [2, 64]; the VLAN VID
// carries the packet's virtual network.
func (g *Generator) Frames(n int) ([][]byte, error) {
	out := make([][]byte, n)
	for i := range out {
		p := g.Next()
		src := ip.Addr(g.rng.Uint32())
		ttl := 2 + g.rng.Intn(63)
		f, err := packet.Build(
			packet.MAC{0x02, 0, 0, 0, 0, 0x01},
			packet.MAC{0x02, 0, 0, 0, 0, 0x02},
			p.VN, 0, src, p.Addr, ttl, packetBytes-packet.IPv4HeaderLen)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// Bernoulli draws one deterministic coin with probability p from the
// generator's stream, for open-loop arrival processes.
func (g *Generator) Bernoulli(p float64) bool {
	return g.rng.Float64() < p
}

// NextFor generates one packet pinned to the given virtual network,
// bypassing the VN distribution (for per-VN arrival processes).
func (g *Generator) NextFor(vn int) Packet {
	return Packet{Addr: g.pickAddr(vn), VN: vn}
}
