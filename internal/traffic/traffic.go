// Package traffic generates the packet workloads that drive the lookup
// engines: 40-byte VNID-tagged packets distributed across K virtual networks
// (uniform per Assumption 1, or Zipf-skewed for the more complex
// distributions the paper mentions can be modelled by changing µ_i), with
// destination addresses drawn either uniformly or from the routed space.
//
// Every draw is positional (package keyed): the value a stream gives at
// index i is mix(key(seed, purpose, vn) + i·γ), a splitmix64 finaliser over
// a key that names the seed, what the draw is for and the network. No draw depends on
// an earlier one, so packet i of a batch, or network vn's arrival at cycle
// c, can be drawn in any order, in any chunking and on any worker.
package traffic

import (
	"fmt"
	"math"
	"math/bits"

	"vrpower/internal/ip"
	"vrpower/internal/keyed"
	"vrpower/internal/packet"
	"vrpower/internal/pipeline"
	"vrpower/internal/rib"
	"vrpower/internal/sweep"
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

// zipfS is the Zipf skew parameter of the Zipf distribution: network k's
// share is proportional to (k+1)^-zipfS.
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

// The purposes a stream is keyed by: one stream per purpose and network.
const (
	drawVN = iota
	drawAddr
	drawArrival
	drawSrc
	drawTTL
	drawCoin
)

// routed is the address host takes inside route r: r's prefix, host's bits
// below it. It is ip.Mask without a branch on the length: a shift by 32 or
// more clears a 32-bit word.
func routed(r *ip.Route, host ip.Addr) ip.Addr {
	return r.Prefix.Addr | host&^(^ip.Addr(0)<<uint(32-r.Prefix.Len))
}

// Generator produces a deterministic packet stream: packet i, for every
// caller, is a function of (seed, i) alone, and one counter says which
// packet comes next.
type Generator struct {
	k int
	// vnKey, srcKey, ttlKey and coinKey key the network-independent streams;
	// addrKey and arriveKey hold one key per network.
	vnKey, srcKey, ttlKey, coinKey uint64
	addrKey, arriveKey             []uint64
	// routes[vn] is network vn's routed space under RoutedAddr; nil under
	// UniformAddr.
	routes [][]ip.Route
	// cdf is the Zipf inverse CDF, cdf[k] = ⌊2⁶⁴·P(VN ≤ k)⌋ with the last
	// entry always; nil under Uniform.
	cdf []uint64
	// next is the index of the next packet (or coin).
	next uint64
}

// New validates the configuration and builds a Generator.
func New(cfg Config) (*Generator, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("traffic: K = %d, want > 0", cfg.K)
	}
	s := cfg.Seed
	g := &Generator{k: cfg.K,
		vnKey: keyed.Key(s, drawVN, 0), srcKey: keyed.Key(s, drawSrc, 0), ttlKey: keyed.Key(s, drawTTL, 0), coinKey: keyed.Key(s, drawCoin, 0),
		addrKey: make([]uint64, cfg.K), arriveKey: make([]uint64, cfg.K), routes: make([][]ip.Route, cfg.K)}
	for vn := range cfg.K {
		g.addrKey[vn], g.arriveKey[vn] = keyed.Key(s, drawAddr, vn), keyed.Key(s, drawArrival, vn)
	}
	switch cfg.Dist {
	case Zipf:
		g.cdf = zipfCDF(cfg.K)
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
			g.routes[i] = t.Routes
		}
	}
	return g, nil
}

// zipfCDF turns the k Zipf weights (v+1)^-zipfS into draw thresholds.
func zipfCDF(k int) []uint64 {
	cdf, sum, cum := make([]uint64, k), 0.0, 0.0
	for v := range k {
		sum += math.Pow(float64(v+1), -zipfS)
	}
	for v := range k {
		cum += math.Pow(float64(v+1), -zipfS)
		cdf[v] = keyed.Threshold(cum / sum)
	}
	cdf[k-1] = keyed.Always
	return cdf
}

// pickVN draws packet i's virtual network.
func (g *Generator) pickVN(i uint64) int {
	u := keyed.At(g.vnKey, i)
	if g.cdf == nil {
		return keyed.Below(u, g.k)
	}
	vn := 0
	for !keyed.Coin(u, g.cdf[vn]) {
		vn++
	}
	return vn
}

// addr draws network vn's destination address at index i. One draw u gives
// both halves: the route is the high word of u·n over the network's n
// routes, the host bits are u's low word. The low word moves the route
// pick by at most n/2³² of a step, so the two are independent to well
// within any test's resolution.
func (g *Generator) addr(vn int, i uint64) ip.Addr {
	return addrOf(keyed.At(g.addrKey[vn], i), g.routes[vn])
}

// addrOf is the address draw u gives over a network's routes, or anywhere
// in the IPv4 space when routes is nil.
func addrOf(u uint64, routes []ip.Route) ip.Addr {
	if routes == nil {
		return ip.Addr(u)
	}
	return routed(&routes[keyed.Below(u, len(routes))], ip.Addr(u))
}

// packet is packet i of the stream.
func (g *Generator) packet(i uint64) Packet {
	vn := g.pickVN(i)
	return Packet{Addr: g.addr(vn, i), VN: vn}
}

// take reserves the next n packet indices and returns the first.
func (g *Generator) take(n int) uint64 {
	first := g.next
	g.next += uint64(n)
	return first
}

// Next generates one packet.
func (g *Generator) Next() Packet { return g.packet(g.take(1)) }

// fillChunk is how many packets one sweep point of Batch draws.
const fillChunk = 4096

// Batch generates n packets: the next n of the stream, equal to n calls of
// Next, drawn a chunk at a time on the sweep pool.
func (g *Generator) Batch(n int) []Packet {
	out := make([]Packet, n)
	first := g.take(n)
	sweep.Run((n+fillChunk-1)/fillChunk, func(c int) (struct{}, error) {
		for j := c * fillChunk; j < min(n, (c+1)*fillChunk); j++ {
			out[j] = g.packet(first + uint64(j))
		}
		return struct{}{}, nil
	})
	return out
}

// Requests generates n pipeline lookup requests: the packets Batch(n) would.
func (g *Generator) Requests(n int) []pipeline.Request {
	out := make([]pipeline.Request, n)
	for i, p := range g.Batch(n) {
		out[i] = pipeline.Request{Addr: p.Addr, VN: p.VN}
	}
	return out
}

// Frames generates n wire-format frames (Ethernet + VLAN VNID + IPv4) for
// the frame-level forwarding path, around the packets Batch(n) would. TTLs
// vary over [2, 64]; the VLAN VID carries the packet's virtual network.
func (g *Generator) Frames(n int) ([][]byte, error) {
	first := g.next
	out := make([][]byte, n)
	for j, p := range g.Batch(n) {
		i := first + uint64(j)
		src := ip.Addr(keyed.At(g.srcKey, i))
		ttl := 2 + keyed.Below(keyed.At(g.ttlKey, i), 63)
		f, err := packet.Build(
			packet.MAC{0x02, 0, 0, 0, 0, 0x01},
			packet.MAC{0x02, 0, 0, 0, 0, 0x02},
			p.VN, 0, src, p.Addr, ttl, packetBytes-packet.IPv4HeaderLen)
		if err != nil {
			return nil, err
		}
		out[j] = f
	}
	return out, nil
}

// Bernoulli draws one deterministic coin with probability p, the next index
// of the generator's counter.
func (g *Generator) Bernoulli(p float64) bool {
	return keyed.Coin(keyed.At(g.coinKey, g.take(1)), keyed.Threshold(p))
}

// NextFor generates one packet pinned to the given virtual network,
// bypassing the VN distribution (for per-VN arrival processes).
func (g *Generator) NextFor(vn int) Packet {
	return Packet{Addr: g.addr(vn, g.take(1)), VN: vn}
}

// Window is one stretch of the open-loop arrival process, Bernoulli per
// network per cycle: whether network vn offers a packet at cycle c, and its
// destination address, are functions of (seed, vn, c) alone, so a run that
// fills its windows at any length sees the same arrivals. A cycle's arrivals
// are a bitset over the networks, so a reader visits only the networks that
// offer a packet.
type Window struct {
	start int64
	// k is the networks and kw the words of one cycle's bitset.
	k, kw int
	// arrive[(c-start)·kw + vn/64] has bit vn%64 set when network vn offers
	// a packet at cycle c, and addrs[(c-start)·k + vn] is then its address.
	arrive []uint64
	addrs  []ip.Addr
}

// NewWindow allocates a window of up to n cycles for g's networks.
func (g *Generator) NewWindow(n int) *Window {
	kw := (g.k + 63) / 64
	return &Window{k: g.k, kw: kw, arrive: make([]uint64, n*kw), addrs: make([]ip.Addr, n*g.k)}
}

// Fill draws cycles [start, start+n) into w, each network offering a packet
// at cycle c with probability p(c). One pass draws every network's arrival
// and lists the arrivals a block at a time, with no branch on a draw: each
// (network, cycle) is written to the list, and the list grows only by an
// arrival. Each full block then has its addresses drawn in a loop that does
// not branch either, so its route loads overlap.
func (g *Generator) Fill(w *Window, start int64, n int, p func(cyc int64) float64) {
	w.start = start
	first, kw := uint64(start), w.kw
	clear(w.arrive[:n*kw])
	var blk arrivals
	for c := range n {
		t := keyed.Threshold(p(start + int64(c)))
		sure := uint64(0)
		if t == keyed.Always {
			sure = 1
		}
		row, i := w.arrive[c*kw:c*kw+kw], first+uint64(c)
		for vn, k := range g.arriveKey {
			_, borrow := bits.Sub64(keyed.At(k, i), t, 0)
			bit := borrow | sure
			row[vn>>6] |= bit << (vn & 63)
			blk.vn[blk.n], blk.c[blk.n] = int32(vn), int32(c)
			if blk.n += int(bit); blk.n == gatherBlock {
				g.addrs(w, &blk)
			}
		}
	}
	g.addrs(w, &blk)
}

// gatherBlock is how many arrivals are listed before their addresses are
// drawn.
const gatherBlock = 256

// arrivals is a block of a window's arrivals waiting for their addresses:
// network vn[j] at cycle offset c[j].
type arrivals struct {
	vn, c [gatherBlock]int32
	n     int
}

// addrs draws the addresses of the block's arrivals into w and empties it.
func (g *Generator) addrs(w *Window, blk *arrivals) {
	first := uint64(w.start)
	for j := range blk.n {
		vn, c := int(blk.vn[j]), int(blk.c[j])
		w.addrs[c*w.k+vn] = addrOf(keyed.At(g.addrKey[vn], first+uint64(c)), g.routes[vn])
	}
	blk.n = 0
}

// Arrivals is the bitset of the networks offering a packet at cycle cyc, one
// of the window's: network vn is bit vn%64 of word vn/64.
func (w *Window) Arrivals(cyc int64) []uint64 {
	c := int(cyc-w.start) * w.kw
	return w.arrive[c : c+w.kw]
}

// Addr is the destination address of network vn's packet at cycle cyc, one
// it offers.
func (w *Window) Addr(vn int, cyc int64) ip.Addr {
	return w.addrs[int(cyc-w.start)*w.k+vn]
}
