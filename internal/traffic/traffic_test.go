package traffic

import (
	"math"
	"testing"

	"vrpower/internal/ip"
	"vrpower/internal/packet"
	"vrpower/internal/rib"
)

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{K: 0},
		{K: 2, Dist: VNDist(99)}, // unknown
		{K: 2, Addr: RoutedAddr}, // missing tables
		{K: 1, Addr: RoutedAddr, Tables: []*rib.Table{{}}}, // empty table
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("config %d accepted, want error: %+v", i, c)
		}
	}
}

func TestDeterministic(t *testing.T) {
	mk := func() *Generator {
		g, err := New(Config{K: 4, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := mk().Batch(100), mk().Batch(100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("packet %d differs with same seed", i)
		}
	}
}

// shares returns the measured fraction of packets per VN, for checking a
// stream against the intended µ_i.
func shares(pkts []Packet, k int) []float64 {
	counts := make([]float64, k)
	for _, p := range pkts {
		counts[p.VN]++
	}
	for i := range counts {
		counts[i] /= float64(len(pkts))
	}
	return counts
}

func TestUniformShares(t *testing.T) {
	g, err := New(Config{K: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	shares := shares(g.Batch(40000), 8)
	for vn, s := range shares {
		if math.Abs(s-0.125) > 0.02 {
			t.Errorf("vn %d share %.3f, want 0.125 ± 0.02 (Assumption 1)", vn, s)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	g, err := New(Config{K: 6, Seed: 3, Dist: Zipf})
	if err != nil {
		t.Fatal(err)
	}
	shares := shares(g.Batch(30000), 6)
	if shares[0] <= shares[5] {
		t.Errorf("Zipf: vn0 share %.3f not above vn5 share %.3f", shares[0], shares[5])
	}
	if shares[0] < 0.4 {
		t.Errorf("Zipf s=%g: head share %.3f, want dominant", zipfS, shares[0])
	}
}

// TestPacketSizes: every packet is the paper's 40-byte minimum on the wire —
// a frame Frames emits carries an IPv4 packet of total length packetBytes,
// behind its Ethernet and VLAN headers — and NextFor keeps the VN it is given.
func TestPacketSizes(t *testing.T) {
	g, err := New(Config{K: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	frames, err := g.Frames(100)
	if err != nil {
		t.Fatal(err)
	}
	for i, buf := range frames {
		f, err := packet.Parse(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.TotalLen != 40 || len(buf) != packet.EthHeaderLen+packet.VLANTagLen+40 {
			t.Fatalf("frame %d: IPv4 total length %d in a %d-byte frame, want the 40-byte paper minimum", i, f.TotalLen, len(buf))
		}
	}
	for vn := 0; vn < 3; vn++ {
		if p := g.NextFor(vn); p.VN != vn {
			t.Fatalf("NextFor(%d) gave a packet of VN %d", vn, p.VN)
		}
	}
}

func TestRoutedAddrHitsTables(t *testing.T) {
	set, err := rib.GenerateVirtualSet(3, 200, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{K: 3, Seed: 8, Addr: RoutedAddr, Tables: set.Tables})
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*ip.Table, 3)
	for i, tbl := range set.Tables {
		refs[i] = tbl.Reference()
	}
	for _, p := range g.Batch(2000) {
		if refs[p.VN].Lookup(p.Addr) == ip.NoRoute {
			t.Fatalf("routed address %s (vn %d) missed its table", p.Addr, p.VN)
		}
	}
}

func TestRequestsMatchPackets(t *testing.T) {
	g, err := New(Config{K: 4, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	reqs := g.Requests(50)
	if len(reqs) != 50 {
		t.Fatalf("got %d requests", len(reqs))
	}
	for _, r := range reqs {
		if r.VN < 0 || r.VN >= 4 {
			t.Fatalf("request VN %d out of range", r.VN)
		}
	}
}
