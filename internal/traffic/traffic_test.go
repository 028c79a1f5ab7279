package traffic

import (
	"math"
	"strconv"
	"testing"

	"vrpower/internal/ip"
	"vrpower/internal/packet"
	"vrpower/internal/pipeline"
	"vrpower/internal/rib"
	"vrpower/internal/scenario"
	"vrpower/internal/sweep"
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

// chiSquareOK reports whether a chi-square statistic of df degrees of
// freedom lies inside the two-sided 1e-4 band (Wilson–Hilferty): too large
// is a skewed stream, too small one too regular to be random.
func chiSquareOK(stat float64, df int) bool {
	const z = 3.719 // the normal's 1e-4 upper quantile
	d := float64(df)
	q := func(z float64) float64 { return d * math.Pow(1-2/(9*d)+z*math.Sqrt(2/(9*d)), 3) }
	return stat > q(-z) && stat < q(z)
}

// binsChiSquare is Pearson's statistic of counts against expected counts.
func binsChiSquare(counts []int, want []float64) (stat float64) {
	for i, c := range counts {
		d := float64(c) - want[i]
		stat += d * d / want[i]
	}
	return stat
}

// TestArrivalsAreBinomial is Assumption 1 as the slice runner draws it: over
// a run of windows, network vn's offered count is Binomial(cycles, p) —
// under a surge, the sum of the two phases' binomials — independently per
// network and per seed. The per-(seed, network) standardised squares sum to
// a chi-square of seeds·K degrees of freedom.
func TestArrivalsAreBinomial(t *testing.T) {
	const k, cycles, seeds = 4, 1 << 16, 16
	for _, load := range []string{"load=const:0.5", "load=const:0.9", "load=surge:0.3:0.9"} {
		spec, err := scenario.Parse(load + ",cycles=" + strconv.Itoa(cycles))
		if err != nil {
			t.Fatal(err)
		}
		at := func(c int64) float64 { return spec.Load.At(c, spec.Cycles) }
		var mean, variance float64
		for c := range int64(cycles) {
			p := at(c)
			mean, variance = mean+p, variance+p*(1-p)
		}
		stat := 0.0
		for seed := range int64(seeds) {
			g, err := New(Config{K: k, Seed: 100 + seed})
			if err != nil {
				t.Fatal(err)
			}
			w := g.NewWindow(pipeline.SettleCycles)
			offered := make([]int, k)
			for c := int64(0); c < cycles; c += pipeline.SettleCycles {
				g.Fill(w, c, pipeline.SettleCycles, at)
				for cyc := c; cyc < c+pipeline.SettleCycles; cyc++ {
					for vn := range offered {
						if _, ok := arrival(w, vn, cyc); ok {
							offered[vn]++
						}
					}
				}
			}
			for _, n := range offered {
				d := float64(n) - mean
				stat += d * d / variance
			}
		}
		if !chiSquareOK(stat, seeds*k) {
			t.Errorf("%s: per-network offered counts give chi-square %.1f on %d degrees of freedom, outside the 1e-4 band of Binomial(%d, p)",
				load, stat, seeds*k, cycles)
		}
	}
}

// TestBernoulliEdges: p ≥ 1 always arrives, p ≤ 0 (and NaN) never does.
func TestBernoulliEdges(t *testing.T) {
	g, err := New(Config{K: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for range 10000 {
		if !g.Bernoulli(1) || !g.Bernoulli(1.5) || g.Bernoulli(0) || g.Bernoulli(-1) || g.Bernoulli(math.NaN()) {
			t.Fatal("Bernoulli at p >= 1 refused, or at p <= 0 arrived")
		}
	}
	w := g.NewWindow(256)
	g.Fill(w, 0, 256, func(c int64) float64 { return float64(c % 2) })
	for c := range int64(256) {
		for vn := range 2 {
			if _, ok := arrival(w, vn, c); ok != (c%2 == 1) {
				t.Fatalf("cycle %d network %d: arrival %v at p = %d", c, vn, ok, c%2)
			}
		}
	}
}

// TestRoutePickUniform: a routed address picks its route uniformly over the
// network's table. Disjoint /16 routes make the route an address came from
// its top 16 bits.
func TestRoutePickUniform(t *testing.T) {
	const routes, n = 64, 64000
	tbl := &rib.Table{}
	for i := range routes {
		tbl.Add(ip.Route{Prefix: ip.Prefix{Addr: ip.Addr(i+1) << 16, Len: 16}, NextHop: ip.NextHop(i)})
	}
	g, err := New(Config{K: 2, Seed: 9, Addr: RoutedAddr, Tables: []*rib.Table{tbl, tbl}})
	if err != nil {
		t.Fatal(err)
	}
	counts, want := make([]int, routes), make([]float64, routes)
	for _, p := range g.Batch(n) {
		counts[int(p.Addr>>16)-1]++
	}
	for i := range want {
		want[i] = n / routes
	}
	if stat := binsChiSquare(counts, want); !chiSquareOK(stat, routes-1) {
		t.Errorf("route picks give chi-square %.1f on %d degrees of freedom: not uniform", stat, routes-1)
	}
}

// TestZipfMatchesPMF: the Zipf VN shares are the exact pmf, (k+1)^-s
// normalised, by chi-square.
func TestZipfMatchesPMF(t *testing.T) {
	const k, n = 6, 60000
	g, err := New(Config{K: k, Seed: 3, Dist: Zipf})
	if err != nil {
		t.Fatal(err)
	}
	counts, want, sum := make([]int, k), make([]float64, k), 0.0
	for _, p := range g.Batch(n) {
		counts[p.VN]++
	}
	for i := range want {
		want[i] = math.Pow(float64(i+1), -zipfS)
		sum += want[i]
	}
	for i := range want {
		want[i] *= n / sum
	}
	if stat := binsChiSquare(counts, want); !chiSquareOK(stat, k-1) {
		t.Errorf("Zipf shares %v give chi-square %.1f on %d degrees of freedom against pmf·n %v", counts, stat, k-1, want)
	}
}

// TestBatchIsPositional: Batch(n) is n calls of Next, the same at 1 and 8
// sweep workers, and Batch(a) then Batch(b) is Batch(a+b); Requests draws
// the same packets.
func TestBatchIsPositional(t *testing.T) {
	set, err := rib.GenerateVirtualSet(3, 200, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Generator {
		g, err := New(Config{K: 3, Seed: 12, Addr: RoutedAddr, Tables: set.Tables})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	const a, b = 3*fillChunk + 17, fillChunk - 5
	defer sweep.SetWorkers(0)
	sweep.SetWorkers(1)
	one := mk().Batch(a + b)
	sweep.SetWorkers(8)
	eight := mk().Batch(a + b)
	g := mk()
	split := append(g.Batch(a), g.Batch(b)...)
	g, next := mk(), make([]Packet, a+b)
	for i := range next {
		next[i] = g.Next()
	}
	reqs := mk().Requests(a + b)
	for i := range one {
		if eight[i] != one[i] || split[i] != one[i] || next[i] != one[i] {
			t.Fatalf("packet %d: Batch at 1 worker %v, at 8 %v, split %v, by Next %v", i, one[i], eight[i], split[i], next[i])
		}
		if r := reqs[i]; r.Addr != one[i].Addr || r.VN != one[i].VN {
			t.Fatalf("request %d is %v, packet %v", i, r, one[i])
		}
	}
}

// TestWindowLengthDoesNotMatter: an arrival and its address are functions of
// (seed, network, cycle), so windows of any length draw the same stream.
func TestWindowLengthDoesNotMatter(t *testing.T) {
	set, err := rib.GenerateVirtualSet(3, 200, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{K: 3, Seed: 4, Addr: RoutedAddr, Tables: set.Tables})
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 4096
	at := func(c int64) float64 { return 0.2 + 0.7*float64(c)/cycles }
	type offer struct {
		addr ip.Addr
		ok   bool
	}
	draw := func(n int) []offer {
		w, out := g.NewWindow(n), make([]offer, 0, 3*cycles)
		for c := int64(0); c < cycles; c += int64(n) {
			m := min(n, int(cycles-c))
			g.Fill(w, c, m, at)
			for cyc := c; cyc < c+int64(m); cyc++ {
				for vn := range 3 {
					a, ok := arrival(w, vn, cyc)
					out = append(out, offer{a, ok})
				}
			}
		}
		return out
	}
	want := draw(pipeline.SettleCycles)
	for _, n := range []int{1, 63, 256, 1000, cycles} {
		for i, a := range draw(n) {
			if a != want[i] {
				t.Fatalf("%d-cycle windows: cycle %d network %d drew %v, %d-cycle windows %v", n, i/3, i%3, a, pipeline.SettleCycles, want[i])
			}
		}
	}
}

// arrival reads network vn's arrival at cycle cyc off w: whether it offers a
// packet, and the packet's address.
func arrival(w *Window, vn int, cyc int64) (ip.Addr, bool) {
	if w.Arrivals(cyc)[vn>>6]>>(vn&63)&1 == 0 {
		return 0, false
	}
	return w.Addr(vn, cyc), true
}
