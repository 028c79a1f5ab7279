package rib

import (
	"fmt"
	"math/rand"

	"vrpower/internal/ip"
)

// GenConfig parameterises the synthetic BGP-like table generator.
//
// The generator replaces the Potaroo snapshots the paper uses (Section V-E).
// It follows an allocation-block model: most routes are announced as runs of
// contiguous sub-prefixes inside a provider allocation block (which is what
// gives real tables their high trie path sharing), and a small scattered
// remainder models singleton announcements. DefaultGen is calibrated so that
// a 3725-route table builds a uni-bit trie close to the paper's published
// node counts (9726 plain, 16127 leaf-pushed).
type GenConfig struct {
	// Prefixes is the number of routes to generate.
	Prefixes int
	// Ports is the number of distinct next hops to draw from (>= 1).
	Ports int
	// Seed seeds the deterministic generator stream.
	Seed int64
	// ScatterShare is the fraction of routes announced as isolated prefixes
	// outside allocation blocks (0..1).
	ScatterShare float64
	// MeanBlock is the mean number of sub-prefixes per allocation block.
	MeanBlock int
	// BaseLen is the allocation block prefix length (e.g. 16 for /16 blocks).
	BaseLen int
	// SubLen is the announced sub-prefix length inside a block (e.g. 24).
	SubLen int
	// GapRate is the probability that a slot inside a block run is left
	// unannounced, modelling holes in real allocation announcements.
	GapRate float64
	// AggregateProb is the probability that a block also announces its
	// covering base prefix (aggregate + more-specifics, common in BGP).
	AggregateProb float64
	// BasePool8 limits block bases to this many distinct /8s, modelling the
	// concentration of allocations in registry address space. 0 disables.
	BasePool8 int
	// NestProb is the probability that an announced sub-prefix also
	// announces a more-specific prefix nested under it (a deaggregation
	// "ladder"). Real BGP tables are ladder-heavy: in the paper's table
	// only ~45 % of prefixes sit at trie leaves.
	NestProb float64
	// NestContinue is the probability that a ladder nests one level deeper
	// after each nested announcement.
	NestContinue float64
	// NestDelta is the mean number of bits a ladder step deepens by.
	NestDelta int
}

// DefaultGen returns the calibrated generator configuration for n routes.
func DefaultGen(n int, seed int64) GenConfig {
	return GenConfig{
		Prefixes:      n,
		Ports:         16,
		Seed:          seed,
		ScatterShare:  0.04,
		MeanBlock:     48,
		BaseLen:       16,
		SubLen:        24,
		GapRate:       0.06,
		AggregateProb: 0.50,
		BasePool8:     24,
		NestProb:      0.85,
		NestContinue:  0.45,
		NestDelta:     2,
	}
}

// Validate reports whether the configuration is usable.
func (c GenConfig) Validate() error {
	switch {
	case c.Prefixes <= 0:
		return fmt.Errorf("rib: GenConfig.Prefixes = %d, want > 0", c.Prefixes)
	case c.Ports <= 0:
		return fmt.Errorf("rib: GenConfig.Ports = %d, want > 0", c.Ports)
	case c.ScatterShare < 0 || c.ScatterShare > 1:
		return fmt.Errorf("rib: GenConfig.ScatterShare = %g, want [0,1]", c.ScatterShare)
	case c.MeanBlock <= 0:
		return fmt.Errorf("rib: GenConfig.MeanBlock = %d, want > 0", c.MeanBlock)
	case c.BaseLen < 1 || c.BaseLen > 31:
		return fmt.Errorf("rib: GenConfig.BaseLen = %d, want [1,31]", c.BaseLen)
	case c.SubLen <= c.BaseLen || c.SubLen > 32:
		return fmt.Errorf("rib: GenConfig.SubLen = %d, want (%d,32]", c.SubLen, c.BaseLen)
	case c.GapRate < 0 || c.GapRate >= 1:
		return fmt.Errorf("rib: GenConfig.GapRate = %g, want [0,1)", c.GapRate)
	case c.AggregateProb < 0 || c.AggregateProb > 1:
		return fmt.Errorf("rib: GenConfig.AggregateProb = %g, want [0,1]", c.AggregateProb)
	case c.BasePool8 < 0 || c.BasePool8 > 256:
		return fmt.Errorf("rib: GenConfig.BasePool8 = %d, want [0,256]", c.BasePool8)
	case c.NestProb < 0 || c.NestProb > 1:
		return fmt.Errorf("rib: GenConfig.NestProb = %g, want [0,1]", c.NestProb)
	case c.NestContinue < 0 || c.NestContinue >= 1:
		return fmt.Errorf("rib: GenConfig.NestContinue = %g, want [0,1)", c.NestContinue)
	case c.NestProb > 0 && c.NestDelta <= 0:
		return fmt.Errorf("rib: GenConfig.NestDelta = %d, want > 0 when nesting", c.NestDelta)
	}
	return nil
}

// Generate builds a synthetic routing table according to c.
func Generate(name string, c GenConfig) (*Table, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	t := &Table{Name: name}
	seen := make(map[ip.Prefix]bool, c.Prefixes)

	add := func(p ip.Prefix) bool {
		if seen[p] {
			return false
		}
		seen[p] = true
		t.Routes = append(t.Routes, ip.Route{
			Prefix:  p,
			NextHop: ip.NextHop(1 + rng.Intn(c.Ports)),
		})
		return true
	}

	scattered := int(float64(c.Prefixes) * c.ScatterShare)
	clustered := c.Prefixes - scattered

	// Registry pool: block bases concentrate in a limited set of /8s.
	var pool []ip.Addr
	if c.BasePool8 > 0 {
		for len(pool) < c.BasePool8 {
			a := ip.Addr(rng.Uint32()) & ip.Mask(8)
			dup := false
			for _, q := range pool {
				if q == a {
					dup = true
					break
				}
			}
			if !dup {
				pool = append(pool, a)
			}
		}
	}

	// Allocation blocks: contiguous runs of sub-prefixes under a base drawn
	// from the registry pool.
	subBits := uint(c.SubLen - c.BaseLen)
	subSpace := 1 << subBits
	for len(t.Routes) < clustered {
		base := ip.Addr(rng.Uint32()) & ip.Mask(c.BaseLen)
		if len(pool) > 0 {
			base = pool[rng.Intn(len(pool))] | (base &^ ip.Mask(8))
		}
		// Block size: uniform around MeanBlock, at least 1, capped by the
		// sub-prefix space under the base.
		size := 1 + rng.Intn(2*c.MeanBlock-1)
		if size > subSpace {
			size = subSpace
		}
		if remaining := clustered - len(t.Routes); size > remaining {
			size = remaining
		}
		start := rng.Intn(subSpace - size + 1)
		// Aggregate + more-specifics: some providers announce the covering
		// base alongside the run. The aggregate later absorbs push-expanded
		// filler leaves, as in real leaf-pushed tables.
		if rng.Float64() < c.AggregateProb {
			p, err := ip.PrefixFrom(base, c.BaseLen)
			if err != nil {
				return nil, err
			}
			add(p)
			if len(t.Routes) >= clustered {
				continue
			}
		}
		for i := 0; i < size; i++ {
			idx := start + i
			// Occasional gaps keep runs from being perfectly contiguous,
			// matching holes in real allocation announcements.
			if rng.Float64() < c.GapRate {
				continue
			}
			sub := base | ip.Addr(uint32(idx)<<(32-uint(c.SubLen)))
			p, err := ip.PrefixFrom(sub, c.SubLen)
			if err != nil {
				return nil, err
			}
			add(p)
			// Deaggregation ladder: nest more-specifics under the
			// announced sub-prefix with geometrically decaying depth.
			if len(t.Routes) < clustered && rng.Float64() < c.NestProb {
				cur := p
				for {
					delta := 1 + rng.Intn(2*c.NestDelta-1)
					length := cur.Len + delta
					if length > 32 {
						break
					}
					ext := ip.Addr(rng.Uint32()) &^ ip.Mask(cur.Len)
					np, err := ip.PrefixFrom(cur.Addr|ext, length)
					if err != nil {
						return nil, err
					}
					add(np)
					if len(t.Routes) >= clustered || rng.Float64() >= c.NestContinue {
						break
					}
					cur = np
				}
			}
			if len(t.Routes) >= clustered {
				break
			}
		}
	}

	// Scattered singletons with a 2011-style BGP length mix.
	for len(t.Routes) < c.Prefixes {
		length := scatterLen(rng)
		p, err := ip.PrefixFrom(ip.Addr(rng.Uint32()), length)
		if err != nil {
			return nil, err
		}
		add(p)
	}
	t.Sort()
	return t, nil
}

// scatterLen draws a prefix length for scattered announcements roughly
// following the 2011 BGP distribution (heavy /24, sizable /16 and /20–/23).
func scatterLen(rng *rand.Rand) int {
	r := rng.Float64()
	switch {
	case r < 0.50:
		return 24
	case r < 0.62:
		return 16
	case r < 0.72:
		return 22
	case r < 0.82:
		return 23
	case r < 0.88:
		return 20
	case r < 0.93:
		return 21
	case r < 0.96:
		return 19
	case r < 0.98:
		return 18
	case r < 0.99:
		return 12
	default:
		return 8
	}
}

// VirtualSet holds the K per-virtual-network tables of one experiment.
type VirtualSet struct {
	Tables []*Table
}

// GenerateVirtualSet builds K same-size tables (Assumption 2) whose pairwise
// structural overlap is controlled by share: a share fraction of the prefix
// space is drawn from a pool common to all K tables (same prefixes, distinct
// next hops), and the remainder is generated independently per table. Higher
// share yields higher trie merging efficiency α when the tables are merged.
func GenerateVirtualSet(k, prefixes int, share float64, seed int64) (*VirtualSet, error) {
	if k <= 0 {
		return nil, fmt.Errorf("rib: virtual set k = %d, want > 0", k)
	}
	if !(share >= 0 && share <= 1) {
		return nil, fmt.Errorf("rib: virtual set share = %g, want [0,1]", share)
	}
	nShared := int(float64(prefixes) * share)
	pool, err := Generate("pool", DefaultGen(prefixes, seed))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	set := &VirtualSet{}
	for i := 0; i < k; i++ {
		cfg := DefaultGen(prefixes-nShared, seed+int64(100+i))
		var own *Table
		if cfg.Prefixes > 0 {
			own, err = Generate(fmt.Sprintf("vn%d", i), cfg)
			if err != nil {
				return nil, err
			}
		} else {
			own = &Table{Name: fmt.Sprintf("vn%d", i)}
		}
		// Splice in the shared pool slice with per-VN next hops.
		index := make(map[ip.Prefix]int, prefixes)
		for j, r := range own.Routes {
			index[r.Prefix] = j
		}
		for _, r := range pool.Routes[:nShared] {
			own.addIndexed(index, ip.Route{Prefix: r.Prefix, NextHop: ip.NextHop(1 + rng.Intn(16))})
		}
		own.Sort()
		set.Tables = append(set.Tables, own)
	}
	return set, nil
}
