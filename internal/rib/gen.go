package rib

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"vrpower/internal/ip"
	"vrpower/internal/sweep"
)

// The generator's calibration. The generator replaces the Potaroo snapshots
// the paper uses (Section V-E). It follows an allocation-block model: most
// routes are announced as runs of contiguous sub-prefixes inside a provider
// allocation block (which is what gives real tables their high trie path
// sharing), and a small scattered remainder models singleton announcements.
// These values make a 3725-route table build a uni-bit trie close to the
// paper's published node counts (9726 plain, 16127 leaf-pushed).
const (
	// ports is the number of distinct next hops routes draw from.
	ports = 16
	// scatterShare is the fraction of routes announced as isolated prefixes
	// outside allocation blocks.
	scatterShare = 0.04
	// meanBlock is the mean number of sub-prefixes per allocation block.
	meanBlock = 48
	// baseLen is the allocation block prefix length (/16 blocks).
	baseLen = 16
	// subLen is the announced sub-prefix length inside a block.
	subLen = 24
	// gapRate is the probability that a slot inside a block run is left
	// unannounced, modelling holes in real allocation announcements.
	gapRate = 0.06
	// aggregateProb is the probability that a block also announces its
	// covering base prefix (aggregate + more-specifics, common in BGP).
	aggregateProb = 0.50
	// basePool8 limits block bases to this many distinct /8s, modelling the
	// concentration of allocations in registry address space.
	basePool8 = 24
	// nestProb is the probability that an announced sub-prefix also
	// announces a more-specific prefix nested under it (a deaggregation
	// "ladder"). Real BGP tables are ladder-heavy: in the paper's table only
	// ~45 % of prefixes sit at trie leaves.
	nestProb = 0.85
	// nestContinue is the probability that a ladder nests one level deeper
	// after each nested announcement.
	nestContinue = 0.45
	// nestDelta is the mean number of bits a ladder step deepens by.
	nestDelta = 2
)

// Generate builds a synthetic routing table of the given number of routes
// from the calibrated model, deterministically from seed.
func Generate(name string, prefixes int, seed int64) (*Table, error) {
	return generate(name, prefixes, 0, seed)
}

// generate is Generate with room for more routes past the table's.
func generate(name string, prefixes, room int, seed int64) (*Table, error) {
	if prefixes <= 0 {
		return nil, fmt.Errorf("rib: %d prefixes, want > 0", prefixes)
	}
	rng := rand.New(rand.NewSource(seed))
	t := &Table{Name: name, Routes: make([]ip.Route, 0, prefixes+room)}
	// seen holds each prefix drawn so far. A duplicate draws no next hop.
	seen := newPrefixSet(prefixes)
	add := func(p ip.Prefix) {
		if seen.insert(p) {
			t.Routes = append(t.Routes, ip.Route{
				Prefix:  p,
				NextHop: ip.NextHop(1 + rng.Intn(ports)),
			})
		}
	}

	scattered := int(float64(prefixes) * scatterShare)
	clustered := prefixes - scattered

	// Registry pool: block bases concentrate in a limited set of /8s.
	var pool []ip.Addr
	for len(pool) < basePool8 {
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

	// Allocation blocks: contiguous runs of sub-prefixes under a base drawn
	// from the registry pool.
	const subSpace = 1 << (subLen - baseLen)
	for len(t.Routes) < clustered {
		base := ip.Addr(rng.Uint32()) & ip.Mask(baseLen)
		base = pool[rng.Intn(len(pool))] | (base &^ ip.Mask(8))
		// Block size: uniform around meanBlock, at least 1, capped by the
		// sub-prefix space under the base.
		size := 1 + rng.Intn(2*meanBlock-1)
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
		if rng.Float64() < aggregateProb {
			add(ip.MustPrefix(base, baseLen))
			if len(t.Routes) >= clustered {
				continue
			}
		}
		for i := 0; i < size; i++ {
			idx := start + i
			// Occasional gaps keep runs from being perfectly contiguous,
			// matching holes in real allocation announcements.
			if rng.Float64() < gapRate {
				continue
			}
			sub := base | ip.Addr(uint32(idx)<<(32-subLen))
			p := ip.MustPrefix(sub, subLen)
			add(p)
			// Deaggregation ladder: nest more-specifics under the
			// announced sub-prefix with geometrically decaying depth.
			if len(t.Routes) < clustered && rng.Float64() < nestProb {
				cur := p
				for {
					delta := 1 + rng.Intn(2*nestDelta-1)
					length := cur.Len + delta
					if length > 32 {
						break
					}
					ext := ip.Addr(rng.Uint32()) &^ ip.Mask(cur.Len)
					np := ip.MustPrefix(cur.Addr|ext, length)
					add(np)
					if len(t.Routes) >= clustered || rng.Float64() >= nestContinue {
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
	for len(t.Routes) < prefixes {
		length := scatterLen(rng)
		add(ip.MustPrefix(ip.Addr(rng.Uint32()), length))
	}
	// The set is done with, and its slots outnumber the routes: the sort's
	// words go there.
	t.sortIn(seen.slots)
	return t, nil
}

// prefixSet is a set of prefixes in one flat array: open addressing with
// linear probing over twice as many slots as the prefixes it is sized for,
// so it is at most half full. A slot holds its prefix packed as address
// above length, with a top bit that tells it from an empty (zero) slot.
type prefixSet struct {
	slots []uint64
}

// newPrefixSet returns a set with room for n prefixes.
func newPrefixSet(n int) prefixSet {
	return prefixSet{slots: make([]uint64, 2*n)}
}

// insert adds p, reporting whether it was not in the set already. The
// probe starts at the slot the key's multiplicative hash picks (its top
// bits scaled to the slot count) and walks on past the slots other keys
// hold until it finds p or an empty slot, which p then takes.
func (s prefixSet) insert(p ip.Prefix) bool {
	h := uint64(p.Addr)<<8 | uint64(p.Len)
	key := 1<<63 | h
	i, _ := bits.Mul64(h*0x9e3779b97f4a7c15, uint64(len(s.slots)))
	for {
		switch s.slots[i] {
		case 0:
			s.slots[i] = key
			return true
		case key:
			return false
		}
		if i++; i == uint64(len(s.slots)) {
			i = 0
		}
	}
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
//
// The pool and the K own tables are generated side by side on the sweep
// pool, each from its own seed, so the set is the same at any worker count.
func GenerateVirtualSet(k, prefixes int, share float64, seed int64) (*VirtualSet, error) {
	if k <= 0 {
		return nil, fmt.Errorf("rib: virtual set k = %d, want > 0", k)
	}
	if !(share >= 0 && share <= 1) {
		return nil, fmt.Errorf("rib: virtual set share = %g, want [0,1]", share)
	}
	// Generate's check, made here so that its error is not wrapped as a sweep
	// point's.
	if prefixes <= 0 {
		return nil, fmt.Errorf("rib: %d prefixes, want > 0", prefixes)
	}
	nShared := int(float64(prefixes) * share)
	// Point 0 is the pool, point i+1 network i's own routes. Nothing shared,
	// nothing pooled.
	tables, err := sweep.Run(k+1, func(p int) (*Table, error) {
		if p == 0 {
			if nShared == 0 {
				return &Table{Name: "pool"}, nil
			}
			return Generate("pool", prefixes, seed)
		}
		name := fmt.Sprintf("vn%d", p-1)
		if n := prefixes - nShared; n > 0 {
			return generate(name, n, nShared, seed+int64(100+p-1))
		}
		return &Table{Name: name}, nil
	})
	if err != nil {
		return nil, err
	}
	// The shared next hops come from one stream, network after network.
	// The set's slice shares tables' array, so the pool is dropped from it.
	shared := tables[0].Routes[:nShared]
	tables[0] = nil
	rng := rand.New(rand.NewSource(seed + 1))
	for _, own := range tables[1:] {
		own.Routes = splice(own.Routes, shared, rng)
	}
	return &VirtualSet{Tables: tables[1:]}, nil
}

// splice merges shared into own, both sorted and unique, giving each shared
// route a next hop drawn from rng in shared's order; where own holds the same
// prefix, the shared route replaces it. The result is sorted and unique. It
// is merged from the back into own's room past its routes (grown when there
// is too little), and the gap the replaced prefixes leave is closed.
func splice(own, shared []ip.Route, rng *rand.Rand) []ip.Route {
	hops := make([]ip.NextHop, len(shared))
	for j := range hops {
		hops[j] = ip.NextHop(1 + rng.Intn(ports))
	}
	i, j := len(own)-1, len(shared)-1
	out := slices.Grow(own, len(shared))[:len(own)+len(shared)]
	w := len(out)
	for ; j >= 0; j-- {
		for i >= 0 && ip.Compare(out[i].Prefix, shared[j].Prefix) > 0 {
			w--
			out[w] = out[i]
			i--
		}
		if i >= 0 && out[i].Prefix == shared[j].Prefix {
			i--
		}
		w--
		out[w] = ip.Route{Prefix: shared[j].Prefix, NextHop: hops[j]}
	}
	return append(out[:i+1], out[w:]...)
}
