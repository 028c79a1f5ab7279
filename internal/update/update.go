// Package update models routing-table churn and its cost on pipelined
// lookup engines. The paper's companion work ([6]: "Towards on-the-fly
// incremental updates for virtualized routers on FPGA", the same authors)
// applies updates by injecting *write bubbles* into the pipeline: a bubble
// occupies one input cycle and performs one memory write in each stage it
// traverses, so lookups stall for one cycle per bubble. This package
// generates deterministic churn streams, diffs compiled pipeline images to
// count the writes an update batch needs, converts writes to bubbles, and
// reports the throughput retained — quantifying the separate scheme's
// update advantage over the merged scheme (one table touched vs the whole
// merged structure).
package update

import (
	"fmt"
	"math/rand"
	"slices"

	"vrpower/internal/ip"
	"vrpower/internal/pipeline"
	"vrpower/internal/rib"
)

// OpKind is the BGP-style update type.
type OpKind int

const (
	// Announce adds a new route.
	Announce OpKind = iota
	// Withdraw removes an existing route.
	Withdraw
	// Change rewrites an existing route's next hop.
	Change
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case Announce:
		return "announce"
	case Withdraw:
		return "withdraw"
	case Change:
		return "change"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one route update.
type Op struct {
	Kind    OpKind
	Prefix  ip.Prefix
	NextHop ip.NextHop // Announce/Change only
}

// ChurnConfig parameterises the update generator.
type ChurnConfig struct {
	Seed int64
	// AnnounceFrac, WithdrawFrac select the op mix; the remainder is
	// next-hop changes. Defaults (zero values) give the BGP-typical
	// 40/30/30 mix.
	AnnounceFrac, WithdrawFrac float64
}

// Churn generates n updates against the table, drawing as if against its
// own shadow copy so withdraws always name live routes. The input table is
// not modified.
func Churn(tbl *rib.Table, n int, cfg ChurnConfig) ([]Op, error) {
	if tbl.Len() == 0 {
		return nil, fmt.Errorf("update: churn against an empty table")
	}
	af, wf := cfg.AnnounceFrac, cfg.WithdrawFrac
	if af == 0 && wf == 0 {
		af, wf = 0.4, 0.3
	}
	if af < 0 || wf < 0 || af+wf > 1 {
		return nil, fmt.Errorf("update: bad op mix announce=%g withdraw=%g", af, wf)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sh := newShadow(tbl.Routes)

	ops := make([]Op, 0, n)
	for len(ops) < n {
		// The op class is drawn exactly once per emitted op; collisions below
		// re-draw only the prefix, so the realized mix honors af/wf.
		r := rng.Float64()
		switch {
		case r < af:
			// Announce: a more-specific under a random existing route. A
			// duplicate draw re-draws the prefix, not the op class; the retry
			// cap only trips when the more-specific space under every base is
			// saturated, in which case the class is re-drawn.
			for try := 0; try < 100; try++ {
				base := sh.at(rng.Intn(sh.n))
				length := base.Len + 1 + rng.Intn(3)
				if length > 32 {
					length = 32
				}
				ext := ip.Addr(rng.Uint32()) &^ ip.Mask(base.Len)
				p, err := ip.PrefixFrom(base.Addr|ext, length)
				if err != nil {
					return nil, err
				}
				if sh.has(p) {
					continue
				}
				nh := ip.NextHop(1 + rng.Intn(16))
				ops = append(ops, Op{Kind: Announce, Prefix: p, NextHop: nh})
				sh.add(p)
				break
			}
		case r < af+wf:
			if sh.n == 1 {
				// Withdrawing the last route would leave announces with no
				// base; re-draw the op. Only single-route tables hit this.
				continue
			}
			i := rng.Intn(sh.n)
			ops = append(ops, Op{Kind: Withdraw, Prefix: sh.at(i)})
			sh.remove(i)
		default:
			i := rng.Intn(sh.n)
			nh := ip.NextHop(1 + rng.Intn(16))
			ops = append(ops, Op{Kind: Change, Prefix: sh.at(i), NextHop: nh})
		}
	}
	return ops, nil
}

// shadow is the route list Churn draws against, as a sparse overlay on the
// table's routes rather than a copy of them: positions behave as a slice's
// (an announce appends, a withdraw moves the last route into the hole), so
// every draw is the one a full copy would give, while the overlay holds only
// the positions and prefixes the batch has touched. Only prefixes are kept:
// no draw reads a next hop.
type shadow struct {
	routes []ip.Route // the table's routes, in its order
	sorted []ip.Route // the same in prefix order (routes itself if sorted)
	n      int        // the shadow's length
	// pos holds the positions the batch has written, live the prefixes
	// announced (true) or withdrawn (false); anything else reads through to
	// the table.
	pos  map[int]ip.Prefix
	live map[ip.Prefix]bool
}

func newShadow(routes []ip.Route) *shadow {
	sorted := routes
	if !slices.IsSortedFunc(sorted, byPrefix) {
		sorted = slices.Clone(routes)
		slices.SortFunc(sorted, byPrefix)
	}
	return &shadow{routes: routes, sorted: sorted, n: len(routes),
		pos: make(map[int]ip.Prefix), live: make(map[ip.Prefix]bool)}
}

// at is the prefix at position i < n.
func (s *shadow) at(i int) ip.Prefix {
	if p, ok := s.pos[i]; ok {
		return p
	}
	return s.routes[i].Prefix
}

// has reports whether p is routed: as the batch left it, else as the table
// has it (a binary search; a table holds a prefix once).
func (s *shadow) has(p ip.Prefix) bool {
	if v, ok := s.live[p]; ok {
		return v
	}
	_, found := slices.BinarySearchFunc(s.sorted, p, func(r ip.Route, p ip.Prefix) int { return ip.Compare(r.Prefix, p) })
	return found
}

// add appends p.
func (s *shadow) add(p ip.Prefix) {
	s.pos[s.n] = p
	s.n++
	s.live[p] = true
}

// remove withdraws the route at position i, moving the last one into it.
func (s *shadow) remove(i int) {
	s.live[s.at(i)] = false
	s.n--
	s.pos[i] = s.at(s.n)
	delete(s.pos, s.n)
}

// Coalesce collapses a batch so each prefix appears at most once: a later op
// to the same prefix supersedes earlier ones. Ops to distinct prefixes
// commute under Apply, so Apply(tbl, Coalesce(ops)) always equals
// Apply(tbl, ops) — but the coalesced batch diffs (and bubbles) strictly
// less when churn revisits prefixes. The input is not modified.
func Coalesce(ops []Op) []Op {
	if len(ops) <= 1 {
		return append([]Op(nil), ops...)
	}
	last := make(map[ip.Prefix]int, len(ops))
	out := make([]Op, 0, len(ops))
	for _, op := range ops {
		if i, ok := last[op.Prefix]; ok {
			out[i] = op
			continue
		}
		last[op.Prefix] = len(out)
		out = append(out, op)
	}
	return out
}

// Apply returns a new table with the ops applied in order. Withdraws of
// absent prefixes and duplicate announces are tolerated (idempotent), and a
// change of an absent prefix announces it. An announce or change leaves its
// prefix routed to its next hop and a withdraw leaves it unrouted, whatever
// came before, and ops to distinct prefixes commute — so the batch folds to
// each prefix's last op (Coalesce), and the result is one merge of the routes
// and those ops, both in prefix order: replace, drop, keep, or put a new
// route in its place. A table holds a prefix once, so that order is total and
// the result is the sequential one's routes in the sequential one's order.
func Apply(tbl *rib.Table, ops []Op) *rib.Table {
	routes := tbl.Routes
	if !slices.IsSortedFunc(routes, byPrefix) {
		routes = slices.Clone(routes)
		slices.SortFunc(routes, byPrefix)
	}
	last := Coalesce(ops)
	slices.SortFunc(last, func(a, b Op) int { return ip.Compare(a.Prefix, b.Prefix) })

	out := &rib.Table{Name: tbl.Name, Routes: make([]ip.Route, 0, len(routes)+len(last))}
	apply := func(op Op) {
		if op.Kind != Withdraw {
			out.Routes = append(out.Routes, ip.Route{Prefix: op.Prefix, NextHop: op.NextHop})
		}
	}
	for _, r := range routes {
		for len(last) > 0 && ip.Compare(last[0].Prefix, r.Prefix) < 0 {
			apply(last[0]) // a prefix the table does not hold
			last = last[1:]
		}
		if len(last) > 0 && last[0].Prefix == r.Prefix {
			apply(last[0])
			last = last[1:]
			continue
		}
		out.Routes = append(out.Routes, r)
	}
	for _, op := range last {
		apply(op)
	}
	return out
}

func byPrefix(a, b ip.Route) int { return ip.Compare(a.Prefix, b.Prefix) }

// Write is one stage-memory word write.
type Write struct {
	Stage int
	Index uint32
}

// Diff lists the stage-memory writes that transform the old compiled image
// into the new one: positionally differing entries, appended entries, and —
// when a stage shrinks — clearing writes over the truncated tail, so stale
// entries never linger as reachable garbage and the write-bubble budget
// covers the full update. (Hardware would in practice allocate free slots;
// positional diff is the conservative upper bound.) Words are compared by
// what they say — kind, level, child pointers, next-hop vector — never by
// where an image happens to keep a vector, and parity follows the data. The
// control plane needs only the counts (Cost); the list is what tests and
// probes read.
func Diff(oldImg, newImg *pipeline.Image) ([]Write, error) {
	if err := sameStages(oldImg, newImg); err != nil {
		return nil, err
	}
	// No more writes than the wider of each stage's two memories.
	bound := 0
	for s := 0; s < newImg.Stages(); s++ {
		bound += max(oldImg.StageLen(s), newImg.StageLen(s))
	}
	writes := make([]Write, 0, bound)
	for s := 0; s < newImg.Stages(); s++ {
		oldImg.DiffStage(newImg, s, func(i uint32) { writes = append(writes, Write{Stage: s, Index: i}) })
	}
	return writes, nil
}

// Cost counts what Diff lists without listing it: the writes, and the write
// bubbles they need. A bubble performs at most one write per stage as it
// traverses the pipeline, so the bubble count is the largest per-stage write
// count.
func Cost(oldImg, newImg *pipeline.Image) (writes, bubbles int, err error) {
	if err := sameStages(oldImg, newImg); err != nil {
		return 0, 0, err
	}
	n := 0
	count := func(uint32) { n++ }
	for s := 0; s < newImg.Stages(); s++ {
		n = 0
		oldImg.DiffStage(newImg, s, count)
		writes, bubbles = writes+n, max(bubbles, n)
	}
	return writes, bubbles, nil
}

func sameStages(oldImg, newImg *pipeline.Image) error {
	if oldImg.Stages() != newImg.Stages() {
		return fmt.Errorf("update: stage counts differ (%d vs %d)", oldImg.Stages(), newImg.Stages())
	}
	return nil
}

// ThroughputRetained returns the fraction of lookup slots left after
// spending bubbles update cycles out of every second at fMHz million
// cycles per second.
func ThroughputRetained(bubblesPerSecond int, fMHz float64) float64 {
	if fMHz <= 0 {
		return 0
	}
	cycles := fMHz * 1e6
	loss := float64(bubblesPerSecond) / cycles
	if loss > 1 {
		return 0
	}
	return 1 - loss
}
