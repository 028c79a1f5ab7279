package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"vrpower/internal/ip"
	"vrpower/internal/rib"
	"vrpower/internal/sweep"
	"vrpower/internal/trie"
)

// compileMerged builds a K-network merged image for the differential tests.
func compileMerged(t *testing.T, k, prefixes int, seed int64, stages int) *Image {
	t.Helper()
	set, err := rib.GenerateVirtualSet(k, prefixes, 0.5, seed)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Compile(set.Tables, stages)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// randReqs draws addresses uniformly (hitting routed and unrouted space)
// with VNs spanning [-1, k+1) to cover the out-of-range NHI path, and marks
// a sprinkling of flights traced.
func randReqs(rng *rand.Rand, n, k int, traceEvery int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Addr: ip.Addr(rng.Uint32()), VN: rng.Intn(k+2) - 1}
		if traceEvery > 0 && i%traceEvery == 0 {
			reqs[i].Trace = true
		}
	}
	return reqs
}

// diffRun asserts the batched engine reproduces the scalar oracle byte for
// byte on one request stream: every Result field (NHI, Faulted, cycle
// stamps, the traced visit log) and the full Stats struct.
func diffRun(t *testing.T, scalar *Sim, batched *BatchSim, reqs []Request, interarrival int) {
	t.Helper()
	want, wantSt, err := scalar.Run(reqs, interarrival)
	if err != nil {
		t.Fatal(err)
	}
	got, gotSt, err := batched.Run(reqs, interarrival)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batched returned %d results, scalar %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("result %d diverges:\nbatched %+v\nscalar  %+v", i, got[i], want[i])
		}
	}
	if !reflect.DeepEqual(gotSt, wantSt) {
		t.Fatalf("stats diverge:\nbatched %+v\nscalar  %+v", gotSt, wantSt)
	}
}

// TestBatchedMatchesScalarRandomImages is the tentpole's differential
// proof: across randomized single-network and merged images, pipeline
// depths, interarrival gaps, parity settings and traced flights, batched
// results are byte-identical to the scalar cycle-accurate oracle —
// including across back-to-back Run calls on the same engines, which must
// accumulate cycle clocks and stats identically.
func TestBatchedMatchesScalarRandomImages(t *testing.T) {
	cases := []struct {
		name     string
		k        int
		prefixes int
		seed     int64
		stages   int
		parity   bool
		gap      int
		// jump marks the images that must be large enough, and mapped finely
		// enough, to have a jump table: the suite covers both sweep lanes.
		jump bool
	}{
		{"single/28", 1, 400, 3, 28, false, 1, true},
		{"single/8-folded", 1, 600, 4, 8, false, 1, false},
		{"single/33-deep", 1, 250, 5, 33, true, 1, true},
		{"merged/16", 4, 300, 6, 16, false, 1, false},
		{"merged/28-parity", 3, 500, 7, 28, true, 1, true},
		{"merged/28-gap3", 3, 350, 8, 28, false, 3, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var img *Image
			if tc.k == 1 {
				img = compileSingle(t, genTable(t, tc.prefixes, tc.seed), tc.stages)
			} else {
				img = compileMerged(t, tc.k, tc.prefixes, tc.seed, tc.stages)
			}
			scalar := NewSim(img)
			batched := NewBatchSim(img)
			if got := img.jump != nil; got != tc.jump {
				t.Fatalf("jump table present: %v, want %v", got, tc.jump)
			}
			if tc.parity {
				scalar.EnableParityCheck()
				batched.EnableParityCheck()
			}
			rng := rand.New(rand.NewSource(tc.seed * 11))
			diffRun(t, scalar, batched, randReqs(rng, 1500, tc.k, 97), tc.gap)
			// Second run on the same engines: clocks and stats accumulate.
			diffRun(t, scalar, batched, randReqs(rng, 700, tc.k, 83), tc.gap)
		})
	}
}

// TestBatchedMatchesScalarOnFaultedImages covers the two fault classes: an
// SEU-corrupted word caught by parity, and an in-parity child pointer that
// escapes every stage's address range.
func TestBatchedMatchesScalarOnFaultedImages(t *testing.T) {
	t.Run("parity", func(t *testing.T) {
		img := compileMerged(t, 3, 400, 21, 28)
		rng := rand.New(rand.NewSource(22))
		// Flip bits across the image; stale parity is the upset's signature.
		for i := 0; i < 40; i++ {
			s, idx, bit, ok := img.Locate(rng.Int63n(img.DataBits()))
			if !ok {
				t.Fatal("Locate failed in range")
			}
			img.FlipBit(s, idx, bit)
		}
		scalar, batched := NewSim(img), NewBatchSim(img)
		scalar.EnableParityCheck()
		batched.EnableParityCheck()
		reqs := randReqs(rng, 3000, 3, 59)
		diffRun(t, scalar, batched, reqs, 1)
		if scalar.Stats().Faults == 0 {
			t.Error("fault campaign never hit a corrupted word; weaken the test")
		}
	})
	t.Run("out-of-range", func(t *testing.T) {
		img := compileSingle(t, genTable(t, 500, 23), 28)
		// Corrupt child pointers to indices no stage holds, and re-stamp
		// parity so only the address-range check can catch them.
		n := 0
		for s, entries := range allEntries(img) {
			for i := range entries {
				if !entries[i].Leaf && i%17 == 0 {
					poke(img, s, uint32(i), func(e *Entry) {
						e.Child[0] = 1 << 29
						e.Parity = e.DataParity()
					})
					n++
				}
			}
		}
		if n == 0 {
			t.Fatal("no internal entries corrupted")
		}
		scalar, batched := NewSim(img), NewBatchSim(img)
		rng := rand.New(rand.NewSource(24))
		diffRun(t, scalar, batched, randReqs(rng, 3000, 1, 71), 1)
		if scalar.Stats().Faults == 0 {
			t.Error("no lookup crossed a corrupted pointer; weaken the test")
		}
	})
}

// fillFrom is the filler that builds each chunk as a copy of its part of
// reqs.
func fillFrom(reqs []Request) func(start int, chunk []Request) {
	return func(start int, chunk []Request) { copy(chunk, reqs[start:start+len(chunk)]) }
}

// runSharded is RunSharded at the pool's shard count, filled from reqs, with
// the chunks placed by their start index. It fails t unless every request is
// filled exactly once, in chunks of 1..batchFlights, and each chunk is
// visited once, right after its fill and with as many results, by a shard in
// range, in request order within each shard. A chunk's fill and visit run on
// the shard's goroutine and chunks are disjoint, so the tallies need no lock.
func runSharded(t *testing.T, b *BatchSim, reqs []Request) ([]Result, Stats) {
	t.Helper()
	shards := Shards(len(reqs))
	got := make([]Result, len(reqs))
	filled := make([]int, len(reqs))
	seen := make([]int, len(reqs))
	chunk := make([]int, len(reqs)) // length of the chunk filled at each start
	next := make([]int, shards)     // each shard's chunks move forward
	bad := make([]string, shards)
	fill := func(start int, rs []Request) {
		if len(rs) == 0 || len(rs) > batchFlights {
			panic(fmt.Sprintf("a chunk of %d requests filled at %d", len(rs), start))
		}
		chunk[start] = len(rs)
		for j := range rs {
			filled[start+j]++
		}
		fillFrom(reqs)(start, rs)
	}
	st, err := b.RunSharded(len(reqs), shards, fill, func(shard, start int, res []Result) {
		switch {
		case shard < 0 || shard >= shards:
			panic(fmt.Sprintf("shard %d of %d", shard, shards))
		case len(res) != chunk[start]:
			bad[shard] = fmt.Sprintf("%d results for the chunk of %d filled at %d", len(res), chunk[start], start)
		case start < next[shard]:
			bad[shard] = fmt.Sprintf("chunk at %d after one ending at %d", start, next[shard])
		}
		next[shard] = start + len(res)
		for j := range res {
			seen[start+j]++
			got[start+j] = res[j]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for shard, msg := range bad {
		if msg != "" {
			t.Fatalf("shard %d of %d: %s", shard, shards, msg)
		}
	}
	for i := range seen {
		if filled[i] != 1 || seen[i] != 1 {
			t.Fatalf("request %d of %d filled %d times, visited %d times", i, len(reqs), filled[i], seen[i])
		}
	}
	return got, st
}

// TestRunShardedVisitsEveryChunk proves the filled chunk loop changes nothing
// observable: at any worker count and around every shard and chunk boundary,
// every request is filled once, and the visited chunks placed by their start
// index are Run's results (itself scalar-identical) and the stats are Run's.
func TestRunShardedVisitsEveryChunk(t *testing.T) {
	img := compileMerged(t, 4, 500, 31, 28)
	rng := rand.New(rand.NewSource(32))
	all := randReqs(rng, 6001, 4, 101)
	defer sweep.SetWorkers(0)
	for _, n := range []int{0, 1, 2*batchFlights - 1, 2 * batchFlights, 6000, 6001} {
		reqs := all[:n]
		want, wantSt, err := NewBatchSim(img).Run(reqs, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			sweep.SetWorkers(workers)
			if workers > 1 && n >= 2*batchFlights && Shards(n) < 2 {
				t.Fatalf("workers=%d n=%d: %d shard", workers, n, Shards(n))
			}
			got, gotSt := runSharded(t, NewBatchSim(img), reqs)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d n=%d: visited results diverge from Run", workers, n)
			}
			if !reflect.DeepEqual(gotSt, wantSt) {
				t.Fatalf("workers=%d n=%d: stats %+v, want %+v", workers, n, gotSt, wantSt)
			}
		}
	}
}

// TestRunShardedAllocsFlat pins that a sharded run stages no batch and keeps
// no results: with warm arenas, what an untraced call allocates — objects and
// bytes — is the fan-out's, no more at 65 536 requests than at 4 096, at
// every worker count.
func TestRunShardedAllocsFlat(t *testing.T) {
	img := compileSingle(t, genTable(t, 500, 43), 28)
	rng := rand.New(rand.NewSource(44))
	defer sweep.SetWorkers(0)
	var nhi [8]ip.NextHop // one per shard: shards visit concurrently
	visit := func(shard, _ int, res []Result) { nhi[shard] ^= res[0].NHI }
	// block sets up a sweep of n requests and returns a measurement of one
	// block of calls: objects and bytes allocated a call.
	block := func(n int) func() (objects, bytes float64) {
		reqs := randReqs(rng, n, 1, 0)
		fill := fillFrom(reqs)
		sim := NewBatchSim(img)
		run := func() {
			sim.Reset()
			if _, err := sim.RunSharded(n, Shards(n), fill, visit); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the arenas
		return func() (objects, bytes float64) {
			const calls = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			return float64(after.Mallocs-before.Mallocs) / calls, float64(after.TotalAlloc-before.TotalAlloc) / calls
		}
	}
	for _, workers := range []int{1, 2, 3, 8} {
		sweep.SetWorkers(workers)
		// Each size reads as the least of five blocks, the sizes' blocks
		// interleaved: the runtime's scheduling allocations only add, so the
		// least block is the sweep's own. A per-request allocation would add
		// an object a 512-request chunk to every block.
		small, large := block(4096), block(65536)
		smallN, smallB, largeN, largeB := math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)
		for range 5 {
			n, b := small()
			smallN, smallB = min(smallN, n), min(smallB, b)
			n, b = large()
			largeN, largeB = min(largeN, n), min(largeB, b)
		}
		t.Logf("workers=%d, per call: %.1f objects, %.0f B at 4096 requests; %.1f objects, %.0f B at 65536", workers, smallN, smallB, largeN, largeB)
		// The slack absorbs the runtime's own allocations (goroutine
		// scheduling); a []Request or []Result of the batch would be megabytes
		// more at 65536 requests.
		if largeN > smallN+2 || largeB > smallB+16<<10 {
			t.Errorf("workers=%d: untraced RunSharded allocates %.1f objects, %.0f B a call at 65536 requests, %.1f, %.0f B at 4096: want no growth", workers, largeN, largeB, smallN, smallB)
		}
	}
}

// TestBatchedUntracedPathAllocationFree pins the tentpole's zero-allocs
// claim: with a warm arena and a pre-sized result buffer, the untraced
// batched path performs no per-run heap allocations.
func TestBatchedUntracedPathAllocationFree(t *testing.T) {
	img := compileSingle(t, genTable(t, 500, 41), 28)
	rng := rand.New(rand.NewSource(42))
	reqs := randReqs(rng, 2048, 1, 0)
	sim := NewBatchSim(img)
	dst := make([]Result, 0, len(reqs))
	// Warm the arena.
	if _, _, err := sim.RunAppend(dst[:0], reqs, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		sim.Reset()
		if _, _, err := sim.RunAppend(dst[:0], reqs, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("untraced batched run allocates %.1f objects/op, want 0", allocs)
	}
}

// TestScalarResetMatchesFresh verifies Sim.Reset restores post-NewSim
// behaviour: a used-then-reset simulator reproduces a fresh one exactly.
func TestScalarResetMatchesFresh(t *testing.T) {
	img := compileSingle(t, genTable(t, 300, 51), 16)
	rng := rand.New(rand.NewSource(52))
	reqs := randReqs(rng, 800, 1, 61)

	fresh := NewSim(img)
	want, wantSt, err := fresh.Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}

	used := NewSim(img)
	if _, _, err := used.Run(randReqs(rng, 500, 1, 0), 2); err != nil {
		t.Fatal(err)
	}
	used.Reset()
	got, gotSt, err := used.Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("reset simulator's results diverge from a fresh one")
	}
	if !reflect.DeepEqual(gotSt, wantSt) {
		t.Fatalf("reset simulator's stats %+v, want %+v", gotSt, wantSt)
	}

	// BatchSim.Reset: same property.
	bFresh, bUsed := NewBatchSim(img), NewBatchSim(img)
	bWant, bWantSt, err := bFresh.Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bUsed.Run(randReqs(rng, 500, 1, 0), 1); err != nil {
		t.Fatal(err)
	}
	bUsed.Reset()
	bGot, bGotSt, err := bUsed.Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bGot, bWant) || !reflect.DeepEqual(bGotSt, bWantSt) {
		t.Fatal("reset batched engine diverges from a fresh one")
	}
}

// TestBatchedRejectsBadInterarrival mirrors the scalar contract.
func TestBatchedRejectsBadInterarrival(t *testing.T) {
	img := compileSingle(t, genTable(t, 50, 61), 8)
	if _, _, err := NewBatchSim(img).Run(nil, 0); err == nil {
		t.Error("interarrival 0 accepted, want error")
	}
}

// TestBatchedEmptyRunDrains: a zero-request run still advances the drain
// cycles, as the scalar loop does.
func TestBatchedEmptyRunDrains(t *testing.T) {
	img := compileSingle(t, genTable(t, 50, 62), 8)
	scalar, batched := NewSim(img), NewBatchSim(img)
	diffRun(t, scalar, batched, nil, 1)
}

// TestLookupMatchesSimulator pins the stateless Lookup walk and the bulk
// Lookups batch to the cycle-accurate oracle.
func TestLookupMatchesSimulator(t *testing.T) {
	img := compileMerged(t, 3, 400, 71, 28)
	rng := rand.New(rand.NewSource(72))
	reqs := randReqs(rng, 1200, 3, 0)
	want, _, err := NewSim(img).Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	bulk := Lookups(img, reqs)
	for i, req := range reqs {
		if got := Lookup(img, req); got != want[i].NHI {
			t.Fatalf("Lookup(%s, vn=%d) = %d, simulator says %d", req.Addr, req.VN, got, want[i].NHI)
		}
		if bulk[i] != want[i].NHI {
			t.Fatalf("Lookups[%d] = %d, simulator says %d", i, bulk[i], want[i].NHI)
		}
	}
}

// TestFlattenSnapshotsImage: Flatten is pure. It hands back a copy — equal to
// its source, whose derived words were kept — and mutating the source
// afterwards must not leak into it.
func TestFlattenSnapshotsImage(t *testing.T) {
	img := compileSingle(t, genTable(t, 200, 81), 16)
	before := img.Clone()
	flat := Flatten(img)
	if !img.Equal(before) || !flat.Equal(img) {
		t.Fatal("Flatten wrote its argument, or its copy differs from a freshly compiled image")
	}
	batched := NewBatchSim(flat)
	scalar := NewSim(before)
	// Corrupt the source after the snapshot was taken.
	for s, entries := range allEntries(img) {
		for i := range entries {
			if !entries[i].Leaf {
				poke(img, s, uint32(i), func(e *Entry) { e.Child[0] = 1 << 29 })
			}
		}
	}
	rng := rand.New(rand.NewSource(82))
	diffRun(t, scalar, batched, randReqs(rng, 500, 1, 0), 1)
}

// TestStageMapContiguity documents the invariant the batched sweep relies
// on: a lookup never needs to revisit an earlier stage, because compiled
// level→stage maps are monotone with unit steps.
func TestStageMapContiguity(t *testing.T) {
	for _, stages := range []int{1, 8, 28, 33} {
		sm, err := trie.NewStageMap(stages, 32)
		if err != nil {
			t.Fatal(err)
		}
		prev := 0
		for lv := 0; lv <= 33; lv++ {
			s := sm.Stage(lv)
			if s < prev || s > prev+1 {
				t.Fatalf("stages=%d: Stage(%d)=%d after Stage(%d)=%d, want monotone unit steps", stages, lv, s, lv-1, prev)
			}
			prev = s
		}
	}
}
