package pipeline

import (
	"math/rand"
	"testing"

	"vrpower/internal/ip"
	"vrpower/internal/merge"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

// FuzzBatchedLookup compiles a random small table from the fuzzed seed and
// asserts, for random addresses and VNs (including out-of-range VNs), that
// the batched engine, the scalar cycle-accurate oracle and the trie agree.
// When the corrupt knob is set the image takes a parity-stale bit flip and
// both engines run with parity checking: results must still match each
// other exactly (Faulted included), and every non-faulted lookup must still
// match the trie — drop, never misforward. The out-of-range knob instead
// corrupts a child pointer past every stage's address range (parity
// re-stamped, so only the address decoder can catch it).
func FuzzBatchedLookup(f *testing.F) {
	for _, c := range batchedLookupCorpus {
		f.Add(c.seed, c.addrSeed, c.corrupt, c.outOfRange)
	}
	f.Fuzz(func(t *testing.T, seed int64, addrSeed uint32, corrupt, outOfRange bool) {
		batchedLookupCase(t, seed, addrSeed, corrupt, outOfRange)
	})
}

// batchedLookupCorpus seeds FuzzBatchedLookup. The images of seeds 1 and 13
// are large enough to have a jump table (TestFuzzCorporaReachJumpLane), so the
// fuzzer starts from inputs on both sweep lanes.
var batchedLookupCorpus = []struct {
	seed                int64
	addrSeed            uint32
	corrupt, outOfRange bool
}{
	{1, 0x12345678, false, false},
	{7, 0xdeadbeef, true, false},
	{13, 0, false, true},
	{42, 0xffffffff, true, true},
}

// batchedLookupCase is FuzzBatchedLookup's body; it reports whether the
// batched engine's image had a jump table.
func batchedLookupCase(t *testing.T, seed int64, addrSeed uint32, corrupt, outOfRange bool) (jumps bool) {
	rng := rand.New(rand.NewSource(seed))
	k := 1 + rng.Intn(3)
	prefixes := 20 + rng.Intn(180)
	stages := []int{4, 8, 16, 28}[rng.Intn(4)]

	// Compile a random small table set (merged when K > 1).
	set, err := rib.GenerateVirtualSet(k, prefixes, 0.3+0.4*rng.Float64(), seed)
	if err != nil {
		t.Skip() // degenerate generator parameters
	}
	img, err := Compile(set.Tables, stages)
	if err != nil {
		t.Fatal(err)
	}
	var oracle func(vn int, addr ip.Addr) ip.NextHop
	if k == 1 {
		tr := trie.Build(set.Tables[0].Routes)
		oracle = func(_ int, addr ip.Addr) ip.NextHop { return tr.Lookup(addr) }
	} else {
		m, err := merge.Build(set.Tables)
		if err != nil {
			t.Fatal(err)
		}
		oracle = m.Lookup
	}

	parity := false
	if corrupt {
		// An SEU with stale parity: detectable, so both engines run
		// checked and the walk never follows the corrupt word's data.
		s, idx, bit, ok := img.Locate(rng.Int63n(img.DataBits()))
		if !ok {
			t.Fatal("Locate failed in range")
		}
		img.FlipBit(s, idx, bit)
		parity = true
	}
	if outOfRange {
		// A clean-parity pointer escape: caught by the address range
		// check alone. The target is far beyond any stage memory, so the
		// walk faults instead of cycling.
	strike:
		for s, entries := range allEntries(img) {
			for i := range entries {
				if !entries[i].Leaf {
					poke(img, s, uint32(i), func(e *Entry) {
						e.Child[rng.Intn(2)] = 1<<29 + uint32(rng.Intn(1024))
						e.Parity = e.DataParity()
					})
					break strike
				}
			}
		}
	}

	scalar, batched := NewSim(img), NewBatchSim(img)
	if parity {
		scalar.EnableParityCheck()
		batched.EnableParityCheck()
	}

	arng := rand.New(rand.NewSource(int64(addrSeed)))
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{Addr: ip.Addr(arng.Uint32()), VN: arng.Intn(k+3) - 1}
	}
	want, wantSt, err := scalar.Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, gotSt, err := batched.Run(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].NHI != want[i].NHI || got[i].Faulted != want[i].Faulted ||
			got[i].EnterCycle != want[i].EnterCycle || got[i].ExitCycle != want[i].ExitCycle {
			t.Fatalf("req %d (%s vn=%d): batched %+v, scalar %+v",
				i, reqs[i].Addr, reqs[i].VN, got[i], want[i])
		}
		// Non-faulted lookups with a valid VN must match the trie; a
		// fault must drop (NoRoute), never misforward.
		if want[i].Faulted {
			if got[i].NHI != ip.NoRoute {
				t.Fatalf("req %d: faulted lookup forwarded NHI %d", i, got[i].NHI)
			}
			continue
		}
		if vn := reqs[i].VN; vn >= 0 && vn < k && !corrupt && !outOfRange {
			if ref := oracle(vn, reqs[i].Addr); got[i].NHI != ref {
				t.Fatalf("req %d (%s vn=%d): engines say %d, trie says %d",
					i, reqs[i].Addr, vn, got[i].NHI, ref)
			}
		}
	}
	if gotSt.Faults != wantSt.Faults || gotSt.Cycles != wantSt.Cycles || gotSt.Lookups != wantSt.Lookups {
		t.Fatalf("stats diverge: batched %+v, scalar %+v", gotSt, wantSt)
	}
	return img.jump != nil
}

// TestFuzzCorporaReachJumpLane asserts that the seed corpora of both engine
// fuzzers hold inputs whose images have a jump table — so neither fuzzer
// starts, or stays, on the walked lane alone.
func TestFuzzCorporaReachJumpLane(t *testing.T) {
	batched, streamed := 0, 0
	for _, c := range batchedLookupCorpus {
		if batchedLookupCase(t, c.seed, c.addrSeed, c.corrupt, c.outOfRange) {
			batched++
		}
	}
	for _, c := range streamCorpus {
		if lockstep(t, c.seed, c.ops, c.seed%2 == 0, 7) {
			streamed++
		}
	}
	if batched == 0 || streamed == 0 {
		t.Errorf("corpus images with a jump table: %d of FuzzBatchedLookup's, %d of FuzzStreamVsSim's; want some of each", batched, streamed)
	}
}
