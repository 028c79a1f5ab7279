package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"vrpower/internal/ip"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

// imageDigest folds every stage's (Leaf, Level, Child, NHI, Parity) words,
// in stage and index order, into h.
func imageDigest(h hash.Hash, img *Image) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(img.Stages()))
	for _, entries := range allEntries(img) {
		put(uint64(len(entries)))
		for _, e := range entries {
			leaf := uint64(0)
			if e.Leaf {
				leaf = 1
			}
			put(leaf)
			put(uint64(e.Level))
			put(uint64(e.Child[0]))
			put(uint64(e.Child[1]))
			put(uint64(len(e.NHI)))
			for _, nh := range e.NHI {
				put(uint64(nh))
			}
			put(uint64(e.Parity))
		}
	}
}

// The compiled layout of the paper-size tables, recorded from the commit
// before compile lost its node→index map and gained the next-hop slab:
// SHA-256 over the compile of each of eight 3725-prefix tables under the
// plain fold at its height and under the pinned 32-level map, then the
// compile of all eight merged. Every equiv_*
// golden, every pre-drawn SEU coordinate and every hitless write budget is
// a function of this layout, so it must stay word-for-word.
func TestCompileDigests(t *testing.T) {
	pinned, err := trie.NewStageMap(28, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		seed int64
		want string
	}{
		{1, "e6fe9f862850b3991ae2413496d4c7930fdd104efbfea3c829d1576cf33b3941"},
		{2, "fbf8f631cfa14a18866e3150da03a2552ba592a703ef07fcf846bb276f23aae6"},
		{7, "92648b6fad5eedf0d24c8fd2c857745d5b623178879dbd9d13f9b261ee5e19cc"},
	} {
		set, err := rib.GenerateVirtualSet(8, 3725, 0.5, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, tbl := range set.Tables {
			plain, err := Compile([]*rib.Table{tbl}, 28)
			if err != nil {
				t.Fatal(err)
			}
			imageDigest(h, plain)
			mapped, err := NewRoutes([]*rib.Table{tbl}).Compile(pinned)
			if err != nil {
				t.Fatal(err)
			}
			imageDigest(h, mapped)
		}
		merged, err := Compile(set.Tables, 28)
		if err != nil {
			t.Fatal(err)
		}
		imageDigest(h, merged)
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.want {
			t.Errorf("seed %d: digest %s, want %s", c.seed, got, c.want)
		}
	}
}

// mergedImage compiles a K-network merged image, whose leaves carry K-wide
// NHI vectors packed back to back in the image's next-hop slab.
func mergedImage(t *testing.T, k, prefixes int, seed int64) *Image {
	t.Helper()
	set, err := rib.GenerateVirtualSet(k, prefixes, 0.5, seed)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Compile(set.Tables, 28)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// leaves lists the coordinates of every leaf entry in layout order, which is
// also the order their NHI vectors sit in the slab.
func leaves(img *Image) (stages []int, indices []uint32) {
	for s, entries := range allEntries(img) {
		for i := range entries {
			if entries[i].Leaf {
				stages = append(stages, s)
				indices = append(indices, uint32(i))
			}
		}
	}
	return stages, indices
}

// snapshotNHI copies every entry's NHI vector out of the image.
func snapshotNHI(img *Image) [][][]ip.NextHop {
	out := make([][][]ip.NextHop, img.Stages())
	for s, entries := range allEntries(img) {
		out[s] = make([][]ip.NextHop, len(entries))
		for i := range entries {
			out[s][i] = append([]ip.NextHop(nil), entries[i].NHI...)
		}
	}
	return out
}

// Every leaf's NHI is a view of one shared slab. The view's capacity ends
// where the next leaf's begins, so neither a bit flip nor an append through
// one leaf can reach a neighbour, a clone, or the image a clone came from.
func TestSlabNeverAliasesNeighbours(t *testing.T) {
	for _, k := range []int{1, 4} {
		orig := mergedImage(t, k, 300, 5)
		clone := orig.Clone()
		if !reflect.DeepEqual(allEntries(orig), allEntries(clone)) {
			t.Fatalf("K=%d: clone differs from its source", k)
		}
		pristine := snapshotNHI(orig)

		ls, li := leaves(clone)
		if len(ls) < 3 {
			t.Fatalf("K=%d: only %d leaves", k, len(ls))
		}
		for n := range ls {
			e := clone.Entry(ls[n], li[n])
			if len(e.NHI) != k || cap(e.NHI) != k {
				t.Fatalf("K=%d: leaf %d NHI len %d cap %d, want both %d", k, n, len(e.NHI), cap(e.NHI), k)
			}
		}

		// Flip every bit of a leaf of the clone, one leaf at a time: only that
		// leaf's vector may change, and the source image never does. The first
		// leaves in layout order cover stage-interior and stage-boundary
		// neighbours.
		for n := range ls[:min(len(ls), 64)] {
			before := snapshotNHI(clone)
			for bit := 0; bit < 8*k; bit++ {
				if !clone.FlipBit(ls[n], li[n], bit) {
					t.Fatalf("K=%d: FlipBit(%d,%d,%d) refused", k, ls[n], li[n], bit)
				}
			}
			after := snapshotNHI(clone)
			for s := range after {
				for i := range after[s] {
					same := reflect.DeepEqual(before[s][i], after[s][i])
					target := s == ls[n] && uint32(i) == li[n]
					if target == same {
						t.Fatalf("K=%d: flipping leaf (%d,%d): entry (%d,%d) changed=%v", k, ls[n], li[n], s, i, !same)
					}
				}
			}
		}
		if !reflect.DeepEqual(snapshotNHI(orig), pristine) {
			t.Fatalf("K=%d: flips in a clone reached the image it was cloned from", k)
		}

		// An append through one leaf's view reallocates instead of growing
		// into the next leaf's words.
		fresh := orig.Clone()
		for n := range ls {
			e := fresh.Entry(ls[n], li[n])
			grown := append(e.NHI, 0xFF)
			grown[0] ^= 0x55
		}
		if !reflect.DeepEqual(snapshotNHI(fresh), pristine) {
			t.Fatalf("K=%d: append through a leaf view wrote into the slab", k)
		}
		if !reflect.DeepEqual(snapshotNHI(orig), pristine) {
			t.Fatalf("K=%d: append through a clone's leaf view reached the source", k)
		}
	}
}

// A clone of a clone, and a clone taken after its source was corrupted, are
// independent of both ancestors.
func TestCloneChainIndependent(t *testing.T) {
	a := mergedImage(t, 3, 200, 9)
	b := a.Clone()
	ls, li := leaves(b)
	b.FlipBit(ls[0], li[0], 3)
	c := b.Clone()
	if !reflect.DeepEqual(allEntries(b), allEntries(c)) {
		t.Fatal("clone of a corrupted image differs from it")
	}
	c.FlipBit(ls[0], li[0], 3) // heals c's data, leaves b corrupted
	if s, _ := a.Corrupted(); len(s) != 0 {
		t.Errorf("source corrupted through its clone: %d words", len(s))
	}
	if s, _ := b.Corrupted(); len(s) != 1 {
		t.Errorf("b has %d corrupted words, want 1", len(s))
	}
	if s, _ := c.Corrupted(); len(s) != 0 {
		t.Errorf("c has %d corrupted words after the healing flip, want 0", len(s))
	}
}

// A pristine image is read by many at once — sweep workers cloning it,
// engines serving its words in place (there is no copy under them to take
// a write), audits, Flatten — while each clone is written by its one owner.
// All of them must only read the source's words; the one write to the source
// is the shared mark each Clone sets, which is atomic (run under -race).
func TestConcurrentClonesOfSharedImage(t *testing.T) {
	shared := mergedImage(t, 2, 300, 11)
	want := snapshotNHI(shared)
	ls, li := leaves(shared)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				c := shared.Clone()
				n := (w*8 + i) % len(ls)
				c.FlipBit(ls[n], li[n], i)
				if s, _ := c.Corrupted(); len(s) != 1 {
					t.Errorf("worker %d: clone has %d corrupted words, want 1", w, len(s))
				}
				Lookup(shared, Request{Addr: ip.Addr(uint32(w)<<28 | uint32(i)<<20), VN: i % 2})
			}
			reqs := randReqs(rand.New(rand.NewSource(int64(w))), 600, 2, 37)
			eng := NewBatchSim(shared)
			eng.EnableParityCheck()
			if st, err := eng.RunSharded(len(reqs), 2, fillFrom(reqs), func(int, int, []Result) {}); err != nil || st.Faults != 0 {
				t.Errorf("worker %d: sharded run over the shared image: %d faults, err %v", w, st.Faults, err)
			}
			for _, r := range reqs[:40] {
				eng.Inject(r, 0)
			}
			eng.Drain(nil)
			if res := AuditImage(shared, []Probe{{Addr: reqs[0].Addr, VN: reqs[0].VN, Want: Lookup(shared, reqs[0])}}); !res.Clean() {
				t.Errorf("worker %d: audit of the shared image: %+v", w, res)
			}
			if !Flatten(shared).Equal(shared) {
				t.Errorf("worker %d: Flatten of the shared image differs from it", w)
			}
		}(w)
	}
	wg.Wait()
	if s, _ := shared.Corrupted(); len(s) != 0 || !reflect.DeepEqual(snapshotNHI(shared), want) {
		t.Fatal("concurrent clones wrote to the shared image")
	}
}
