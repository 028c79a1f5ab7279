package pipeline

import (
	"reflect"
	"slices"
	"testing"

	"vrpower/internal/trie"
)

// wordPass sizes img's stage memories by walking every word: two PtrBits
// pointers an internal node, a K-wide NHI vector a leaf (whatever the
// vector's stored length). It is the oracle the per-level counts
// (Image.Levels) are held to; core prices images from those.
func wordPass(l MemLayout, img *Image) (stages []int64, ptr, nhi int64) {
	stages = make([]int64, img.Stages())
	for s := range stages {
		for _, m := range img.stages[s].meta {
			if m&metaLeaf == 0 {
				stages[s] += 2 * int64(l.PtrBits)
				ptr += 2 * int64(l.PtrBits)
			} else {
				stages[s] += int64(img.K) * int64(l.NHIBits)
				nhi += int64(img.K) * int64(l.NHIBits)
			}
		}
	}
	return stages, ptr, nhi
}

// stageBitsOf is img's per-stage memory under DefaultLayout.
func stageBitsOf(img *Image) []int64 {
	bits, _, _ := wordPass(DefaultLayout(), img)
	return bits
}

// levelPass is wordPass from img.Levels through img.Map: what core computes.
func levelPass(l MemLayout, img *Image) (stages []int64, ptr, nhi int64) {
	stages = make([]int64, img.Map.Stages)
	for lv, c := range img.Levels {
		p := int64(c.Internal) * 2 * int64(l.PtrBits)
		n := int64(c.Leaves) * int64(img.K) * int64(l.NHIBits)
		stages[img.Map.Stage(lv)] += p + n
		ptr, nhi = ptr+p, nhi+n
	}
	return stages, ptr, nhi
}

// TestLevelsMatchWordPass: an image's per-level counts, laid out by its map,
// size every stage as the word pass does — as compiled (uni-bit and merged,
// plain, folded and balanced maps), cloned, struck by upsets (which change no
// entry's kind or level) and spliced — and the counts are consistent: every
// level's nodes are its internal nodes plus its leaves.
func TestLevelsMatchWordPass(t *testing.T) {
	l := MemLayout{PtrBits: 13, NHIBits: 5} // not the default: the widths must come from the layout
	check := func(name string, img *Image) {
		t.Helper()
		ws, wp, wn := wordPass(l, img)
		ls, lp, ln := levelPass(l, img)
		if !slices.Equal(ws, ls) || wp != lp || wn != ln {
			t.Errorf("%s: word pass %v (%d+%d), counts %v (%d+%d)", name, ws, wp, wn, ls, lp, ln)
		}
		for lv, c := range img.Levels {
			if c.Nodes != c.Internal+c.Leaves {
				t.Errorf("%s: level %d counts %+v", name, lv, c)
			}
		}
	}
	fixtures := jumpFixtures(t)
	for _, fx := range fixtures {
		check(fx.name, fx.img)
		clone := fx.img.Clone()
		check(fx.name+"/clone", clone)
		for i := 0; i < 64; i++ {
			s := i % clone.Stages()
			if n := clone.StageLen(s); n > 0 {
				clone.FlipBit(s, uint32(i*7919%n), i)
			}
		}
		check(fx.name+"/flipped", clone)
		if !reflect.DeepEqual(clone.Levels, fx.img.Levels) {
			t.Errorf("%s: upsets moved the counts", fx.name)
		}
	}
	oldTbl, newTbl := genTables(t)
	tail, head := compilePinned(t, oldTbl), compilePinned(t, newTbl)
	for _, n := range []int{0, 1, tail.Stages() / 2, tail.Stages()} {
		check("splice", Splice(head, tail, n))
	}
}

func TestMemLayoutStageBits(t *testing.T) {
	tbl := genTable(t, 500, 16)
	img := compileSingle(t, tbl, 28)
	all, ptr, nhi := wordPass(DefaultLayout(), img)
	if len(all) != 28 {
		t.Fatalf("%d stages, want 28", len(all))
	}
	var sum int64
	for _, b := range all {
		sum += b
	}
	if ptr+nhi != sum {
		t.Errorf("pointer %d + NHI %d != total %d", ptr, nhi, sum)
	}
	// Cross-check against trie shape: internal nodes cost 2x18b, leaves 8b.
	tr := trie.Build(tbl.Routes)
	tr.LeafPush()
	st := tr.Stats()
	if want := int64(st.Internal) * 36; ptr != want {
		t.Errorf("pointer bits = %d, want %d", ptr, want)
	}
	if want := int64(st.Leaves) * 8; nhi != want {
		t.Errorf("NHI bits = %d, want %d", nhi, want)
	}
	if !reflect.DeepEqual(img.Levels, st.PerLevel) {
		t.Errorf("image counts %v, the trie's %v", img.Levels, st.PerLevel)
	}
}
