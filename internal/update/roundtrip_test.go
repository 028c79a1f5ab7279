package update

// Round-trip property test for the diff/apply pair: for any table a and any
// churn batch, materialising Diff(compile(a), compile(Apply(a, ops))) onto
// the old image must yield the new image exactly — including shrink paths,
// where the diff's clearing writes cover the truncated tail. The write set
// must also be COMPLETE (every untouched position already equal) and
// MINIMAL in range (no write past the larger stage length), or the bubble
// budget would under- or over-charge the data plane.

import (
	"slices"
	"testing"

	"vrpower/internal/pipeline"
)

// entryEqual is the definition Diff is held to: two words are the same when
// they agree in kind, level, child pointers and next-hop vector. Parity is not
// compared; it follows the data.
func entryEqual(a, b pipeline.Entry) bool {
	return a.Leaf == b.Leaf && a.Level == b.Level && a.Child == b.Child && slices.Equal(a.NHI, b.NHI)
}

// entriesOf returns the views of every entry of img, by stage.
func entriesOf(img *pipeline.Image) [][]pipeline.Entry {
	out := make([][]pipeline.Entry, img.Stages())
	for s := range out {
		out[s] = make([]pipeline.Entry, img.StageLen(s))
		for i := range out[s] {
			out[s][i] = img.Entry(s, uint32(i))
		}
	}
	return out
}

// materialize plays a write set onto the old image's words the way the data
// plane's shadow bank does: each write at (stage, index) takes the NEW image's
// word at that position; clearing writes (past the new stage's tail) truncate.
func materialize(t *testing.T, oldImg, newImg *pipeline.Image, writes []Write) *pipeline.Image {
	t.Helper()
	mem := entriesOf(oldImg.Clone())
	for s := range mem {
		// Grow to the larger length so in-range writes can land; the final
		// truncation below drops cleared tails.
		if n := newImg.StageLen(s); n > len(mem[s]) {
			mem[s] = append(mem[s], make([]pipeline.Entry, n-len(mem[s]))...)
		}
	}
	for _, w := range writes {
		if int(w.Index) < newImg.StageLen(w.Stage) {
			mem[w.Stage][w.Index] = newImg.Entry(w.Stage, w.Index)
		} else {
			// A clearing write: the position exists only in the old image.
			if int(w.Index) >= len(mem[w.Stage]) {
				t.Fatalf("write (%d,%d) past both images", w.Stage, w.Index)
			}
			mem[w.Stage][w.Index] = pipeline.Entry{}
		}
	}
	for s := range mem {
		mem[s] = mem[s][:newImg.StageLen(s)]
	}
	out, err := pipeline.NewImage(newImg.K, newImg.Map, mem)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// assertImagesEqual compares two images entry-for-entry, through their views.
func assertImagesEqual(t *testing.T, got, want *pipeline.Image, label string) {
	t.Helper()
	if got.Stages() != want.Stages() {
		t.Fatalf("%s: stage counts %d vs %d", label, got.Stages(), want.Stages())
	}
	ge, we := entriesOf(got), entriesOf(want)
	for s := range we {
		g, w := ge[s], we[s]
		if len(g) != len(w) {
			t.Fatalf("%s: stage %d lengths %d vs %d", label, s, len(g), len(w))
		}
		for i := range w {
			if !entryEqual(g[i], w[i]) {
				t.Fatalf("%s: stage %d entry %d differs: %+v vs %+v", label, s, i, g[i], w[i])
			}
		}
	}
}

// TestDiffApplyRoundTripProperty: across seeds and op mixes — including a
// withdraw-heavy mix that shrinks stages — apply(diff(a,b)) onto a is b.
func TestDiffApplyRoundTripProperty(t *testing.T) {
	mixes := []struct {
		name   string
		cfg    ChurnConfig
		nRoute int
		nOps   int
	}{
		{"default-mix", ChurnConfig{}, 300, 120},
		{"announce-heavy", ChurnConfig{AnnounceFrac: 0.8, WithdrawFrac: 0.1}, 200, 150},
		{"withdraw-heavy-shrink", ChurnConfig{AnnounceFrac: 0.05, WithdrawFrac: 0.9}, 400, 250},
		{"change-only", ChurnConfig{AnnounceFrac: 0.001, WithdrawFrac: 0.001}, 150, 80},
	}
	for _, mix := range mixes {
		t.Run(mix.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				tbl := genTable(t, mix.nRoute, seed)
				cfg := mix.cfg
				cfg.Seed = seed * 101
				ops, err := Churn(tbl, mix.nOps, cfg)
				if err != nil {
					t.Fatal(err)
				}
				after := Apply(tbl, ops)
				oldImg, newImg := compile(t, tbl), compile(t, after)
				writes, err := Diff(oldImg, newImg)
				if err != nil {
					t.Fatal(err)
				}

				// Round trip: the writes transform old into new exactly.
				got := materialize(t, oldImg, newImg, writes)
				assertImagesEqual(t, got, newImg, "materialized")

				// Completeness: every position NOT in the write set must
				// already be equal across the shared range.
				written := map[Write]bool{}
				for _, w := range writes {
					if written[w] {
						t.Fatalf("duplicate write (%d,%d)", w.Stage, w.Index)
					}
					written[w] = true
				}
				oldAll, newAll := entriesOf(oldImg), entriesOf(newImg)
				for s := range newAll {
					oldE, newE := oldAll[s], newAll[s]
					n := len(oldE)
					if len(newE) < n {
						n = len(newE)
					}
					for i := 0; i < n; i++ {
						if !written[Write{Stage: s, Index: uint32(i)}] && !entryEqual(oldE[i], newE[i]) {
							t.Fatalf("seed %d: differing entry (%d,%d) not in write set", seed, s, i)
						}
					}
				}

				// The bubble budget must cover the widest stage's writes.
				if b := widestStage(writes); len(writes) > 0 && b < 1 {
					t.Fatalf("non-empty write set with %d bubbles", b)
				}

				// Coalescing must not change the resulting table (ops to one
				// prefix supersede in order), so the same round trip holds.
				coalesced := Coalesce(ops)
				afterC := Apply(tbl, coalesced)
				imgC := compile(t, afterC)
				assertImagesEqual(t, imgC, newImg, "coalesced")
			}
		})
	}
}

// TestDiffShrinkRoundTripToEmptyStages: withdrawing down to a single route
// exercises the deepest shrink path — most stages truncate to (near) empty
// and the diff must still round-trip.
func TestDiffShrinkRoundTripToEmptyStages(t *testing.T) {
	tbl := genTable(t, 120, 9)
	var ops []Op
	for _, r := range tbl.Routes[1:] {
		ops = append(ops, Op{Kind: Withdraw, Prefix: r.Prefix})
	}
	after := Apply(tbl, ops)
	if after.Len() != 1 {
		t.Fatalf("table has %d routes after mass withdraw, want 1", after.Len())
	}
	oldImg, newImg := compile(t, tbl), compile(t, after)
	writes, err := Diff(oldImg, newImg)
	if err != nil {
		t.Fatal(err)
	}
	got := materialize(t, oldImg, newImg, writes)
	assertImagesEqual(t, got, newImg, "mass-withdraw")
}
