package ctrl

// Tests of the image-ownership rule (DESIGN.md, "Image ownership: compile
// once, serve clones"): the manager's image of a table set is always what a
// fresh compile of those tables would be, whatever the data plane does to
// the copies it was handed.

import (
	"math/rand"
	"reflect"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/pipeline"
)

// vandalize flips one bit in every stage of img that has an entry: what a
// data plane under SEU fire does to the copy it serves.
func vandalize(img *pipeline.Image) {
	for s := 0; s < img.Stages(); s++ {
		if n := img.StageLen(s); n > 0 {
			img.FlipBit(s, uint32(n-1), 3)
		}
	}
}

// freshImages compiles the manager's live tables from scratch under an
// identical pinned stage map, through a second manager.
func freshImages(t *testing.T, m *Manager) []*pipeline.Image {
	t.Helper()
	f, err := New(m.cfg, m.Tables())
	if err != nil {
		t.Fatal(err)
	}
	return f.pinned
}

func sameImages(a, b []*pipeline.Image) bool {
	if len(a) != len(b) {
		return false
	}
	for e := range a {
		if !a[e].Equal(b[e]) {
			return false
		}
	}
	return true
}

// The regression the served-clone rule closes: Commit used to store the very
// image the data plane serves as the manager's, so an upset in the live
// engine also corrupted the control plane's copy — and every diff base and
// scrub taken from it afterwards.
func TestHitlessCommitDoesNotAliasServedImage(t *testing.T) {
	for _, scheme := range []core.Scheme{core.VS, core.VM} {
		m, err := New(core.Config{Scheme: scheme, ClockGating: true}, genTables(t, 3, 300, 61))
		if err != nil {
			t.Fatal(err)
		}
		h, err := m.BeginHitlessUpdate(1, churnOps(t, m, 1, 40, 62))
		if err != nil {
			t.Fatal(err)
		}
		served, e := h.Image(), h.Engine()
		if _, err := h.Commit(); err != nil {
			t.Fatal(err)
		}
		// SEUs land in the image the engine now reads.
		vandalize(served)
		if s, _ := served.Corrupted(); len(s) == 0 {
			t.Fatalf("%s: could not corrupt the served image", scheme)
		}
		if s, _ := m.Router().Images()[e].Corrupted(); len(s) != 0 {
			t.Fatalf("%s: %d upsets in the served image reached the manager's", scheme, len(s))
		}

		// The next batch diffs against a clean base: same write set as a
		// manager that compiled the committed tables from scratch.
		fresh, err := New(m.cfg, m.Tables())
		if err != nil {
			t.Fatal(err)
		}
		ops := churnOps(t, m, 1, 40, 63)
		h2, err := m.BeginHitlessUpdate(1, ops)
		if err != nil {
			t.Fatal(err)
		}
		f2, err := fresh.BeginHitlessUpdate(1, ops)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(h2.writes, f2.writes) || h2.Bubbles() != f2.Bubbles() {
			t.Fatalf("%s: diff after a corrupted serve: %d writes / %d bubbles, fresh compile %d / %d",
				scheme, h2.Writes(), h2.Bubbles(), f2.Writes(), f2.Bubbles())
		}
		if !sameImages([]*pipeline.Image{h2.Image()}, []*pipeline.Image{f2.Image()}) {
			t.Fatalf("%s: post-update image differs from the fresh manager's", scheme)
		}
	}
}

// After any sequence of lifecycle operations — with every image the manager
// hands out vandalized by its receiver — the manager's images equal a
// from-scratch compile of its tables, what it hands out is clean and no write
// to it shows in a second hand-out, and it holds exactly one image per
// engine (nothing left behind by aborted or failed operations).
func TestPinnedImagesStayCoherent(t *testing.T) {
	for _, scheme := range []core.Scheme{core.VS, core.VM} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m, err := New(core.Config{Scheme: scheme, ClockGating: true}, genTables(t, 3, 80, 70+seed))
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 30; step++ {
				vn := rng.Intn(m.K())
				opSeed := seed*1000 + int64(step)
				var op string
				switch rng.Intn(6) {
				case 0:
					op = "hitless-commit"
					h, err := m.BeginHitlessUpdate(vn, churnOps(t, m, vn, 12, opSeed))
					if err != nil {
						t.Fatal(err)
					}
					vandalize(h.Image())
					if _, err := h.Commit(); err != nil {
						t.Fatal(err)
					}
				case 1:
					op = "hitless-abort"
					h, err := m.BeginHitlessUpdate(vn, churnOps(t, m, vn, 12, opSeed))
					if err != nil {
						t.Fatal(err)
					}
					vandalize(h.Image())
					h.Abort()
				case 2:
					op = "apply"
					if _, err := m.ApplyUpdates(vn, churnOps(t, m, vn, 12, opSeed)); err != nil {
						t.Fatal(err)
					}
				case 3:
					op = "add"
					if m.K() >= 5 {
						continue
					}
					if _, err := m.AddNetwork(genTable(t, 80, opSeed)); err != nil {
						t.Fatal(err)
					}
				case 4:
					op = "remove"
					if m.K() <= 1 {
						continue
					}
					if _, err := m.RemoveNetwork(vn); err != nil {
						t.Fatal(err)
					}
				case 5:
					op = "scrub"
					img, err := Scrub(func() (*pipeline.Image, error) { return m.PinnedImage(m.engineOf(vn)) })
					if err != nil {
						t.Fatal(err)
					}
					vandalize(img)
				}

				engines := m.K()
				if scheme == core.VM {
					engines = 1
				}
				if len(m.pinned) != engines || len(m.Router().Images()) != engines {
					t.Fatalf("%s seed %d step %d (%s): manager holds %d images, router %d, want %d",
						scheme, seed, step, op, len(m.pinned), len(m.Router().Images()), engines)
				}
				want := freshImages(t, m)
				a, err := m.PinnedImages()
				if err != nil {
					t.Fatal(err)
				}
				if !sameImages(a, want) || !sameImages(m.Router().Images(), want) {
					t.Fatalf("%s seed %d step %d (%s): manager's images differ from a fresh compile of its tables", scheme, seed, step, op)
				}
				for e := range a {
					vandalize(a[e])
				}
				b, err := m.PinnedImages()
				if err != nil {
					t.Fatal(err)
				}
				if !sameImages(b, want) {
					t.Fatalf("%s seed %d step %d (%s): writes to one PinnedImages() result show in the next", scheme, seed, step, op)
				}
			}
		}
	}
}
