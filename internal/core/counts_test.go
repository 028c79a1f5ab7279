package core_test

// The resource function prices a design from per-level node counts; these
// tests hold it to a pass over the compiled words — what every router was
// priced from before — on the configurations the experiments and the
// equivalence goldens build, on images the control plane and the fault
// path produce, and on a configuration that does not place.

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/ctrl"
	"vrpower/internal/fpga"
	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
	"vrpower/internal/update"
)

// wordPass sizes each of img's stages by walking its entries: two pointers
// an internal node, a K-wide NHI vector a leaf.
func wordPass(l pipeline.MemLayout, img *pipeline.Image) (stages []int64, ptr, nhi int64) {
	stages = make([]int64, img.Stages())
	for s := range stages {
		for i := 0; i < img.StageLen(s); i++ {
			if img.Entry(s, uint32(i)).Leaf {
				stages[s] += int64(img.K) * int64(l.NHIBits)
				nhi += int64(img.K) * int64(l.NHIBits)
			} else {
				stages[s] += 2 * int64(l.PtrBits)
				ptr += 2 * int64(l.PtrBits)
			}
		}
	}
	return stages, ptr, nhi
}

// assertPricedByWords checks r's stage memories and Fig. 4 split against the
// word pass over images.
func assertPricedByWords(t *testing.T, name string, r *core.Router, images []*pipeline.Image) {
	t.Helper()
	engines := r.Design().Engines
	if len(engines) != len(images) {
		t.Fatalf("%s: %d engines over %d images", name, len(engines), len(images))
	}
	var ptr, nhi int64
	for e, img := range images {
		stages, p, n := wordPass(r.Config().Layout, img)
		if !slices.Equal(engines[e].StageBits, stages) {
			t.Errorf("%s: engine %d stage bits %v, the words' %v", name, e, engines[e].StageBits, stages)
		}
		ptr, nhi = ptr+p, nhi+n
	}
	if r.PointerBits() != ptr || r.NHIBits() != nhi {
		t.Errorf("%s: pointer/NHI bits %d/%d, the words' %d/%d", name, r.PointerBits(), r.NHIBits(), ptr, nhi)
	}
}

func virtualSet(t *testing.T, k, prefixes int, share float64, seed int64) []*rib.Table {
	t.Helper()
	set, err := rib.GenerateVirtualSet(k, prefixes, share, seed)
	if err != nil {
		t.Fatal(err)
	}
	return set.Tables
}

// TestCountsMatchWordPass: Build prices from the tries' counts, Assemble from
// the images'; both must size every stage and split pointer from NHI memory
// exactly as the word pass over the built images does — for the tables of
// the load sweep, the ORTC and update-cost rows and the equivalence goldens,
// under every scheme, the balanced map, a folding depth and a non-default
// layout — and Assemble over clones must price the router Build did.
func TestCountsMatchWordPass(t *testing.T) {
	ref, err := rib.Generate("reference", 3725, 1)
	if err != nil {
		t.Fatal(err)
	}
	ortc := &rib.Table{Name: "reference-ortc", Routes: trie.Compact(ref.Routes)}
	sets := map[string][]*rib.Table{
		"loadsweep": virtualSet(t, 4, 300, 0.5, 9),
		"updates":   virtualSet(t, 4, 3725, 0.5, 1),
		"equiv":     virtualSet(t, 3, 400, 0.5, 11),
		"fleet":     virtualSet(t, 4, 400, 0.5, 11),
		"ortc":      {ref, ortc},
	}
	variants := map[string]core.Config{
		"plain":    {ClockGating: true},
		"balanced": {ClockGating: true, Balanced: true},
		"folded":   {ClockGating: true, Stages: 8},
		"layout":   {ClockGating: true, Balanced: true, Layout: pipeline.MemLayout{PtrBits: 13, NHIBits: 5}},
	}
	for setName, tables := range sets {
		for vName, cfg := range variants {
			for _, sc := range core.Schemes() {
				name := fmt.Sprintf("%s/%s/%s", setName, vName, sc)
				cfg.Scheme, cfg.K = sc, len(tables)
				r, err := core.Build(cfg, tables)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				assertPricedByWords(t, name, r, r.Images())
				clones := make([]*pipeline.Image, len(r.Images()))
				for i, img := range r.Images() {
					clones[i] = img.Clone()
				}
				a, err := core.Assemble(cfg, clones)
				if err != nil {
					t.Fatalf("%s: assemble: %v", name, err)
				}
				assertPricedByWords(t, name+"/clones", a, clones)
				if !reflect.DeepEqual(a.Design(), r.Design()) || !reflect.DeepEqual(a.Placement(), r.Placement()) {
					t.Errorf("%s: Assemble over clones priced another router than Build", name)
				}
			}
		}
	}
	// The fleet's device routers: an NV device of one tenant, VS devices of
	// any tenant subset, over the per-network image memo.
	cfg := core.Config{ClockGating: true}
	images := make([]*pipeline.Image, 4)
	for vn, tbl := range sets["fleet"] {
		if images[vn], err = core.CompileTable(cfg, tbl); err != nil {
			t.Fatal(err)
		}
	}
	for _, vns := range [][]int{{2}, {0, 3}, {3, 1, 2}} {
		cfg.Scheme, cfg.K = core.VS, len(vns)
		if len(vns) == 1 {
			cfg.Scheme = core.NV
		}
		var imgs []*pipeline.Image
		for _, vn := range vns {
			imgs = append(imgs, images[vn])
		}
		r, err := core.Assemble(cfg, imgs)
		if err != nil {
			t.Fatal(err)
		}
		assertPricedByWords(t, fmt.Sprintf("fleet %v", vns), r, imgs)
	}
}

// TestControlPlaneImagesMatchWordPass: the images a manager holds after a
// reload update and a hitless-update commit, and what a scrub rebuilds —
// from the manager's pinned copy or by recompiling — are priced from their
// counts as the word pass sizes them.
func TestControlPlaneImagesMatchWordPass(t *testing.T) {
	tables := virtualSet(t, 4, 3725, 0.5, 1)
	for _, sc := range []core.Scheme{core.VS, core.VM} {
		cfg := core.Config{Scheme: sc, K: 4, ClockGating: true}
		m, err := ctrl.New(cfg, tables)
		if err != nil {
			t.Fatal(err)
		}
		churn, err := update.Churn(tables[0], 100, update.ChurnConfig{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.ApplyUpdates(0, churn); err != nil {
			t.Fatal(err)
		}
		assertPricedByWords(t, sc.String()+"/reload update", m.Router(), m.Router().Images())

		churn, err = update.Churn(m.Tables()[1], 48, update.ChurnConfig{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		h, err := m.BeginHitlessUpdate(1, churn)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Commit(); err != nil {
			t.Fatal(err)
		}
		pinned, _ := m.PinnedImages()
		rcfg := m.Router().Config()
		r, err := core.Assemble(rcfg, pinned)
		if err != nil {
			t.Fatal(err)
		}
		assertPricedByWords(t, sc.String()+"/hitless commit", r, pinned)

		scrubbed, err := ctrl.Scrub(func() (*pipeline.Image, error) { return m.PinnedImage(0) })
		if err != nil {
			t.Fatal(err)
		}
		recompiled, err := ctrl.Scrub(func() (*pipeline.Image, error) {
			if sc == core.VM {
				r, err := core.Build(cfg, tables)
				if err != nil {
					return nil, err
				}
				return r.Images()[0], nil
			}
			return core.CompileTable(cfg, tables[0])
		})
		if err != nil {
			t.Fatal(err)
		}
		for name, img := range map[string]*pipeline.Image{"scrub of the pinned image": scrubbed, "scrub by recompiling": recompiled} {
			imgs := slices.Clone(pinned)
			imgs[0] = img
			r, err := core.Assemble(rcfg, imgs)
			if err != nil {
				t.Fatal(err)
			}
			assertPricedByWords(t, sc.String()+"/"+name, r, imgs)
		}
	}
}

// TestBuildRefusesBeforeCompiling: a configuration that does not place is
// refused from its counts, with the error pricing the compiled images gives,
// and no image is compiled on the way.
func TestBuildRefusesBeforeCompiling(t *testing.T) {
	small := fpga.Family()[0]
	for _, c := range []struct {
		name   string
		cfg    core.Config
		tables []*rib.Table
	}{
		{"I/O pins", core.Config{Scheme: core.VS, K: 16}, virtualSet(t, 16, 50, 0.5, 3)},
		{"BRAM", core.Config{Scheme: core.VS, K: 8, Device: small}, virtualSet(t, 8, 3725, 0.5, 3)},
		{"merged BRAM", core.Config{Scheme: core.VM, K: 8, Device: small}, virtualSet(t, 8, 3725, 0, 3)},
	} {
		before := obs.TakeSnapshot().Counter("pipeline.images_compiled")
		_, refused := core.Build(c.cfg, c.tables)
		if n := obs.TakeSnapshot().Counter("pipeline.images_compiled") - before; n != 0 {
			t.Errorf("%s: a refused Build compiled %d images", c.name, n)
		}
		var ce *fpga.ErrCapacity
		if !errors.As(refused, &ce) {
			t.Fatalf("%s: Build error %v, want a capacity error", c.name, refused)
		}
		var images []*pipeline.Image
		if c.cfg.Scheme == core.VM {
			// The merged image as Build compiles it, on a device it fits.
			fits := c.cfg
			fits.Device = fpga.XC6VLX760()
			r, err := core.Build(fits, c.tables)
			if err != nil {
				t.Fatal(err)
			}
			images = r.Images()
		}
		for i := 0; c.cfg.Scheme != core.VM && i < c.cfg.K; i++ {
			img, err := core.CompileTable(c.cfg, c.tables[i])
			if err != nil {
				t.Fatal(err)
			}
			images = append(images, img)
		}
		if _, want := core.Assemble(c.cfg, images); want == nil || refused.Error() != want.Error() {
			t.Errorf("%s: Build refused with %v, pricing the compiled images with %v", c.name, refused, want)
		}
	}
}
