package hdl

import (
	"bufio"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"vrpower/internal/ip"
	"vrpower/internal/pipeline"
	"vrpower/internal/rib"
)

// compileUnfolded compiles a table with one level per stage (the RTL
// backend's requirement).
func compileUnfolded(t *testing.T, tbl *rib.Table) *pipeline.Image {
	t.Helper()
	img, err := mergeBuild([]*rib.Table{tbl})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func genTable(t *testing.T, n int, seed int64) *rib.Table {
	t.Helper()
	tbl, err := rib.Generate("t", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	img := compileUnfolded(t, genTable(t, 400, 1))
	layout := pipeline.DefaultLayout()
	for s := 0; s < img.Stages(); s++ {
		for i := 0; i < img.StageLen(s); i++ {
			e := img.Entry(s, uint32(i))
			v, err := EncodeEntry(e, img.K, layout.PtrBits, layout.NHIBits)
			if err != nil {
				t.Fatalf("stage %d entry %d: %v", s, i, err)
			}
			got := DecodeEntry(v, e.Level, img.K, layout.PtrBits, layout.NHIBits)
			if got.Leaf != e.Leaf || got.Level != e.Level {
				t.Fatalf("stage %d entry %d: flags differ", s, i)
			}
			if e.Leaf {
				for k := range e.NHI {
					if got.NHI[k] != e.NHI[k] {
						t.Fatalf("stage %d entry %d: NHI[%d] %d != %d", s, i, k, got.NHI[k], e.NHI[k])
					}
				}
			} else if got.Child != e.Child {
				t.Fatalf("stage %d entry %d: children %v != %v", s, i, got.Child, e.Child)
			}
		}
	}
}

func TestEncodeEntryErrors(t *testing.T) {
	if _, err := EncodeEntry(pipeline.Entry{}, 1, 40, 8); err == nil {
		t.Error("oversized word accepted")
	}
	if _, err := EncodeEntry(pipeline.Entry{Child: [2]uint32{1 << 20, 0}}, 1, 18, 8); err == nil {
		t.Error("oversized child index accepted")
	}
	if _, err := EncodeEntry(pipeline.Entry{Leaf: true, NHI: []ip.NextHop{300}}, 1, 18, 8); err == nil {
		t.Error("oversized next hop accepted")
	}
}

func TestEmitRejectsFoldedStages(t *testing.T) {
	tbl := genTable(t, 200, 2)
	img, err := pipeline.Compile([]*rib.Table{tbl}, 8) // forces folding
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Emit(img, pipeline.DefaultLayout(), "x", nil); err == nil {
		t.Error("folded image accepted")
	}
}

func TestEmitBundleStructure(t *testing.T) {
	img := compileUnfolded(t, genTable(t, 300, 3))
	vectors := []pipeline.Request{{Addr: 0x0A000001}, {Addr: 0xC0A80101}}
	d, err := Emit(img, pipeline.DefaultLayout(), "vrl", vectors)
	if err != nil {
		t.Fatal(err)
	}
	wantFiles := img.Stages() + 3 // .mem per stage + stage.v + top.v + tb.v
	if len(d.Files) != wantFiles {
		t.Fatalf("bundle has %d files, want %d", len(d.Files), wantFiles)
	}
	top := d.Files["vrl.v"]
	for _, want := range []string{"module vrl", "u_stage00", "out_resolved"} {
		if !strings.Contains(top, want) {
			t.Errorf("top module missing %q", want)
		}
	}
	if !strings.Contains(d.Files["vrl_stage.v"], "module vrl_stage") {
		t.Error("stage module missing")
	}
	tb := d.Files["vrl_tb.v"]
	if got := strings.Count(tb, "probe(32'h"); got != len(vectors) {
		t.Errorf("testbench has %d probes, want %d", got, len(vectors))
	}
	if !strings.Contains(tb, "PASS") {
		t.Error("testbench is not self-checking")
	}
	// Default name.
	d2, err := Emit(img, pipeline.DefaultLayout(), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Top != "vrlookup" {
		t.Errorf("default top = %q", d2.Top)
	}
	if len(d2.FileNames()) != len(d2.Files) {
		t.Error("FileNames incomplete")
	}
}

// memWalk interprets the emitted .mem files exactly as the Verilog stage
// would: fetch word, decode, consume one address bit per stage. It is the
// software twin of the RTL and must agree with the pipeline simulator.
func memWalk(t *testing.T, d *Design, img *pipeline.Image, layout pipeline.MemLayout, addr ip.Addr, vn int) ip.NextHop {
	t.Helper()
	mems := make([][]uint64, img.Stages())
	for s := range mems {
		name := ""
		for _, f := range d.FileNames() {
			if strings.HasSuffix(f, ".mem") && strings.Contains(f, stageSuffix(s)) {
				name = f
			}
		}
		if name == "" {
			t.Fatalf("no mem file for stage %d", s)
		}
		sc := bufio.NewScanner(strings.NewReader(d.Files[name]))
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "//") {
				continue
			}
			v, err := strconv.ParseUint(line, 16, 64)
			if err != nil {
				t.Fatalf("stage %d: bad mem word %q: %v", s, line, err)
			}
			mems[s] = append(mems[s], v)
		}
	}
	ptr := uint32(0)
	for s := 0; s < len(mems); s++ {
		if int(ptr) >= len(mems[s]) {
			t.Fatalf("stage %d: pointer %d out of range", s, ptr)
		}
		level := img.Entry(s, 0).Level
		e := DecodeEntry(mems[s][ptr], level, img.K, layout.PtrBits, layout.NHIBits)
		if e.Leaf {
			if vn < 0 || vn >= len(e.NHI) {
				return ip.NoRoute
			}
			return e.NHI[vn]
		}
		ptr = e.Child[addr.Bit(level)]
	}
	return ip.NoRoute
}

func stageSuffix(s int) string {
	return "stage" + pad2(s) + ".mem"
}

func pad2(n int) string {
	if n < 10 {
		return "0" + strconv.Itoa(n)
	}
	return strconv.Itoa(n)
}

// TestMemImageMatchesSimulator is the backend's defining property: walking
// the emitted memory images yields exactly the Go simulator's answers.
func TestMemImageMatchesSimulator(t *testing.T) {
	set, err := rib.GenerateVirtualSet(3, 300, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Merged engine: K-wide NHI vectors exercise the vector encoding.
	m, err := mergeBuild(set.Tables)
	if err != nil {
		t.Fatal(err)
	}
	layout := pipeline.DefaultLayout()
	d, err := Emit(m, layout, "vrl", nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	// Batch every test vector through one engine instead of building a
	// throwaway simulator per probe.
	vectors := make([]pipeline.Request, 1500)
	for i := range vectors {
		vectors[i] = pipeline.Request{Addr: ip.Addr(rng.Uint32()), VN: rng.Intn(3)}
	}
	want := pipeline.Lookups(m, vectors)
	for i, req := range vectors {
		if got := memWalk(t, d, m, layout, req.Addr, req.VN); got != want[i] {
			t.Fatalf("memWalk(%s, vn=%d) = %d, simulator says %d", req.Addr, req.VN, got, want[i])
		}
	}
}

// mergeBuild compiles a merged unfolded image.
func mergeBuild(tables []*rib.Table) (*pipeline.Image, error) {
	return pipeline.Compile(tables, len(pipeline.NewRoutes(tables).Levels))
}
