// Integration tests over the public facade: every deliverable exercised
// end-to-end the way a downstream user would drive it.
package vrpower_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"vrpower"
	"vrpower/internal/ip"
	"vrpower/internal/rib"
)

func testTables(t *testing.T, k, n int, share float64, seed int64) []*vrpower.Table {
	t.Helper()
	set, err := vrpower.GenerateVirtualSet(k, n, share, seed)
	if err != nil {
		t.Fatal(err)
	}
	return set.Tables
}

func TestFacadeQuickstartFlow(t *testing.T) {
	tables := testTables(t, 4, 500, 0.5, 1)
	r, err := vrpower.Build(vrpower.Config{
		Scheme: vrpower.VS, K: 4, Grade: vrpower.Grade2, ClockGating: true,
	}, tables)
	if err != nil {
		t.Fatal(err)
	}
	model, err := r.ModelPower()
	if err != nil {
		t.Fatal(err)
	}
	measured, err := r.MeasuredPower(vrpower.NewAnalyzer())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vrpower.PercentError(model.Total(), measured.Total())) > 3 {
		t.Errorf("facade model error %.2f%% outside the paper's ±3%%",
			vrpower.PercentError(model.Total(), measured.Total()))
	}
	if r.ThroughputGbps() <= 0 || r.Fmax() <= 0 {
		t.Error("throughput/fmax not populated")
	}

	gen, err := vrpower.NewTraffic(vrpower.TrafficConfig{
		K: 4, Seed: 2, Addr: vrpower.RoutedAddr, Tables: tables,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := vrpower.NewForwarding(r, tables)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Forward(gen.Batch(2000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 {
		t.Errorf("%d forwarding mismatches through the facade", rep.Mismatches)
	}
}

func TestFacadeTableSerialisation(t *testing.T) {
	tbl, err := vrpower.Generate("t", 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := rib.Read("t", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tbl.Len() {
		t.Errorf("round trip %d != %d", back.Len(), tbl.Len())
	}
}

func TestFacadeAnalyticAndMemory(t *testing.T) {
	prof, err := vrpower.PaperProfile()
	if err != nil {
		t.Fatal(err)
	}
	r, err := vrpower.BuildAnalytic(vrpower.Config{
		Scheme: vrpower.VM, K: 8, ClockGating: true,
	}, prof, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r.PointerBits() <= 0 || r.NHIBits() <= 0 {
		t.Error("analytic memory split missing")
	}
	ptr, nhi, err := vrpower.MemoryDemand(vrpower.Config{Scheme: vrpower.VM, K: 8}, prof, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if ptr <= 0 || nhi <= 0 {
		t.Error("MemoryDemand returned zeros")
	}
	if got := vrpower.AnalyticMergedNodes(8, 1000, 1); got != 1000 {
		t.Errorf("AnalyticMergedNodes(α=1) = %g, want 1000", got)
	}
}

func TestFacadePowerPrimitives(t *testing.T) {
	if vrpower.StaticWatts(vrpower.Grade2) != 4.5 {
		t.Error("StaticWatts(-2) != 4.5")
	}
	w := vrpower.BRAMWatts(vrpower.Grade2, vrpower.BRAM18Mode, 1, 300)
	if math.Abs(w-13.65*300e-6) > 1e-12 {
		t.Errorf("BRAMWatts = %g", w)
	}
	if vrpower.MilliwattsPerGbps(1, 10) != 100 {
		t.Error("MilliwattsPerGbps wrong")
	}
	if len(vrpower.Schemes()) != 3 {
		t.Error("enumerations wrong")
	}
	if vrpower.XC6VLX760().IOPins != 1200 {
		t.Error("device wrong")
	}
}

func TestFacadeTrieAndMerge(t *testing.T) {
	tables := testTables(t, 3, 200, 0.6, 4)
	tr := vrpower.BuildTrie(tables[0].Routes)
	ref := tables[0].Reference()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		addr := ip.Addr(rng.Uint32())
		if tr.Lookup(addr) != ref.Lookup(addr) {
			t.Fatal("facade trie lookup mismatch")
		}
	}
	m, err := vrpower.MergeTables(tables)
	if err != nil {
		t.Fatal(err)
	}
	if a := m.Stats().Alpha; a <= 0 || a > 1 {
		t.Errorf("merged α = %g", a)
	}
}

func TestFacadeLifecycleAndChurn(t *testing.T) {
	tables := testTables(t, 2, 300, 0.5, 10)
	mgr, err := vrpower.NewManager(vrpower.Config{
		Scheme: vrpower.VM, ClockGating: true,
	}, tables)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := vrpower.Generate("extra", 300, 11)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := mgr.AddNetwork(extra)
	if err != nil {
		t.Fatal(err)
	}
	if ev.K != 3 {
		t.Errorf("K after add = %d", ev.K)
	}
	ops, err := vrpower.GenerateChurn(mgr.Tables()[0], 20, 12)
	if err != nil {
		t.Fatal(err)
	}
	ev, err = mgr.ApplyUpdates(0, ops)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Writes <= 0 {
		t.Error("update writes missing")
	}
}

func TestFacadeScenarioLoad(t *testing.T) {
	tables := testTables(t, 3, 250, 0.3, 20)
	r, err := vrpower.Build(vrpower.Config{Scheme: vrpower.VM, K: 3, ClockGating: true}, tables)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := vrpower.NewForwarding(r, tables)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := vrpower.NewTraffic(vrpower.TrafficConfig{K: 3, Seed: 22, Addr: vrpower.RoutedAddr, Tables: tables})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := vrpower.ParseScenario("load=const:0.1,cycles=5000,queue=32")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunScenario(gen, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeliveredFraction() < 0.99 {
		t.Errorf("light-load delivered %.3f", rep.DeliveredFraction())
	}
}

// Every name the facade exports has a caller outside this file: an example,
// the README or another root test. A name only this file reaches belongs in
// its internal package, not here.
func TestFacadeNamesHaveCallers(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "vrpower.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names = append(names, n.Name)
					}
				}
			}
		}
	}
	callers := []string{"README.md"}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tests {
		if p != "vrpower_test.go" {
			callers = append(callers, p)
		}
	}
	err = filepath.WalkDir("examples", func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			callers = append(callers, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for _, p := range callers {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		text.Write(b)
	}
	for _, n := range names {
		if !ast.IsExported(n) {
			continue
		}
		if !regexp.MustCompile(`\bvrpower\.` + n + `\b`).MatchString(text.String()) {
			t.Errorf("facade name %s has no caller in examples/, README.md or a root test", n)
		}
	}
	if len(names) == 0 {
		t.Error("no names parsed from vrpower.go")
	}
}
