package netsim

// The attribution invariant, re-asserted on every equivalence golden's
// recorded energy section: per-VNID and per-engine dynamic sums equal the
// component total, and something was metered at all.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sumInt64s totals a JSON []any of numbers decoded via json.Number.
func sumInt64s(t *testing.T, v any) int64 {
	t.Helper()
	arr, ok := v.([]any)
	if !ok {
		t.Fatalf("want JSON array, got %T", v)
	}
	var sum int64
	for _, e := range arr {
		n, err := e.(json.Number).Int64()
		if err != nil {
			t.Fatal(err)
		}
		sum += n
	}
	return sum
}

func asInt64(t *testing.T, v any) int64 {
	t.Helper()
	n, err := v.(json.Number).Int64()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestEnergyGoldensAdditive checks the recorded breakdown of every golden:
// the per-VNID and per-engine attribution axes each add up to the component
// decomposition (memory + clock + control plane).
func TestEnergyGoldensAdditive(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "equiv_*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if len(goldens) == 0 {
		t.Fatal("no equivalence goldens found")
	}
	for _, path := range goldens {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "equiv_"), ".golden")
		t.Run(name, func(t *testing.T) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			body, _, ok := strings.Cut(strings.TrimPrefix(string(b), "== report ==\n"), "\n== traces ==")
			if !ok {
				t.Fatalf("%s: no report section", path)
			}
			var rep struct{ Energy map[string]any }
			dec := json.NewDecoder(strings.NewReader(body))
			dec.UseNumber()
			if err := dec.Decode(&rep); err != nil {
				t.Fatal(err)
			}
			e := rep.Energy
			if e == nil {
				t.Fatal("report has no Energy section")
			}
			dyn := asInt64(t, e["mem_fj"]) + asInt64(t, e["clock_fj"]) + asInt64(t, e["ctrl_fj"])
			if vn := sumInt64s(t, e["vn_dyn_fj"]); vn != dyn {
				t.Errorf("ΣVN dynamic %d fJ != component total %d fJ", vn, dyn)
			}
			if eng := sumInt64s(t, e["engine_dyn_fj"]); eng != dyn {
				t.Errorf("ΣEngine dynamic %d fJ != component total %d fJ", eng, dyn)
			}
			if dyn <= 0 {
				t.Errorf("golden recorded no dynamic energy (%d fJ) — meter not wired?", dyn)
			}
		})
	}
}
