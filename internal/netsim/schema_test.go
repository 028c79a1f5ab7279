package netsim

// make schema-check: the keys and columns of every file a run emits, held to
// a checked-in manifest under the schema version the files state.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vrpower/internal/obs"
)

var updateSchema = flag.Bool("update-schema", false, "rewrite testdata/schema.manifest after raising obs.SchemaVersion")

// TestSchemaManifest reads the keys and columns of each surface — the report
// JSON (a Forward run's and the scenario runs'), the series CSV, the events
// JSONL (each event's keys) and the traces JSONL — off the equivalence
// goldens' runs, and requires them to be testdata/schema.manifest's, which
// lists them under obs.SchemaVersion. Every file must state that version.
// A key or column that changes while the version stays fails, and
// -update-schema refuses to record it; raise obs.SchemaVersion, then
// regenerate:
//
//	go test ./internal/netsim -run TestSchemaManifest -update-schema
func TestSchemaManifest(t *testing.T) {
	keys := map[string]bool{}
	for _, c := range equivalenceCases() {
		tel := testTelemetry(0.05, 99)
		var rep any
		if err := json.Unmarshal([]byte(c.run(t, tel)), &rep); err != nil {
			t.Fatal(err)
		}
		surface := "report"
		if !strings.HasPrefix(c.name, "scenario_") {
			surface = "forward"
		}
		if v := rep.(map[string]any)["Schema"]; v != float64(obs.SchemaVersion) {
			t.Errorf("%s: the report states schema %v, want %d", c.name, v, obs.SchemaVersion)
		}
		jsonKeys(keys, surface+" ", rep)

		traces, series, events := dumps(t, tel)
		for name, dump := range map[string]string{"traces": traces, "series": series, "events": events} {
			want := fmt.Sprintf(`{"schema":%d}`, obs.SchemaVersion)
			if name == "series" {
				want = fmt.Sprintf("# schema %d", obs.SchemaVersion)
			}
			lines := strings.Split(strings.TrimSuffix(dump, "\n"), "\n")
			if lines[0] != want {
				t.Errorf("%s: %s starts %q, want %q", c.name, name, lines[0], want)
			}
			for i, line := range lines[1:] {
				switch {
				case name == "series":
					if i == 0 {
						for _, col := range strings.Split(line, ",") {
							keys["series "+col] = true
						}
					}
				default:
					var v map[string]any
					if err := json.Unmarshal([]byte(line), &v); err != nil {
						t.Fatalf("%s: %s line %d: %v", c.name, name, i+2, err)
					}
					if name == "traces" {
						jsonKeys(keys, "trace ", v)
						continue
					}
					var ks []string
					for k := range v {
						if k != "cycle" && k != "level" && k != "event" {
							ks = append(ks, k)
						}
					}
					slices.Sort(ks)
					keys[fmt.Sprintf("event %s: %s", v["event"], strings.Join(ks, " "))] = true
				}
			}
		}
	}
	lines := sortedKeys(keys)
	got := fmt.Sprintf("schema %d\n%s\n", obs.SchemaVersion, strings.Join(lines, "\n"))

	path := filepath.Join("testdata", "schema.manifest")
	raw, err := os.ReadFile(path)
	if err != nil && !*updateSchema {
		t.Fatalf("missing %s (run with -update-schema): %v", path, err)
	}
	want := string(raw)
	if got == want {
		return
	}
	version, body, _ := strings.Cut(want, "\n")
	if version == fmt.Sprintf("schema %d", obs.SchemaVersion) {
		added, removed := lineDiff(strings.Join(lines, "\n")+"\n", body)
		t.Fatalf("keys changed at schema %d: raise obs.SchemaVersion, then run with -update-schema\nadded:\n%s\nremoved:\n%s",
			obs.SchemaVersion, strings.Join(added, "\n"), strings.Join(removed, "\n"))
	}
	if !*updateSchema {
		t.Fatalf("the manifest is %s, obs.SchemaVersion %d: regenerate with -update-schema", version, obs.SchemaVersion)
	}
	if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
		t.Fatal(err)
	}
}

// jsonKeys adds the key path of every object member under v to keys, each
// prefixed: "a.b" for a member of a member, "a[].b" for one of an array's
// elements.
func jsonKeys(keys map[string]bool, prefix string, v any) {
	switch x := v.(type) {
	case map[string]any:
		for k, member := range x {
			keys[prefix+k] = true
			jsonKeys(keys, prefix+k+".", member)
		}
	case []any:
		for _, elem := range x {
			jsonKeys(keys, strings.TrimSuffix(prefix, ".")+"[].", elem)
		}
	}
}

// lineDiff returns the lines only in got and the lines only in want.
func lineDiff(got, want string) (added, removed []string) {
	set := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	g, w := set(got), set(want)
	for l := range g {
		if w[l] {
			delete(g, l)
			delete(w, l)
		}
	}
	return sortedKeys(g), sortedKeys(w)
}

// sortedKeys returns a set's members in order.
func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
