package ip

import (
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// checkLookupAll runs LookupAll over addrs into an out three slots longer
// and compares every answer with Lookup and with the scan; the slots past
// len(addrs) must be left alone.
func checkLookupAll(t *testing.T, name string, tbl *Table, m scanModel, addrs []Addr) {
	t.Helper()
	const untouched = NextHop(0xBEEF)
	out := make([]NextHop, len(addrs)+3)
	for i := range out {
		out[i] = untouched
	}
	tbl.LookupAll(addrs, out)
	for i, a := range addrs {
		if look, scan := tbl.Lookup(a), scanLookup(m, a); out[i] != look || out[i] != scan {
			t.Fatalf("%s: LookupAll of %d addresses: [%d] %s -> %d, Lookup says %d, scan says %d",
				name, len(addrs), i, a, out[i], look, scan)
		}
	}
	for i := len(addrs); i < len(out); i++ {
		if out[i] != untouched {
			t.Fatalf("%s: LookupAll of %d addresses wrote out[%d] = %d", name, len(addrs), i, out[i])
		}
	}
}

// LookupAll answers as Lookup and the scan do, on every batch length from 0
// to 17 — no lane group, one, two, and every tail length after them — over
// the empty table, one route, a lone /0, a lone /32 and random tables, with
// both ends of the address space in every batch it can hold them. Half the
// tables meet LookupAll before any Lookup, so it builds their index.
func TestLookupAllMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	type table struct {
		name   string
		routes []Route
	}
	tables := []table{
		{"empty", nil},
		{"one route", []Route{{MustPrefix(AddrFrom4(10, 0, 0, 0), 8), 3}}},
		{"/0", []Route{{MustPrefix(0, 0), 7}}},
		{"/32", []Route{{MustPrefix(AddrFrom4(255, 255, 255, 255), 32), 9}}},
		{"/0 under /32", []Route{{MustPrefix(0, 0), 1}, {MustPrefix(0, 32), 2}, {MustPrefix(^Addr(0), 32), 3}}},
	}
	for i := 0; i < 40; i++ {
		routes := make([]Route, 1+rng.Intn(300))
		for j := range routes {
			routes[j] = Route{MustPrefix(Addr(rng.Uint32()), rng.Intn(33)), NextHop(1 + rng.Intn(50))}
		}
		tables = append(tables, table{"random " + strconv.Itoa(i), routes})
	}
	for ti, tc := range tables {
		// Half the tables are built by Adds, so the first lookup indexes
		// them; NewTable loads the other half indexed.
		tbl := &Table{}
		var m scanModel
		for _, r := range tc.routes {
			if err := tbl.Add(r); err != nil {
				t.Fatal(err)
			}
			_ = m.Add(r)
		}
		if ti%2 == 1 {
			tbl = NewTable(tc.routes)
		}
		for n := 0; n <= 17; n++ {
			addrs := make([]Addr, n)
			for i := range addrs {
				// Inside a route half the time, anywhere else otherwise.
				addrs[i] = Addr(rng.Uint32())
				if len(m) > 0 && rng.Intn(2) == 0 {
					r := m[rng.Intn(len(m))].Prefix
					addrs[i] = r.Addr | addrs[i]&^Mask(r.Len)
				}
			}
			if n >= 2 {
				addrs[rng.Intn(n)], addrs[n-1] = 0, ^Addr(0)
			}
			checkLookupAll(t, tc.name, tbl, m, addrs)
		}
	}
}

// Eight goroutines meet a table whose index is not built, half of them
// through LookupAll and half through Lookup: each may build the index, one
// copy is published, and every answer matches the scan. Meaningful under
// -race.
func TestLookupAllFirstCallRace(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 20; iter++ {
		var tbl Table
		var m scanModel
		for i := 0; i < 200; i++ {
			r := Route{MustPrefix(Addr(rng.Uint32()), 4+rng.Intn(29)), NextHop(1 + i%16)}
			_ = tbl.Add(r)
			_ = m.Add(r)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				addrs := make([]Addr, 0, len(m)/8+1)
				for i := w; i < len(m); i += 8 {
					addrs = append(addrs, m[i].Prefix.Addr|Addr(w))
				}
				out := make([]NextHop, len(addrs))
				<-start
				if w%2 == 0 {
					tbl.LookupAll(addrs, out)
				} else {
					for i, a := range addrs {
						out[i] = tbl.Lookup(a)
					}
				}
				for i, a := range addrs {
					if want := scanLookup(m, a); out[i] != want {
						t.Errorf("worker %d: %s -> %d, scan says %d", w, a, out[i], want)
						return
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		checkRanges(t, &tbl, m)
	}
}

// The independence rule, checked on the source: no non-test file of package
// ip imports a package of this module, so the oracle can share no code with
// the structures it checks.
func TestOracleImportsOnlyStdlib(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if path == "vrpower" || strings.HasPrefix(path, "vrpower/") {
				t.Errorf("%s imports %s: the oracle must import nothing from the module", name, path)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no non-test files of package ip found")
	}
}
