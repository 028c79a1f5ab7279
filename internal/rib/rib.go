// Package rib implements the Routing Information Base substrate of the
// reproduction: routing tables, a synthetic BGP-like table generator that
// stands in for the Potaroo snapshots used by the paper (Section V-E), text
// serialisation, and overlap-controlled generation of K virtual-network
// tables for a target trie merging efficiency.
package rib

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"vrpower/internal/ip"
)

// Table is a named routing table for one (virtual) network.
type Table struct {
	// Name identifies the table (e.g. "vn3" or a file name).
	Name string
	// Routes holds the table's routes. Prefixes are unique.
	Routes []ip.Route
}

// Len returns the number of routes.
func (t *Table) Len() int { return len(t.Routes) }

// Add appends a route, replacing any existing route with the same prefix.
func (t *Table) Add(r ip.Route) {
	for i := range t.Routes {
		if t.Routes[i].Prefix == r.Prefix {
			t.Routes[i].NextHop = r.NextHop
			return
		}
	}
	t.Routes = append(t.Routes, r)
}

// addIndexed is Add for loops that load many routes: index maps every prefix
// already in t.Routes to its position, which replaces Add's linear duplicate
// scan.
func (t *Table) addIndexed(index map[ip.Prefix]int, r ip.Route) {
	if i, ok := index[r.Prefix]; ok {
		t.Routes[i].NextHop = r.NextHop
		return
	}
	index[r.Prefix] = len(t.Routes)
	t.Routes = append(t.Routes, r)
}

// Sort orders routes by prefix (address, then length) in place. Prefixes
// are unique, so the order is total and the result one whatever the routes'
// order was.
func (t *Table) Sort() {
	slices.SortFunc(t.Routes, func(a, b ip.Route) int { return ip.Compare(a.Prefix, b.Prefix) })
}

// Reference returns the reference LPM (ip.Table: sorted arrays per prefix
// length, searched through a range index the first Lookup derives from them)
// over the same routes, used as the correctness oracle in tests and netsim.
// It shares no code with the trie, merge or pipeline structures it checks.
// Building it is O(n log n), and so is that first Lookup; a route whose
// prefix length is out of range is left out, as no lookup structure can hold
// it either.
func (t *Table) Reference() *ip.Table {
	var ref ip.Table
	for _, r := range t.Routes {
		_ = ref.Add(r) // only ErrPrefixLen: such a route matches nothing
	}
	return &ref
}

// LengthHistogram returns counts of routes per prefix length (index 0..32).
func (t *Table) LengthHistogram() [33]int {
	var h [33]int
	for _, r := range t.Routes {
		h[r.Prefix.Len]++
	}
	return h
}

// Write serialises the table as one "prefix nexthop" pair per line.
func (t *Table) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# table %s, %d routes\n", t.Name, len(t.Routes)); err != nil {
		return err
	}
	for _, r := range t.Routes {
		if _, err := fmt.Fprintf(bw, "%s %d\n", r.Prefix, r.NextHop); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the serialisation produced by Write. Blank lines and lines
// starting with '#' are ignored.
func Read(name string, r io.Reader) (*Table, error) {
	t := &Table{Name: name}
	index := make(map[ip.Prefix]int)
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("rib: %s:%d: want \"prefix nexthop\", got %q", name, lineno, line)
		}
		p, err := ip.ParsePrefix(fields[0])
		if err != nil {
			return nil, fmt.Errorf("rib: %s:%d: %v", name, lineno, err)
		}
		nh, err := strconv.ParseUint(fields[1], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("rib: %s:%d: bad next hop %q", name, lineno, fields[1])
		}
		t.addIndexed(index, ip.Route{Prefix: p, NextHop: ip.NextHop(nh)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rib: reading %s: %v", name, err)
	}
	return t, nil
}
