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
// order was. Each route is packed into one word, address above length above
// next hop, so the sort compares integers; a table holding a length outside
// [0,32], which no word can carry, is sorted through ip.Compare instead.
func (t *Table) Sort() {
	t.sortIn(make([]uint64, len(t.Routes)))
}

// sortIn is Sort with its words in words, which holds at least one per route.
func (t *Table) sortIn(words []uint64) {
	words = words[:len(t.Routes)]
	for i, r := range t.Routes {
		if r.Prefix.Len < 0 || r.Prefix.Len > 32 {
			slices.SortFunc(t.Routes, func(a, b ip.Route) int { return ip.Compare(a.Prefix, b.Prefix) })
			return
		}
		words[i] = uint64(r.Prefix.Addr)<<32 | uint64(r.Prefix.Len)<<16 | uint64(r.NextHop)
	}
	slices.Sort(words)
	for i, w := range words {
		t.Routes[i] = ip.Route{Prefix: ip.Prefix{Addr: ip.Addr(w >> 32), Len: int(w >> 16 & 0xFFFF)}, NextHop: ip.NextHop(w)}
	}
}

// Reference returns the reference LPM over the same routes (ip.NewTable:
// sorted arrays per prefix length and the range index its lookups search,
// built in one pass over routes in canonical order, as every generated or
// churned table's are, and from a sorted copy of any others), used as the
// correctness oracle in tests and netsim. It shares no code with the trie, merge or pipeline
// structures it checks. A route whose prefix length is out of range is left
// out, as no lookup structure can hold it either.
func (t *Table) Reference() *ip.Table {
	return ip.NewTable(t.Routes)
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
