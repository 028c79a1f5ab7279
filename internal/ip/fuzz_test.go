package ip_test

import (
	"encoding/binary"
	"slices"
	"testing"

	"vrpower/internal/ip"
	"vrpower/internal/rib"
)

// fuzzOp is one 7-byte record of the fuzz input: an op selector, a prefix
// (address and raw signed length, so out-of-range lengths and host bits
// occur) and a next hop.
const fuzzOp = 7

func encodeAdds(routes []ip.Route) []byte {
	out := make([]byte, 0, fuzzOp*len(routes))
	for _, r := range routes {
		out = append(out, 0)
		out = binary.BigEndian.AppendUint32(out, uint32(r.Prefix.Addr))
		out = append(out, byte(r.Prefix.Len), byte(r.NextHop))
	}
	return out
}

// FuzzTableLookup replays an Add/Remove script on a Table and on a plain
// route list, and after every op compares Len, and Lookup with the scan of
// that list on the op's address, the edges of its prefix and one past them —
// so every edit drops the range index and the lookups behind it rebuild it
// from the table as it then is, mid-script. Then NewTable loads the script's
// Add records in one go, and must give the table their Adds alone give.
func FuzzTableLookup(f *testing.F) {
	// Seed scripts stay short (24 routes, ~250 bytes): with 64-route seeds
	// the fuzz engine spent a whole 10 s smoke minimising one input.
	for seed := int64(1); seed <= 3; seed++ {
		tbl, err := rib.Generate("seed", 24, seed)
		if err != nil {
			f.Fatal(err)
		}
		script := encodeAdds(tbl.Routes)
		// Remove every other route again, by the same records with op 1.
		for i := 0; i < len(tbl.Routes); i += 2 {
			rec := append([]byte(nil), script[i*fuzzOp:(i+1)*fuzzOp]...)
			rec[0] = 1
			script = append(script, rec...)
		}
		f.Add(script)
	}
	f.Add([]byte{0, 10, 1, 2, 3, 8, 5, 0, 10, 0, 0, 0, 40, 1, 1, 10, 0, 0, 0, 0xff, 0})
	// The range sweep's corners: a default route, a host route whose range
	// ends at 1<<32, three prefixes sharing a start address, siblings with one
	// next hop, then the covering prefixes removed from under the covered.
	f.Add([]byte{
		0, 0, 0, 0, 0, 0, 1, 0, 255, 255, 255, 255, 32, 2,
		0, 10, 0, 0, 0, 8, 3, 0, 10, 0, 0, 0, 16, 4, 0, 10, 0, 0, 0, 24, 5,
		0, 10, 128, 0, 0, 9, 3, 0, 10, 0, 0, 0, 9, 3,
		1, 10, 0, 0, 0, 8, 0, 1, 0, 0, 0, 0, 0, 0, 1, 10, 0, 0, 0, 16, 0,
	})

	f.Fuzz(func(t *testing.T, script []byte) {
		var tbl ip.Table
		var model ip.ScanModel
		var adds []ip.Route
		for ; len(script) >= fuzzOp; script = script[fuzzOp:] {
			addr := ip.Addr(binary.BigEndian.Uint32(script[1:5]))
			p := ip.Prefix{Addr: addr, Len: int(int8(script[5]))}
			if script[0]&1 == 0 {
				r := ip.Route{Prefix: p, NextHop: ip.NextHop(script[6])}
				if got, want := tbl.Add(r), model.Add(r); got != want {
					t.Fatalf("Add(%v) = %v, model says %v", p, got, want)
				}
				adds = append(adds, r)
			} else if got, want := tbl.Remove(p), model.Remove(p); got != want {
				t.Fatalf("Remove(%v) = %v, model says %v", p, got, want)
			}
			ip.CheckAgainstScan(t, &tbl, model, p, addr)
		}
		ip.CheckNewTable(t, adds)
	})
}

// FuzzLookupAll builds a table from the first input's Add/Remove records, as
// FuzzTableLookup replays them, and looks up the second input's addresses
// (four bytes each) in one LookupAll, against the scan of the same routes:
// every lane group and tail, on a table LookupAll meets unindexed.
func FuzzLookupAll(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		tbl, err := rib.Generate("seed", 24, seed)
		if err != nil {
			f.Fatal(err)
		}
		var addrs []byte
		for i, r := range tbl.Routes {
			addrs = binary.BigEndian.AppendUint32(addrs, uint32(r.Prefix.Addr)+uint32(i))
		}
		f.Add(encodeAdds(tbl.Routes), addrs)
	}
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 255, 255, 255, 255, 32, 2},
		[]byte{0, 0, 0, 0, 255, 255, 255, 255, 255, 255, 255, 254, 1, 2, 3, 4, 0, 0, 0, 1, 128, 0, 0, 0, 127, 255, 255, 255, 9, 9, 9, 9, 255, 255, 255, 255})

	f.Fuzz(func(t *testing.T, script, raw []byte) {
		var tbl ip.Table
		var model ip.ScanModel
		// FuzzTableLookup holds the two to the same verdict on every edit;
		// here only the table they end with matters.
		for ; len(script) >= fuzzOp; script = script[fuzzOp:] {
			p := ip.Prefix{Addr: ip.Addr(binary.BigEndian.Uint32(script[1:5])), Len: int(int8(script[5]))}
			if script[0]&1 == 0 {
				r := ip.Route{Prefix: p, NextHop: ip.NextHop(script[6])}
				_, _ = tbl.Add(r), model.Add(r)
			} else {
				_, _ = tbl.Remove(p), model.Remove(p)
			}
		}
		addrs := make([]ip.Addr, len(raw)/4)
		for i := range addrs {
			addrs[i] = ip.Addr(binary.BigEndian.Uint32(raw[4*i:]))
		}
		out := make([]ip.NextHop, len(addrs))
		tbl.LookupAll(addrs, out)
		for i, a := range addrs {
			if want := ip.ScanLookup(model, a); out[i] != want {
				t.Fatalf("LookupAll of %d addresses: [%d] %s -> %d, scan says %d", len(addrs), i, a, out[i], want)
			}
		}
	})
}

// routeRec is one 6-byte record of FuzzNewTable's input: an address, a raw
// signed length and a next hop.
const routeRec = 6

// FuzzNewTable loads arbitrary route lists with NewTable: out of order,
// prefixes repeated under other next hops, host bits set, lengths outside
// [0,32]. The first byte picks the list: mode 0 is the records as they come;
// mode 1 is the routes their Adds leave, in canonical order (which NewTable
// reads as they stand); mode 2 is mode 1's list with the last record
// appended raw, one violation at the end. NewTable must not panic, and must
// give the table Add builds from the same list one route at a time, and the
// scan's answer at every route's edges.
func FuzzNewTable(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		tbl, err := rib.Generate("seed", 24, seed)
		if err != nil {
			f.Fatal(err)
		}
		for mode := byte(0); mode < 3; mode++ {
			recs := []byte{mode}
			for _, r := range tbl.Routes {
				recs = binary.BigEndian.AppendUint32(recs, uint32(r.Prefix.Addr))
				recs = append(recs, byte(r.Prefix.Len), byte(r.NextHop))
			}
			f.Add(recs)
		}
	}
	// Host bits, a repeat under another hop, /0, /32 and lengths 33 and -1.
	f.Add([]byte{2, 10, 1, 2, 3, 8, 5, 10, 0, 0, 0, 8, 6, 0, 0, 0, 0, 0, 1,
		255, 255, 255, 255, 32, 2, 9, 0, 0, 0, 33, 3, 9, 0, 0, 0, 0xff, 4})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mode := data[0] % 3
		var routes []ip.Route
		var model ip.ScanModel
		for recs := data[1:]; len(recs) >= routeRec; recs = recs[routeRec:] {
			p := ip.Prefix{Addr: ip.Addr(binary.BigEndian.Uint32(recs)), Len: int(int8(recs[4]))}
			r := ip.Route{Prefix: p, NextHop: ip.NextHop(recs[5])}
			routes = append(routes, r)
			_ = model.Add(r)
		}
		if mode > 0 {
			raw := routes
			routes = slices.Clone(model)
			slices.SortFunc(routes, func(a, b ip.Route) int { return ip.Compare(a.Prefix, b.Prefix) })
			if mode == 2 && len(raw) > 0 {
				routes = append(routes, raw[len(raw)-1])
				_ = model.Add(raw[len(raw)-1])
			}
		}
		ip.CheckNewTable(t, routes)
		ip.CheckRanges(t, ip.NewTable(routes), model)
	})
}
