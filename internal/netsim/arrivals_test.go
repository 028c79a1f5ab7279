package netsim

import (
	"fmt"
	"slices"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/ip"
	"vrpower/internal/obs"
	"vrpower/internal/scenario"
	"vrpower/internal/traffic"
)

// positionalAddr is the address network vn's packet arriving at cycle cyc
// carries under spec at traffic seed genSeed, drawn on its own.
func positionalAddr(t *testing.T, s *System, genSeed int64, spec scenario.Spec, vn int, cyc int64) (string, bool) {
	t.Helper()
	g := faultGen(t, s, genSeed)
	w := g.NewWindow(1)
	g.Fill(w, cyc, 1, func(c int64) float64 { return spec.Load.At(c, spec.Cycles) })
	a, ok := arrival(w, vn, cyc)
	return a.String(), ok
}

// TestArrivalsIgnoreSliceAndTracing: an arrival and its address are
// functions of (traffic seed, network, cycle). On a merged engine that
// overflows its queues, the offered, delivered and dropped counts and every
// lookup's traced address are the same at slice=256, 1024 and 4096, each
// traced address is the one drawn for its (network, arrival cycle) alone,
// and a traced run's report is an untraced one's.
func TestArrivalsIgnoreSliceAndTracing(t *testing.T) {
	const k, genSeed = 3, 31
	s, _ := buildSystem(t, core.VM, k)
	type lookup struct {
		seq     int64
		addr    string
		outcome string
	}
	var want []lookup
	var wantRep ScenarioReport
	for _, slice := range []int{256, 1024, 4096} {
		spec := mustParse(t, fmt.Sprintf("load=surge:0.3:0.5,cycles=8192,queue=8,slice=%d", slice))
		bare := dumpJSON(t, runSpec(t, s, genSeed, spec.Raw))
		tel := &Telemetry{Sampler: obs.NewTraceSampler(1, 1), Traces: obs.NewTraceRing(1 << 15)}
		s.SetTelemetry(tel)
		rep := runSpec(t, s, genSeed, spec.Raw)
		s.SetTelemetry(nil)
		if traced := dumpJSON(t, rep); traced != bare {
			t.Fatalf("slice=%d: tracing changed the report:\nbare:   %s\ntraced: %s", slice, bare, traced)
		}
		var got []lookup
		for _, ft := range tel.Traces.Snapshot() {
			got = append(got, lookup{ft.Seq, ft.Addr, ft.Outcome})
		}
		slices.SortFunc(got, func(a, b lookup) int { return int(a.seq - b.seq) })
		if want == nil {
			want, wantRep = got, rep
			if rep.DroppedPerVN[0] == 0 || len(got) < 4096 {
				t.Fatalf("%d traces and %v drops: the run neither overflows nor traces enough", len(got), rep.DroppedPerVN)
			}
			for i := 0; i < len(got); i += 97 {
				vn, cyc := int(got[i].seq%k), got[i].seq/k
				if a, ok := positionalAddr(t, s, genSeed, spec, vn, cyc); !ok || a != got[i].addr {
					t.Fatalf("trace seq %d carries %s; network %d's draw at cycle %d is %s (arrived %v)", got[i].seq, got[i].addr, vn, cyc, a, ok)
				}
			}
			continue
		}
		for _, c := range []struct {
			name      string
			got, want []int64
		}{{"offered", rep.OfferedPerVN, wantRep.OfferedPerVN}, {"delivered", rep.DeliveredPerVN, wantRep.DeliveredPerVN}, {"dropped", rep.DroppedPerVN, wantRep.DroppedPerVN}} {
			if !slices.Equal(c.got, c.want) {
				t.Errorf("slice=%d: %s per network %v, at slice=256 %v", slice, c.name, c.got, c.want)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("slice=%d: the traced lookups differ from slice=256's (%d vs %d traces)", slice, len(got), len(want))
		}
	}
}

// TestDropTraceNamesThePacket: an arrival refused at a down engine is traced
// with its destination address, the one drawn for its (network, cycle).
func TestDropTraceNamesThePacket(t *testing.T) {
	const genSeed = 17
	s, _ := buildSystem(t, core.VS, 2)
	spec := mustParse(t, "load=const:0.5,kill=0@2000,cycles=8192,seed=3")
	tel := &Telemetry{Sampler: obs.NewTraceSampler(1, 1), Traces: obs.NewTraceRing(1 << 15)}
	s.SetTelemetry(tel)
	defer s.SetTelemetry(nil)
	if _, err := s.RunScenario(faultGen(t, s, genSeed), spec); err != nil {
		t.Fatal(err)
	}
	drops := 0
	for _, ft := range tel.Traces.Snapshot() {
		if ft.Outcome != "drop-down" {
			continue
		}
		drops++
		if a, ok := positionalAddr(t, s, genSeed, spec, ft.VN, ft.Enter); !ok || ft.Addr != a {
			t.Fatalf("drop trace seq %d carries address %q, want network %d's draw at cycle %d, %s", ft.Seq, ft.Addr, ft.VN, ft.Enter, a)
		}
	}
	if drops == 0 {
		t.Fatal("the kill refused no traced arrival")
	}
}

// arrival reads network vn's arrival at cycle cyc off w: whether it offers a
// packet, and the packet's address.
func arrival(w *traffic.Window, vn int, cyc int64) (ip.Addr, bool) {
	if w.Arrivals(cyc)[vn>>6]>>(vn&63)&1 == 0 {
		return 0, false
	}
	return w.Addr(vn, cyc), true
}
