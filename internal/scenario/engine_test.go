package scenario

import (
	"fmt"
	"strings"
	"testing"

	"vrpower/internal/obs"
)

// logKernel records the engine's calls so tests can assert the hook order
// and slice geometry.
type logKernel struct {
	log         *[]string
	outstanding int // drain slices to request
	stats       SliceStats
}

func (k *logKernel) RunSlice(b, n int64, live bool) (SliceStats, error) {
	*k.log = append(*k.log, fmt.Sprintf("run[%d,+%d,live=%v]", b, n, live))
	if !live && k.outstanding > 0 {
		k.outstanding--
	}
	return k.stats, nil
}

func (k *logKernel) Outstanding() bool { return k.outstanding > 0 }

// logStressor records its hooks into the shared log.
type logStressor struct {
	name string
	log  *[]string
	fail bool
}

func (s *logStressor) Name() string { return s.name }
func (s *logStressor) Boundary(b int64, draining bool) error {
	*s.log = append(*s.log, fmt.Sprintf("%s.boundary[%d,drain=%v]", s.name, b, draining))
	if s.fail {
		return fmt.Errorf("boom")
	}
	return nil
}
func (s *logStressor) PreSlice(b, n int64, draining bool) error {
	*s.log = append(*s.log, fmt.Sprintf("%s.preslice[%d,+%d,drain=%v]", s.name, b, n, draining))
	return nil
}
func (s *logStressor) Outstanding() bool { return false }

func TestEngineHookOrder(t *testing.T) {
	var log []string
	k := &logKernel{log: &log, outstanding: 1}
	e := Engine{
		Cycles: 20, SliceCycles: 10, MaxDrainSlices: 4,
		Stressors: []Stressor{&logStressor{name: "a", log: &log}, &logStressor{name: "b", log: &log}},
		Kernel:    k,
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"a.boundary[0,drain=false]", "b.boundary[0,drain=false]",
		"a.preslice[0,+10,drain=false]", "b.preslice[0,+10,drain=false]",
		"run[0,+10,live=true]",
		"a.boundary[10,drain=false]", "b.boundary[10,drain=false]",
		"a.preslice[10,+10,drain=false]", "b.preslice[10,+10,drain=false]",
		"run[10,+10,live=true]",
		// One drain slice (the kernel reported outstanding work once).
		"a.boundary[20,drain=true]", "b.boundary[20,drain=true]",
		"a.preslice[20,+10,drain=true]", "b.preslice[20,+10,drain=true]",
		"run[20,+10,live=false]",
		// Final boundary after the drain loop exits.
		"a.boundary[30,drain=true]", "b.boundary[30,drain=true]",
	}
	if len(log) != len(want) {
		t.Fatalf("got %d events, want %d:\n%s", len(log), len(want), strings.Join(log, "\n"))
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("event %d = %q, want %q\nfull log:\n%s", i, log[i], want[i], strings.Join(log, "\n"))
		}
	}
	if e.TrafficCycles != 20 || e.DrainCycles != 10 {
		t.Fatalf("traffic %d drain %d, want 20/10", e.TrafficCycles, e.DrainCycles)
	}
}

func TestEngineRoundsUpToWholeSlices(t *testing.T) {
	var log []string
	k := &logKernel{log: &log}
	e := Engine{Cycles: 25, SliceCycles: 10, Kernel: k}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.TrafficCycles != 30 {
		t.Fatalf("traffic cycles %d, want 30 (rounded up)", e.TrafficCycles)
	}
	if got := (*k.log)[len(*k.log)-1]; got != "run[20,+10,live=true]" {
		t.Fatalf("last slice %q", got)
	}
}

func TestEngineDrainBound(t *testing.T) {
	var log []string
	k := &logKernel{log: &log, outstanding: 100} // never finishes on its own
	e := Engine{Cycles: 10, SliceCycles: 10, MaxDrainSlices: 3, Kernel: k}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.DrainCycles != 30 {
		t.Fatalf("drain cycles %d, want 30 (3-slice bound)", e.DrainCycles)
	}
}

func TestEngineValidation(t *testing.T) {
	var log []string
	k := &logKernel{log: &log}
	cases := []struct {
		e    Engine
		want string
	}{
		{Engine{Cycles: 0, SliceCycles: 10, Kernel: k}, "want > 0"},
		{Engine{Cycles: 10, SliceCycles: 0, Kernel: k}, "want >= 1"},
		{Engine{Cycles: 10, SliceCycles: 10}, "no kernel"},
	}
	for _, c := range cases {
		err := c.e.Run()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Run() = %v, want substring %q", err, c.want)
		}
	}
}

func TestEngineStressorErrorNamesStressor(t *testing.T) {
	var log []string
	e := Engine{
		Cycles: 10, SliceCycles: 10,
		Stressors: []Stressor{&logStressor{name: "churn", log: &log, fail: true}},
		Kernel:    &logKernel{log: &log},
	}
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "churn boundary at 0") {
		t.Fatalf("error %v, want stressor name and boundary cycle", err)
	}
}

// An ungoverned run still writes one series row per slice, in the unified
// schema the governed columns belong to.
func TestEngineSeriesAndGovernor(t *testing.T) {
	tel := &Telemetry{Series: obs.NewTimeSeries()}
	var log []string
	k := &logKernel{log: &log, stats: SliceStats{Util: []float64{0.5}}}
	e := Engine{
		Cycles: 2048, SliceCycles: 1024, K: 2, Tel: tel,
		Kernel: k,
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if rows := tel.Series.Len(); rows != 2 {
		t.Fatalf("series rows %d, want 2 (one per slice)", rows)
	}
	if cols := tel.Series.Columns(); len(cols) != len(SeriesColumns(2)) {
		t.Fatalf("series columns %v, want the unified schema %v", cols, SeriesColumns(2))
	}
}
