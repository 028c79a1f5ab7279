package obs

// Tests for the telemetry layer added on top of the counters/histograms:
// gauges, the unified sorted report, flight tracing, time series, the event
// log, and the Prometheus exposition. Run with -race to exercise the
// concurrent paths.

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestGaugeBasics(t *testing.T) {
	reset()
	g := NewGauge("test.gauge.basics")
	if g.Value() != 0 {
		t.Fatalf("fresh gauge = %g, want 0", g.Value())
	}
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", g.Value())
	}
	g.Add(1.5)
	if g.Value() != 4 {
		t.Fatalf("gauge = %g, want 4", g.Value())
	}
	g.Add(-6)
	if g.Value() != -2 {
		t.Fatalf("gauge = %g, want -2 (gauges go down)", g.Value())
	}
	g.SetInt(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %g, want 7", g.Value())
	}
	if g.Name() != "test.gauge.basics" {
		t.Fatalf("gauge name = %q", g.Name())
	}
	if NewGauge("test.gauge.basics") != g {
		t.Fatal("NewGauge is not idempotent by name")
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	reset()
	g := NewGauge("test.gauge.concurrent")
	const workers, each = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != workers*each {
		t.Fatalf("gauge = %g, want %d (CAS loop lost adds)", got, workers*each)
	}
}

// TestReportGolden pins the documented report format: one metric per line,
// ascending name order across kinds, names %-36s left, values %12s right.
func TestReportGolden(t *testing.T) {
	reset()
	snap := TakeSnapshot()
	// Registration order deliberately scrambles the name order.
	g := NewGauge("test.golden.b_gauge")
	c2 := NewCounter("test.golden.c_counter")
	c1 := NewCounter("test.golden.a_counter")
	c1.Add(42)
	c2.Add(7)
	g.Set(2.5)
	got := ReportSince(snap)
	want := "run instrumentation:\n" +
		"  test.golden.a_counter                          42\n" +
		"  test.golden.b_gauge                           2.5\n" +
		"  test.golden.c_counter                           7\n"
	if got != want {
		t.Fatalf("report format drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestReportSortsAcrossKinds(t *testing.T) {
	reset()
	snap := TakeSnapshot()
	NewCounter("test.sorted.zz").Inc()
	NewGauge("test.sorted.mm").Set(1)
	NewHistogram("test.sorted.aa").Observe(time.Millisecond)
	rep := ReportSince(snap)
	ia := strings.Index(rep, "test.sorted.aa")
	im := strings.Index(rep, "test.sorted.mm")
	iz := strings.Index(rep, "test.sorted.zz")
	if ia < 0 || im < 0 || iz < 0 || !(ia < im && im < iz) {
		t.Fatalf("metrics not in unified name order (aa@%d mm@%d zz@%d):\n%s", ia, im, iz, rep)
	}
}

func TestGaugeDeltaSemantics(t *testing.T) {
	reset()
	g := NewGauge("test.gaugedelta")
	g.Set(5)
	snap := TakeSnapshot()
	if snap.Gauge("test.gaugedelta") != 5 {
		t.Fatalf("snapshot gauge = %g, want 5", snap.Gauge("test.gaugedelta"))
	}
	// Unchanged gauge: hidden from the delta report.
	if rep := ReportSince(snap); strings.Contains(rep, "test.gaugedelta") {
		t.Fatalf("unchanged gauge leaked into delta report:\n%s", rep)
	}
	// Changed gauge: the report shows the current value (last-value
	// semantics), not a delta.
	g.Set(3)
	if rep := ReportSince(snap); !strings.Contains(rep, "test.gaugedelta") || !strings.Contains(rep, "           3") {
		t.Fatalf("changed gauge missing current value:\n%s", rep)
	}
}

func TestTraceSamplerDeterministic(t *testing.T) {
	s := NewTraceSampler(0.25, 42)
	hits := 0
	const n = 100000
	for seq := int64(0); seq < n; seq++ {
		a := s.Sample(3, seq)
		if b := s.Sample(3, seq); a != b {
			t.Fatalf("sampler not deterministic at seq %d", seq)
		}
		if a {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.24 || rate > 0.26 {
		t.Fatalf("sampling rate %.4f, want ~0.25", rate)
	}
	// A different seed picks a different sample set.
	s2 := NewTraceSampler(0.25, 43)
	same := 0
	for seq := int64(0); seq < n; seq++ {
		if s.Sample(3, seq) == s2.Sample(3, seq) {
			same++
		}
	}
	if same == n {
		t.Fatal("distinct seeds sampled identically")
	}
}

func TestTraceSamplerBounds(t *testing.T) {
	var nilSampler *TraceSampler
	if nilSampler.Sample(0, 0) {
		t.Fatal("nil sampler sampled")
	}
	if NewTraceSampler(0, 1).Sample(0, 0) {
		t.Fatal("rate 0 sampled")
	}
	all := NewTraceSampler(1, 1)
	for seq := int64(0); seq < 100; seq++ {
		if !all.Sample(int(seq%4), seq) {
			t.Fatalf("rate 1 missed seq %d", seq)
		}
	}
}

func TestTraceRingSortedSnapshot(t *testing.T) {
	r := NewTraceRing(16)
	for _, seq := range []int64{5, 1, 9, 3} {
		r.Put(&FlightTrace{Seq: seq})
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(snap))
	}
	for i, want := range []int64{1, 3, 5, 9} {
		if snap[i].Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d", i, snap[i].Seq, want)
		}
	}
}

func TestTraceRingWrap(t *testing.T) {
	r := NewTraceRing(16)
	if r.Cap() != 16 {
		t.Fatalf("cap = %d, want 16", r.Cap())
	}
	for seq := int64(0); seq < 40; seq++ {
		r.Put(&FlightTrace{Seq: seq})
	}
	if r.Written() != 40 || r.Overwritten() != 24 {
		t.Fatalf("written/overwritten = %d/%d, want 40/24", r.Written(), r.Overwritten())
	}
	snap := r.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("snapshot len = %d, want 16", len(snap))
	}
	// Single-writer wrap keeps exactly the newest 16.
	for i, tr := range snap {
		if tr.Seq != int64(24+i) {
			t.Fatalf("snapshot[%d].Seq = %d, want %d", i, tr.Seq, 24+i)
		}
	}
}

func TestTraceRingConcurrentPuts(t *testing.T) {
	r := NewTraceRing(1 << 12)
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Put(&FlightTrace{Seq: int64(w*each + i)})
			}
		}()
	}
	wg.Wait()
	if r.Written() != workers*each {
		t.Fatalf("written = %d, want %d", r.Written(), workers*each)
	}
	snap := r.Snapshot()
	if len(snap) != workers*each {
		t.Fatalf("snapshot len = %d, want %d (within capacity nothing is lost)", len(snap), workers*each)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Seq >= snap[i].Seq {
			t.Fatalf("snapshot not strictly seq-sorted at %d", i)
		}
	}
}

func TestTraceJSONLGolden(t *testing.T) {
	r := NewTraceRing(16)
	r.Put(&FlightTrace{
		Seq: 7, VN: 2, Engine: 1, Addr: "10.0.0.1", Enter: 100, Exit: 125,
		Wait: 3, Displaced: true, Outcome: "forward", NHI: 9,
		Visits: []StageVisit{{Stage: 0, Entry: 4}, {Stage: 1, Entry: 8, NewBank: true, Fault: true}},
	})
	var b strings.Builder
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	want := `{"seq":7,"vn":2,"engine":1,"addr":"10.0.0.1","enter":100,"exit":125,"wait":3,"displaced":true,"outcome":"forward","nhi":9,"visits":[{"stage":0,"entry":4},{"stage":1,"entry":8,"new_bank":true,"fault":true}]}` + "\n"
	if b.String() != want {
		t.Fatalf("trace JSONL drifted:\ngot:  %swant: %s", b.String(), want)
	}
}

func TestTimeSeriesCSVGolden(t *testing.T) {
	ts := NewTimeSeries()
	ts.Init("power_w", "gbps")
	ts.Append(0, 4.5, 91.25)
	ts.Append(1024, 4.75, 0)
	want := "cycle,power_w,gbps\n0,4.5,91.25\n1024,4.75,0\n"
	if got := ts.CSV(); got != want {
		t.Fatalf("CSV drifted:\ngot:\n%swant:\n%s", got, want)
	}
	if ts.Len() != 2 {
		t.Fatalf("len = %d, want 2", ts.Len())
	}
	// Init starts the next run fresh.
	ts.Init("a")
	if ts.Len() != 0 || len(ts.Columns()) != 1 {
		t.Fatal("Init did not reset the series")
	}
	var nilSeries *TimeSeries
	nilSeries.Init("x")
	nilSeries.Append(0, 1)
	if nilSeries.CSV() != "" || nilSeries.Len() != 0 {
		t.Fatal("nil series not inert")
	}
}

func TestTimeSeriesArityPanics(t *testing.T) {
	ts := NewTimeSeries()
	ts.Init("a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	ts.Append(0, 1)
}

func TestEventLogGolden(t *testing.T) {
	l := NewEventLog(LevelInfo)
	l.Log(LevelDebug, 5, "hidden", "k", 1) // under min level
	l.Log(LevelInfo, 10, "scrub_start", "engine", 2, "via", "sweep")
	l.Log(LevelWarn, -1, "odd_types", "f", 2.5, "b", true, "n", int64(9))
	if l.Len() != 2 {
		t.Fatalf("len = %d, want 2 (debug filtered)", l.Len())
	}
	var b strings.Builder
	if err := l.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	want := `{"cycle":10,"level":"info","event":"scrub_start","engine":2,"via":"sweep"}` + "\n" +
		`{"cycle":-1,"level":"warn","event":"odd_types","f":2.5,"b":true,"n":9}` + "\n"
	if b.String() != want {
		t.Fatalf("event JSONL drifted:\ngot:\n%swant:\n%s", b.String(), want)
	}
}

func TestEventLogBounded(t *testing.T) {
	l := NewEventLog(LevelDebug)
	l.SetCapacity(3)
	for i := 0; i < 10; i++ {
		l.Log(LevelInfo, int64(i), "e")
	}
	if l.Len() != 3 || l.Dropped() != 7 {
		t.Fatalf("len/dropped = %d/%d, want 3/7", l.Len(), l.Dropped())
	}
	l.Reset()
	if l.Len() != 0 || l.Dropped() != 0 {
		t.Fatal("Reset did not clear the log")
	}
	var nilLog *EventLog
	nilLog.Log(LevelError, 0, "x")
	if nilLog.Len() != 0 {
		t.Fatal("nil log not inert")
	}
}

func TestParseLevelRoundTrip(t *testing.T) {
	for _, l := range []Level{LevelDebug, LevelInfo, LevelWarn, LevelError} {
		if got, err := ParseLevel(l.String()); got != l || err != nil {
			t.Fatalf("ParseLevel(%q) = %v, %v; want %v", l.String(), got, err, l)
		}
	}
	if _, err := ParseLevel("bogus"); err == nil {
		t.Fatal("unknown level accepted")
	}
}

func TestWriteMetricsPrometheus(t *testing.T) {
	reset()
	NewCounter("test.prom.counter").Add(3)
	NewGauge("test.prom.gauge").Set(1.5)
	var b strings.Builder
	if err := WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE vrpower_test_prom_counter counter\nvrpower_test_prom_counter 3\n",
		"# TYPE vrpower_test_prom_gauge gauge\nvrpower_test_prom_gauge 1.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, out)
		}
	}
}

func TestTelemetryMuxEndpoints(t *testing.T) {
	ts := NewTimeSeries()
	ts.Init("x")
	ts.Append(0, 1)
	ring := NewTraceRing(16)
	ring.Put(&FlightTrace{Seq: 1, Outcome: "forward", NHI: -1})
	log := NewEventLog(LevelInfo)
	log.Log(LevelInfo, 0, "hello")
	mux := TelemetryMux(ts, ring, log)
	for path, frag := range map[string]string{
		"/metrics":        "# TYPE",
		"/timeseries.csv": "cycle,x\n0,1\n",
		"/traces.jsonl":   `"seq":1`,
		"/events.jsonl":   `"event":"hello"`,
		"/":               "vrpower telemetry",
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s -> %d", path, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), frag) {
			t.Fatalf("%s body missing %q:\n%s", path, frag, rec.Body.String())
		}
	}
}

// TestSnapshotUnderConcurrentWriters races snapshot/report/exposition reads
// against writer goroutines; correctness here is "no race, no panic, and
// monotonic counter reads".
func TestSnapshotUnderConcurrentWriters(t *testing.T) {
	reset()
	c := NewCounter("test.racepass.counter")
	g := NewGauge("test.racepass.gauge")
	h := NewHistogram("test.racepass.hist")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					g.Add(1)
					h.Observe(time.Microsecond)
				}
			}
		}()
	}
	var last int64
	for i := 0; i < 200; i++ {
		snap := TakeSnapshot()
		v := snap.Counter("test.racepass.counter")
		if v < last {
			t.Fatalf("counter snapshot went backwards: %d < %d", v, last)
		}
		last = v
		_ = ReportSince(snap)
		var b strings.Builder
		_ = WriteMetrics(&b)
	}
	close(stop)
	wg.Wait()
}

// TestTelemetryHotPathsAllocationFree guards the disabled-tracing and
// recording fast paths: none of them may allocate.
func TestTelemetryHotPathsAllocationFree(t *testing.T) {
	reset()
	g := NewGauge("test.allocs.gauge")
	if n := testing.AllocsPerRun(1000, func() { g.Set(1); g.Add(0.5); g.SetInt(3) }); n != 0 {
		t.Fatalf("Gauge hot path allocates %.1f per op, want 0", n)
	}
	var nilSampler *TraceSampler
	s := NewTraceSampler(0.5, 1)
	if n := testing.AllocsPerRun(1000, func() { nilSampler.Sample(1, 2); s.Sample(1, 2) }); n != 0 {
		t.Fatalf("Sample allocates %.1f per op, want 0", n)
	}
	r := NewTraceRing(16)
	tr := &FlightTrace{Seq: 1}
	var nilRing *TraceRing
	if n := testing.AllocsPerRun(1000, func() { r.Put(tr); nilRing.Put(tr) }); n != 0 {
		t.Fatalf("Put allocates %.1f per op, want 0", n)
	}
}

func TestGaugeNaNRoundTrip(t *testing.T) {
	reset()
	g := NewGauge("test.gauge.nan")
	g.Set(math.Inf(1))
	if !math.IsInf(g.Value(), 1) {
		t.Fatalf("gauge = %g, want +Inf", g.Value())
	}
	g.Set(0)
	if g.Value() != 0 {
		t.Fatal("gauge did not return to 0")
	}
}
