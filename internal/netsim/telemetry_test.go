package netsim

// Telemetry tests: the acceptance bar is byte-identical trace, time-series
// and event dumps between -j1 and -j8 for the same seeds, and zero effect
// of an attached Telemetry bundle on the run reports themselves.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
	"vrpower/internal/sweep"
	"vrpower/internal/traffic"
)

// testTelemetry builds a fresh full bundle: sampler at rate with the given
// seed, a ring sized well above the expected sample volume (the byte-level
// determinism guarantee needs retained-set == sampled-set), debug-level
// events.
func testTelemetry(rate float64, seed int64) *Telemetry {
	return &Telemetry{
		Sampler: obs.NewTraceSampler(rate, seed),
		Traces:  obs.NewTraceRing(1 << 14),
		Series:  obs.NewTimeSeries(),
		Events:  obs.NewEventLog(obs.LevelDebug),
	}
}

// dumps renders the three telemetry sinks to strings.
func dumps(t *testing.T, tel *Telemetry) (traces, series, events string) {
	t.Helper()
	var tb, sb, eb strings.Builder
	if err := tel.Traces.WriteJSONL(&tb); err != nil {
		t.Fatal(err)
	}
	if err := tel.Series.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if err := tel.Events.WriteJSONL(&eb); err != nil {
		t.Fatal(err)
	}
	return tb.String(), sb.String(), eb.String()
}

// runDumps runs one harness once per worker count with a fresh bundle and
// fails unless every dump is byte-identical across worker counts and the
// probe reports at least one non-empty sink.
func runDumps(t *testing.T, name string, run func(tel *Telemetry)) (traces, series, events string) {
	t.Helper()
	defer sweep.SetWorkers(0)
	var ref [3]string
	for i, workers := range []int{1, 8} {
		sweep.SetWorkers(workers)
		tel := testTelemetry(0.05, 99)
		run(tel)
		tr, se, ev := dumps(t, tel)
		if i == 0 {
			ref = [3]string{tr, se, ev}
			continue
		}
		if tr != ref[0] {
			t.Errorf("%s: trace dump differs between -j1 and -j8:\n-j1:\n%s\n-j8:\n%s", name, ref[0], tr)
		}
		if se != ref[1] {
			t.Errorf("%s: time-series dump differs between -j1 and -j8:\n-j1:\n%s\n-j8:\n%s", name, ref[1], se)
		}
		if ev != ref[2] {
			t.Errorf("%s: event dump differs between -j1 and -j8:\n-j1:\n%s\n-j8:\n%s", name, ref[2], ev)
		}
	}
	return ref[0], ref[1], ref[2]
}

// TestForwardTelemetryDeterministicAcrossWorkers: on every scheme, Forward's
// trace dump is byte-identical at 1, 2 and 8 workers, and every trace names
// its packet: its Seq is the packet's position in the batch — on the
// per-network engines too, which sweep a list of batch indices — and its VN
// that packet's network.
func TestForwardTelemetryDeterministicAcrossWorkers(t *testing.T) {
	defer sweep.SetWorkers(0)
	for _, sc := range []core.Scheme{core.VM, core.VS, core.NV} {
		s, tables := buildSystem(t, sc, 3)
		pkts := gen(t, 3, tables, 4000)
		var ref string
		for _, workers := range []int{1, 2, 8} {
			sweep.SetWorkers(workers)
			tel := testTelemetry(0.05, 99)
			s.SetTelemetry(tel)
			_, err := s.Forward(pkts)
			s.SetTelemetry(nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range tel.Traces.Snapshot() {
				if tr.Seq < 0 || tr.Seq >= int64(len(pkts)) || pkts[tr.Seq].VN != tr.VN || pkts[tr.Seq].Addr.String() != tr.Addr {
					t.Fatalf("%s workers=%d: trace seq %d, VN %d, address %s names no packet of the batch", sc, workers, tr.Seq, tr.VN, tr.Addr)
				}
			}
			traces, _, _ := dumps(t, tel)
			if workers == 1 {
				ref = traces
			} else if traces != ref {
				t.Errorf("%s: trace dump differs between 1 and %d workers:\n-j1:\n%.400s\n-j%d:\n%.400s", sc, workers, ref, workers, traces)
			}
		}
		if ref == "" {
			t.Fatalf("%s: Forward sampled no traces at rate 0.05 over 4000 packets", sc)
		}
		if !strings.Contains(ref, `"outcome":"forward"`) {
			t.Errorf("%s: no forward outcome in traces:\n%.400s", sc, ref)
		}
		if !strings.Contains(ref, `"visits":[{"stage":0`) {
			t.Errorf("%s: traces missing stage visits:\n%.400s", sc, ref)
		}
	}
}

// TestForwardOracleSeesEveryLookupAcrossWorkers strikes the merged engine's
// image, parity unchecked, so that lookups misforward, and sends some uniform
// traffic, so that lookups have no route: the oracle runs on the shard that swept
// each chunk, and the mismatch and no-route tallies, the energy and the trace
// dump must all be nonzero and the same at -j1 and -j8, where the run is split
// into shards.
func TestForwardOracleSeesEveryLookupAcrossWorkers(t *testing.T) {
	s, tables := buildSystem(t, core.VM, 3)
	img := s.router.Images()[0]
	struck := 0
	for st := 0; st < img.Stages(); st++ {
		for i := 0; i < img.StageLen(st); i += 3 {
			if img.Entry(st, uint32(i)).Leaf && img.FlipBit(st, uint32(i), 0) {
				struck++
			}
		}
	}
	if struck == 0 {
		t.Fatal("no leaf struck")
	}
	uniform, err := traffic.New(traffic.Config{K: 3, Seed: 17, Addr: traffic.UniformAddr})
	if err != nil {
		t.Fatal(err)
	}
	pkts := append(gen(t, 3, tables, 5000), uniform.Batch(1000)...)
	var reps []Report
	traces, _, _ := runDumps(t, "Forward over a struck image", func(tel *Telemetry) {
		if w := sweep.Workers(); w > 1 && pipeline.Shards(len(pkts)) < 2 {
			t.Fatalf("%d workers: the merged engine runs unsharded", w)
		}
		s.SetTelemetry(tel)
		defer s.SetTelemetry(nil)
		rep, err := s.Forward(pkts)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	})
	rep := reps[0]
	if rep.Mismatches == 0 || rep.NoRoute == 0 || rep.Energy.DynJ == 0 || rep.Energy.Lookups != int64(len(pkts)) {
		t.Fatalf("mismatches %d, no-route %d, dynamic energy %g J over %d metered lookups: want all nonzero, every lookup metered",
			rep.Mismatches, rep.NoRoute, rep.Energy.DynJ, rep.Energy.Lookups)
	}
	if !reflect.DeepEqual(reps[1], rep) {
		t.Errorf("report differs between -j1 and -j8:\n-j1 %+v\n-j8 %+v", rep, reps[1])
	}
	for _, outcome := range []string{"mismatch", "noroute", "forward"} {
		if !strings.Contains(traces, `"outcome":"`+outcome+`"`) {
			t.Errorf("no %s outcome in traces:\n%.400s", outcome, traces)
		}
	}
}

func TestFaultRunTelemetryDeterministicAcrossWorkers(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 3)
	const cycles = 8 * 1024
	spec := fmt.Sprintf("load=const:0.3333,faults=seu:%g,kill=0@2000,cycles=%d,seed=5", seuRateFor(s, 3, cycles), cycles)
	traces, series, events := runDumps(t, "faults", func(tel *Telemetry) {
		s.SetTelemetry(tel)
		defer s.SetTelemetry(nil)
		runSpec(t, s, 29, spec)
	})
	if traces == "" || series == "" || events == "" {
		t.Fatalf("fault run left a sink empty: traces=%d series=%d events=%d bytes",
			len(traces), len(series), len(events))
	}
	for _, want := range []string{"engine_kill", "seu_inject", "scrub_start"} {
		if !strings.Contains(events, `"event":"`+want+`"`) {
			t.Errorf("fault events missing %q:\n%s", want, events)
		}
	}
	head := strings.Split(series, "\n")[1] // past the schema line
	if head != "cycle,power_w,throughput_gbps,backlog_pkts,scrubs_active,updates_active,recoveries,degraded_vns,cap_w,gov_rung,dyn_j,static_j,j_per_bit,avail_vn00,avail_vn01,avail_vn02" {
		t.Errorf("series header drifted: %s", head)
	}
	// The kill must be visible in the series as lost availability.
	if !strings.Contains(series, ",0,") && !strings.Contains(series, ",0\n") {
		t.Errorf("killed engine never showed as unavailable:\n%s", series)
	}
}

func TestUpdateRunTelemetryDeterministicAcrossWorkers(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 3)
	traces, series, events := runDumps(t, "churn", func(tel *Telemetry) {
		s.SetTelemetry(tel)
		defer s.SetTelemetry(nil)
		runSpec(t, s, 23, "load=const:0.3333,churn=4x64,queue=4096,cycles=8192")
	})
	if traces == "" || series == "" || events == "" {
		t.Fatalf("churn run left a sink empty: traces=%d series=%d events=%d bytes",
			len(traces), len(series), len(events))
	}
	for _, want := range []string{"update_arm", "update_commit", "lifecycle_update"} {
		if !strings.Contains(events, `"event":"`+want+`"`) {
			t.Errorf("update events missing %q:\n%s", want, events)
		}
	}
}

func TestLoadTestTelemetryDeterministicAcrossWorkers(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 3)
	_, series, _ := runDumps(t, "load", func(tel *Telemetry) {
		s.SetTelemetry(tel)
		defer s.SetTelemetry(nil)
		runSpec(t, s, 41, "load=const:0.8,cycles=4096")
	})
	if strings.Count(series, "\n") < 1+4096/1024 {
		t.Errorf("load run recorded too few series rows:\n%s", series)
	}
}

// TestTelemetryDoesNotChangeReports: instrumentation must never change
// behaviour. A faults + kill + churn run with the full bundle attached —
// sampler and trace ring included — must produce the report, series and
// events of a run that traces nothing. A blackholed arrival is the case that
// used to break this: its drop record must not draw from the generator.
func TestTelemetryDoesNotChangeReports(t *testing.T) {
	for _, scheme := range []core.Scheme{core.VS, core.VM} {
		s, _ := buildSystem(t, scheme, 3)
		const cycles = 16 * 1024
		spec := fmt.Sprintf("load=const:0.3,faults=seu:%g,kill=0@4000,churn=3x32,cycles=%d,seed=7", seuRateFor(s, 3, cycles), cycles)
		run := func(tel *Telemetry) (string, string, string) {
			s.SetTelemetry(tel)
			defer s.SetTelemetry(nil)
			rep := runSpec(t, s, 29, spec)
			if rep.Kill == nil || rep.Kill.RepairedAt < 0 || rep.BatchesApplied == 0 {
				t.Fatalf("%s: kill %+v, %d batches: the run did not exercise both stressors", scheme, rep.Kill, rep.BatchesApplied)
			}
			_, series, events := dumps(t, tel)
			return dumpJSON(t, rep), series, events
		}
		full := testTelemetry(0.2, 3)
		bareRep, bareSeries, bareEvents := run(&Telemetry{Series: obs.NewTimeSeries(), Events: obs.NewEventLog(obs.LevelDebug)})
		rep, series, events := run(full)
		if full.Traces.Written() == 0 {
			t.Fatalf("%s: traced run kept no traces", scheme)
		}
		if rep != bareRep {
			t.Errorf("%s: attaching the tracer changed the report:\nbare:   %s\ntraced: %s", scheme, bareRep, rep)
		}
		if series != bareSeries {
			t.Errorf("%s: attaching the tracer changed the series", scheme)
		}
		if events != bareEvents {
			t.Errorf("%s: attaching the tracer changed the events", scheme)
		}
	}
}
