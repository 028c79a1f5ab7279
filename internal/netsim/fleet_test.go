package netsim

// Behavioural tests for the fleet failure-domain layer: a device crash must
// be survived by live-migrating every victim network onto the survivors (or
// a woken spare) without ever misforwarding, and an unplaceable loss must
// degrade per-network instead of failing the run.

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/obs"
	"vrpower/internal/scenario"
)

func runFleet(t *testing.T, k int, spec string) ScenarioReport {
	t.Helper()
	s, _ := buildSystem(t, core.VS, k)
	sp, err := scenario.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunScenario(faultGen(t, s, 17), sp)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fleet == nil {
		t.Fatal("fleet spec produced no fleet report")
	}
	return rep
}

func TestFleetCrashFailover(t *testing.T) {
	rep := runFleet(t, 8,
		"load=const:0.4,fleet=4:spare=1,chaos=devcrash:1,cycles=16384,queue=32,seed=11")
	f := rep.Fleet
	if len(f.Crashes) != 1 {
		t.Fatalf("crashes: %+v", f.Crashes)
	}
	victims := f.Crashes[0].Victims
	if len(victims) == 0 {
		t.Fatal("crashed device held no networks")
	}
	if len(f.Degraded) != 0 {
		t.Fatalf("degraded %+v with survivors available", f.Degraded)
	}
	if !rep.Recovered || !rep.Completed {
		t.Fatalf("Recovered %v Completed %v, want both", rep.Recovered, rep.Completed)
	}
	// Every victim must land via exactly the migration machinery, with a
	// positive, bounded repair time.
	landed := map[int]bool{}
	for _, m := range f.Migrations {
		if m.CommittedAt < 0 {
			t.Fatalf("migration %+v never landed", m)
		}
		if m.MTTRCycles <= 0 || m.MTTRCycles >= rep.TrafficCycles {
			t.Fatalf("migration %+v MTTR out of range", m)
		}
		if m.From != f.Crashes[0].Device {
			t.Fatalf("migration %+v not from the crashed device", m)
		}
		landed[m.VN] = true
	}
	for _, vn := range victims {
		if !landed[vn] {
			t.Fatalf("victim %d has no landed migration: %+v", vn, f.Migrations)
		}
	}
	if f.MigrationsDone != len(victims) || f.MeanMTTRCycles() <= 0 {
		t.Fatalf("done %d mean MTTR %g, want %d landings", f.MigrationsDone, f.MeanMTTRCycles(), len(victims))
	}
	// The dip is bounded: victims lose service only between crash and
	// commit, and everyone else rides through untouched.
	for _, vn := range victims {
		down := rep.UnavailableCyclesPerVN[vn]
		if down <= 0 || down >= rep.TrafficCycles/2 {
			t.Fatalf("victim %d down %d of %d cycles, want a bounded dip", vn, down, rep.TrafficCycles)
		}
		if rep.DeliveredPerVN[vn] == 0 {
			t.Fatalf("victim %d delivered nothing after recovery", vn)
		}
	}
	// Correctness is non-negotiable under failover: no oracle mismatches in
	// flight and no misforwards in the post-install audits.
	if rep.Mismatches != 0 {
		t.Fatalf("%d oracle mismatches during failover", rep.Mismatches)
	}
	if f.Audits == 0 || f.AuditProbes == 0 {
		t.Fatalf("no invariant audits ran: %+v", f)
	}
	if f.AuditMismatches != 0 {
		t.Fatalf("%d audit probes misforwarded", f.AuditMismatches)
	}
	for _, d := range f.PerDevice {
		if d.Device == f.Crashes[0].Device && d.State != "crashed" {
			t.Fatalf("crashed device reported %q", d.State)
		}
	}
}

func TestFleetOverCapacityDegradesGracefully(t *testing.T) {
	rep := runFleet(t, 4,
		"load=const:0.4,fleet=1,chaos=devcrash:1,cycles=8192,seed=11")
	f := rep.Fleet
	// One device, no spare: losing it strands every network. The run must
	// finish cleanly with per-network degradations, not an error.
	if len(f.Degraded) != 4 {
		t.Fatalf("degraded %+v, want all 4 networks", f.Degraded)
	}
	for _, d := range f.Degraded {
		if !strings.Contains(d.Reason, "no device capacity") {
			t.Fatalf("degradation reason %q", d.Reason)
		}
	}
	if f.MigrationsDone != 0 || f.MigrationAttempts != 0 {
		t.Fatalf("migrations ran with no survivors: %+v", f)
	}
	if rep.Recovered {
		t.Fatal("run reported recovered with every network degraded")
	}
	if !rep.Completed {
		t.Fatal("degraded run did not complete its drain")
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d mismatches — degradation must drop, never misforward", rep.Mismatches)
	}
}

func TestFleetFlakyRetriesWithBackoff(t *testing.T) {
	rep := runFleet(t, 8,
		"load=const:0.4,fleet=2:spare=1,chaos=devcrash:1+flaky:2,cycles=16384,queue=32,seed=11")
	f := rep.Fleet
	// Both devices flaky: installs fail with p=0.75, so landing everything
	// requires the retry ladder.
	if f.MigrationFailures == 0 {
		t.Fatalf("flaky devices failed no installs: %+v", f)
	}
	if f.MigrationAttempts <= f.MigrationsDone {
		t.Fatalf("attempts %d vs done %d, want retries", f.MigrationAttempts, f.MigrationsDone)
	}
	retried := false
	for _, m := range f.Migrations {
		if m.Attempts != m.FailedAttempts+boolToInt(m.CommittedAt >= 0) {
			t.Fatalf("migration %+v attempt accounting inconsistent", m)
		}
		if m.FailedAttempts > 0 && m.CommittedAt >= 0 {
			retried = true
		}
	}
	if !retried {
		t.Skipf("seed produced no failed-then-landed migration: %+v", f.Migrations)
	}
	if rep.Mismatches != 0 || f.AuditMismatches != 0 {
		t.Fatalf("misforwards under flaky installs: %d/%d", rep.Mismatches, f.AuditMismatches)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// However many candidate tenant sets the placer and the failover controller
// price, a fleet run compiles each network's engine image at most once: the
// power estimator assembles routers over the per-network image memo. Over a
// system built per network (NV, VS) the memo starts as the system router's
// own images and the run compiles none; over a merged system it fills as
// networks are first placed. The spec is the benchmark's fleet_failover
// shape (both actives die, the spare takes all eight networks), which prices
// far more sets than there are networks.
func TestFleetRunCompilesEachNetworkOnce(t *testing.T) {
	const k = 8
	for _, tc := range []struct {
		scheme   core.Scheme
		min, max int64
	}{{core.VS, 0, 0}, {core.VM, 1, k}} {
		s, _ := buildSystem(t, tc.scheme, k)
		sp, err := scenario.Parse("load=const:0.4,fleet=2:spare=1,chaos=devcrash:2+flaky:2+brownout:1,cycles=16384,queue=32,seed=11")
		if err != nil {
			t.Fatal(err)
		}
		g := faultGen(t, s, 17)
		snap := obs.TakeSnapshot()
		rep, err := s.RunScenario(g, sp)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Fleet.MigrationsDone == 0 {
			t.Fatalf("%v: no migration landed: the run priced no failover sets", tc.scheme)
		}
		if rep.Mismatches != 0 || rep.Fleet.AuditMismatches != 0 {
			t.Fatalf("%v: misforwards: %d/%d", tc.scheme, rep.Mismatches, rep.Fleet.AuditMismatches)
		}
		if n := snap.CounterDelta("pipeline.images_compiled"); n < tc.min || n > tc.max {
			t.Errorf("fleet run over a %v system compiled %d images, want %d..%d", tc.scheme, n, tc.min, tc.max)
		}
	}
}

// The fleet runner's queues must behave as the re-sliced slices they
// replaced (same order, same lengths, whatever the interleaving of pushes,
// pops and resets) and, unlike those, must not allocate once warm: a serve
// loop that allocates puts garbage-collector cycles inside the run, and the
// run's wall time then depends on what else the host's cores are doing.
func TestFifoMatchesSliceAndStopsAllocating(t *testing.T) {
	items := func(f *fifo[int]) []int { return f.buf[f.head:] }
	rng := rand.New(rand.NewSource(5))
	var f fifo[int]
	var model []int
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(100); {
		case r < 50:
			f.push(step)
			model = append(model, step)
		case r < 98:
			if len(model) == 0 {
				continue
			}
			if got := f.pop(); got != model[0] {
				t.Fatalf("step %d: pop = %d, want %d", step, got, model[0])
			}
			model = model[1:]
		default:
			f.reset()
			model = nil
		}
		if f.len() != len(model) || !slices.Equal(items(&f), model) {
			t.Fatalf("step %d: fifo holds %v, want %v", step, items(&f), model)
		}
	}

	// A pipeline's in-flight list: never empty, one in and one out a cycle.
	f.reset()
	for i := 0; i < 24; i++ {
		f.push(i)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		f.push(f.pop())
	}); allocs != 0 {
		t.Errorf("steady-state push/pop allocates %.1f times per cycle, want 0", allocs)
	}
}

// TestSingleDeviceIsFleetOfOne: a spec and the same spec with fleet=1 are the
// same run. The fleet section, the stressor list and the spec string are all
// that may differ; the rest of the report, the traces, the series and the
// events must be equal to the byte.
func TestSingleDeviceIsFleetOfOne(t *testing.T) {
	for _, tc := range []struct {
		scheme core.Scheme
		k      int
		spec   string
	}{
		{core.VS, 3, "load=const:0.8,cycles=8192,seed=3"},
		{core.VS, 4, "load=surge:0.3:0.95,queue=8,cycles=8192,seed=3"},
		{core.NV, 1, "load=const:0.8,cycles=8192,seed=3"},
	} {
		one, oneDumps := runScenario(t, tc.scheme, tc.k, mustParse(t, tc.spec), 1)
		fl, flDumps := runScenario(t, tc.scheme, tc.k, mustParse(t, tc.spec+",fleet=1"), 1)
		name := tc.scheme.String() + " " + tc.spec

		if one.Fleet != nil || fl.Fleet == nil || len(fl.Fleet.PerDevice) != 1 {
			t.Fatalf("%s: fleet sections %+v / %+v, want none / one device", name, one.Fleet, fl.Fleet)
		}
		if !slices.Equal(fl.Stressors, append(slices.Clone(one.Stressors), "fleet")) {
			t.Errorf("%s: stressors %v vs %v, want the same plus fleet", name, one.Stressors, fl.Stressors)
		}
		if fl.Spec != one.Spec+",fleet=1" {
			t.Errorf("%s: specs %q vs %q", name, one.Spec, fl.Spec)
		}
		fl.Fleet, fl.Stressors, fl.Spec = nil, one.Stressors, one.Spec
		if a, b := dumpJSON(t, one), dumpJSON(t, fl); a != b {
			t.Errorf("%s: reports differ beyond the fleet section, the stressor list and the spec:\n%s\n%s", name, a, b)
		}
		// These runs log no event; the trace and series dumps must hold something.
		for i, dump := range []string{"trace", "series", "event"} {
			if oneDumps[i] != flDumps[i] || oneDumps[i] == "" && i < 2 {
				t.Errorf("%s: %s dumps differ (or are empty):\n%s\n%s", name, dump, oneDumps[i], flDumps[i])
			}
		}
	}
}

// TestFleetEnergyConserved: on a fleet run through crashes, failed installs
// and landed migrations, the slice series and the device meters account for
// exactly the energy the report's ledger holds. The series energy columns sum
// to the report's total within one float rounding per row; every device
// meter, crashed or live, is its slice of the ledger's engine and device axes
// (engine within device, in device order) and adds its per-VNID, component
// and event totals; and ΣVN = Σengine = mem + clock + ctrl.
func TestFleetEnergyConserved(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 8)
	tel := testTelemetry(0.05, 99)
	s.SetTelemetry(tel)
	r, err := s.runScenario(faultGen(t, s, 17),
		mustParse(t, "load=const:0.4,fleet=2:spare=1,chaos=devcrash:2+flaky:2+brownout:1,cycles=16384,queue=32,seed=2"))
	if err != nil {
		t.Fatal(err)
	}
	rep, f, er := r.rep, r.rep.Fleet, r.rep.Energy
	if len(f.Crashes) == 0 || f.MigrationFailures == 0 || f.MigrationsDone == 0 {
		t.Fatalf("%d crashes, %d failed installs, %d landed migrations: want each", len(f.Crashes), f.MigrationFailures, f.MigrationsDone)
	}
	if rep.Mismatches != 0 || f.AuditMismatches != 0 || !rep.Completed {
		t.Fatalf("%d mismatches, %d audit mismatches, completed %v", rep.Mismatches, f.AuditMismatches, rep.Completed)
	}

	_, series, _ := dumps(t, tel)
	lines := strings.Split(strings.TrimSpace(series), "\n")[1:] // past the schema line
	header := strings.Split(lines[0], ",")
	dyn, static := slices.Index(header, "dyn_j"), slices.Index(header, "static_j")
	var sum float64
	for _, line := range lines[1:] {
		row := strings.Split(line, ",")
		for _, c := range []int{dyn, static} {
			v, err := strconv.ParseFloat(row[c], 64)
			if err != nil {
				t.Fatal(err)
			}
			sum += v
		}
	}
	rows := float64(len(lines) - 1)
	if tol := 4 * rows * 0x1p-53 * er.TotalJ; er.TotalJ <= 0 || math.Abs(sum-er.TotalJ) > tol {
		t.Fatalf("series energy columns sum to %.17g J over %g rows, report total %.17g J: want within %.3g", sum, rows, er.TotalJ, tol)
	}

	var vn, engAxis, devAxis []int64
	var mem, clock, ctrl, lookups, words int64
	for _, d := range r.devs {
		mt := d.meter
		if f.PerDevice[d.id].State == "crashed" && (len(mt.Model().Engines) != 0 || mt.DynTotalFJ() == 0) {
			t.Errorf("crashed device %d: meter over %d engines with %d fJ, want dark and holding its energy",
				d.id, len(mt.Model().Engines), mt.DynTotalFJ())
		}
		engAxis, devAxis = append(engAxis, mt.EngineDynFJ...), append(devAxis, mt.DeviceStaticFJ...)
		vn = append(vn, mt.VNDynFJ...)
		mem, clock, ctrl = mem+mt.MemFJ, clock+mt.ClockFJ, ctrl+mt.CtrlFJ
		lookups, words = lookups+mt.Lookups, words+mt.Words
	}
	if !slices.Equal(engAxis, er.EngineDynFJ) || !slices.Equal(devAxis, er.DeviceStaticFJ) {
		t.Errorf("device meters' axes, joined in device order, are %v / %v; the ledger's %v / %v",
			engAxis, devAxis, er.EngineDynFJ, er.DeviceStaticFJ)
	}
	for v := range er.VNDynFJ {
		var fj int64
		for d := range r.devs {
			fj += vn[d*s.k+v]
		}
		if fj != er.VNDynFJ[v] {
			t.Errorf("vn %d: device meters hold %d fJ, the ledger %d", v, fj, er.VNDynFJ[v])
		}
	}
	if mem != er.MemFJ || clock != er.ClockFJ || ctrl != er.CtrlFJ || lookups != er.Lookups || words != er.Words {
		t.Errorf("device meters hold mem %d clock %d ctrl %d fJ, %d lookups, %d words; the ledger %d %d %d, %d, %d",
			mem, clock, ctrl, lookups, words, er.MemFJ, er.ClockFJ, er.CtrlFJ, er.Lookups, er.Words)
	}
	var vnSum, engSum int64
	for _, fj := range er.VNDynFJ {
		vnSum += fj
	}
	for _, fj := range er.EngineDynFJ {
		engSum += fj
	}
	if comp := er.MemFJ + er.ClockFJ + er.CtrlFJ; vnSum != engSum || vnSum != comp || comp == 0 {
		t.Errorf("ΣVN %d, Σengine %d, mem + clock + ctrl %d fJ: want one nonzero total", vnSum, engSum, comp)
	}
}

// TestFleetStaticIsPoweredDeviceCycles: on the fleet smoke's spec, every
// device is in exactly one lifecycle state each cycle, and static energy is
// charged for exactly the powered ones. The states are rebuilt from the
// event log alone, each taking effect at the boundary that processes it: a
// crash (and the spare it wakes) at the first boundary past its cycle, a
// landed install at the first boundary at or past it, spare_ready where it
// is logged. A powered device leaks at its router's clock, or at the run's
// before it has a router; each row's static_j, and each device meter's
// static total, must be that leakage over the powered device-cycles.
func TestFleetStaticIsPoweredDeviceCycles(t *testing.T) {
	s, _ := buildSystem(t, core.VS, 8)
	tel := testTelemetry(0, 1)
	s.SetTelemetry(tel)
	r, err := s.runScenario(faultGen(t, s, 17),
		mustParse(t, "load=const:0.4,fleet=2:spare=1,chaos=devcrash:2+flaky:2+brownout:1,cycles=65536,queue=32,seed=2"))
	if err != nil {
		t.Fatal(err)
	}
	rep, f := r.rep, r.rep.Fleet
	S := rep.SliceCycles
	type change struct {
		dev   int
		state string
		vn    int // a landed network, or -1
	}
	at := map[int64][]change{}
	for _, ev := range tel.Events.Events() {
		kv := map[string]int{}
		for _, fd := range ev.Fields {
			if v, ok := fd.Val.(int); ok {
				kv[fd.Key] = v
			}
		}
		switch ev.Kind {
		case "device_crash":
			at[(ev.Cycle/S+1)*S] = append(at[(ev.Cycle/S+1)*S], change{kv["device"], "crashed", -1})
		case "spare_powerup":
			at[(ev.Cycle/S+1)*S] = append(at[(ev.Cycle/S+1)*S], change{kv["device"], "powering-up", -1})
		case "spare_ready":
			at[ev.Cycle] = append(at[ev.Cycle], change{kv["device"], "active", -1})
		case "migration_commit":
			b := (ev.Cycle + S - 1) / S * S
			at[b] = append(at[b], change{kv["to"], "active", kv["vn"]})
		}
	}
	if len(f.Crashes) != 2 || f.SpareActivations != 1 {
		t.Fatalf("%d crashes, %d spares woken: want both actives lost and the spare woken", len(f.Crashes), f.SpareActivations)
	}

	n := len(f.PerDevice)
	state, vns := make([]string, n), make([][]int, n)
	cycles := make([]map[string]int64, n)
	staticFJ := make([]int64, n)
	for d := range state {
		state[d], vns[d], cycles[d] = "spare", slices.Clone(f.PerDevice[d].PlacedVNs), map[string]int64{}
		if d < f.Devices {
			state[d] = "active"
		}
	}
	W := s.router.Design().DeviceStaticWatts()
	leak := func(d int) int64 {
		fmhz := s.router.Fmax()
		if len(vns[d]) > 0 {
			sch := core.VS
			if len(vns[d]) == 1 {
				sch = core.NV
			}
			rt, err := r.build(sch, vns[d])
			if err != nil {
				t.Fatal(err)
			}
			fmhz = rt.Fmax()
		}
		return int64(math.Round(W * float64(S) * 1e9 / fmhz))
	}

	_, series, _ := dumps(t, tel)
	lines := strings.Split(strings.TrimSpace(series), "\n")[1:] // past the schema line
	col := slices.Index(strings.Split(lines[0], ","), "static_j")
	for _, line := range lines[1:] {
		row := strings.Split(line, ",")
		b, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range at[b] {
			state[c.dev] = c.state
			if c.state == "crashed" {
				vns[c.dev] = nil
			} else if c.vn >= 0 {
				vns[c.dev] = append(vns[c.dev], c.vn)
			}
		}
		var want int64
		for d := range state {
			cycles[d][state[d]] += S
			if state[d] == "active" || state[d] == "powering-up" {
				fj := leak(d)
				want += fj
				staticFJ[d] += fj
			}
		}
		got, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got*1e15-float64(want)) > 1 {
			t.Errorf("row %d: static_j %s, want %.10g (devices %v)", b, row[col], float64(want)/1e15, state)
		}
	}
	run := rep.TrafficCycles + rep.DrainCycles
	for d := range state {
		var sum int64
		for _, c := range cycles[d] {
			sum += c
		}
		if sum != run || state[d] != f.PerDevice[d].State {
			t.Errorf("device %d: %v cycles by state, ending %s; want %d in all, ending %s", d, cycles[d], state[d], run, f.PerDevice[d].State)
		}
		if got := r.devs[d].meter.StaticTotalFJ(); got != staticFJ[d] {
			t.Errorf("device %d: meter leaked %d fJ, its powered cycles %d fJ", d, got, staticFJ[d])
		}
	}
}
