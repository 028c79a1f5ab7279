package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"vrpower/internal/core"
	"vrpower/internal/ctrl"
)

// testEst is a synthetic estimator with simple, predictable costs: a base
// watt per device plus one watt per tenant, with NV paying no base.
func testEst(sch core.Scheme, vns []int) (float64, error) {
	switch sch {
	case core.NV:
		return float64(len(vns)), nil
	case core.VS:
		return 1 + float64(len(vns)), nil
	}
	return 0, fmt.Errorf("unknown scheme %v", sch)
}

// hostOf is the device among n whose tenants, vnsOf(d), include vn; -1 when
// none does (the network is unplaced, homeless or degraded).
func hostOf(n int, vnsOf func(d int) []int, vn int) int {
	for d := 0; d < n; d++ {
		if slices.Contains(vnsOf(d), vn) {
			return d
		}
	}
	return -1
}

// planHost is hostOf over a plan's assignments.
func planHost(p *Plan, vn int) int {
	return hostOf(len(p.Devices), func(d int) []int { return p.Devices[d].VNs }, vn)
}

// ctrHost is hostOf over a controller's serving lists, spares included.
func ctrHost(c *Controller, vn int) int { return hostOf(len(c.state), c.VNs, vn) }

func evenDemands(k int, load float64) map[int]Demand {
	d := make(map[int]Demand, k)
	for vn := 0; vn < k; vn++ {
		d[vn] = Demand{LoadFrac: load}
	}
	return d
}

func TestPlaceBalancedAndDeterministic(t *testing.T) {
	cfg := Config{Devices: 3}
	demands := evenDemands(9, 0.2)
	var first *Plan
	// Go randomises map iteration order, so repeated placements over the
	// same (rebuilt) map exercise order-independence as a property test.
	for i := 0; i < 32; i++ {
		plan, err := Place(cfg, evenDemands(9, 0.2), testEst)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = plan
			continue
		}
		if !reflect.DeepEqual(plan.Devices, first.Devices) {
			t.Fatalf("iteration %d placed differently:\n%+v\nvs\n%+v", i, plan.Devices, first.Devices)
		}
	}
	for d, a := range first.Devices {
		if len(a.VNs) != 3 {
			t.Fatalf("device %d got %d networks, want 3: %+v", d, a.VNs, first.Devices)
		}
		if a.Scheme != core.VS {
			t.Fatalf("device %d scheme %v, want VS", d, a.Scheme)
		}
	}
	for vn := range demands {
		if planHost(first, vn) < 0 {
			t.Fatalf("network %d unplaced", vn)
		}
	}
}

func TestPlaceHeaviestFirst(t *testing.T) {
	demands := map[int]Demand{
		0: {LoadFrac: 0.9},
		1: {LoadFrac: 0.8},
		2: {LoadFrac: 0.1},
		3: {LoadFrac: 0.1},
	}
	plan, err := Place(Config{Devices: 2}, demands, testEst)
	if err != nil {
		t.Fatal(err)
	}
	// Worst-fit-decreasing: the two heavy networks split across devices,
	// the light ones fill in behind them.
	if planHost(plan, 0) == planHost(plan, 1) {
		t.Fatalf("heavy networks share device %d: %+v", planHost(plan, 0), plan.Devices)
	}
}

func TestPlaceSingleTenantIsNV(t *testing.T) {
	plan, err := Place(Config{Devices: 2}, evenDemands(2, 0.5), testEst)
	if err != nil {
		t.Fatal(err)
	}
	for d, a := range plan.Devices {
		if a.Scheme != core.NV {
			t.Fatalf("lone-tenant device %d scheme %v, want NV", d, a.Scheme)
		}
	}
}

func TestPlaceCapRefusesWhatVSCannotMeet(t *testing.T) {
	// VS for 4 tenants on one device costs 5 W. Under a 4 W device cap
	// nothing fits: the placement refuses rather than merging.
	_, err := Place(Config{Devices: 1, DeviceCapWatts: 4}, evenDemands(4, 0.1), testEst)
	if !errors.Is(err, ctrl.ErrNoCapacity) {
		t.Fatalf("err %v, want ErrNoCapacity", err)
	}
}

func TestPlaceSlotsExhausted(t *testing.T) {
	_, err := Place(Config{Devices: 1, SlotsPerDevice: 3}, evenDemands(4, 0.1), testEst)
	if !errors.Is(err, ctrl.ErrNoCapacity) {
		t.Fatalf("err %v, want ErrNoCapacity", err)
	}
}

func newTestController(t *testing.T, cfg Config, k int, load float64) *Controller {
	t.Helper()
	demands := evenDemands(k, load)
	plan, err := Place(cfg, demands, testEst)
	if err != nil {
		t.Fatal(err)
	}
	ctr, err := NewController(cfg, plan, demands, testEst)
	if err != nil {
		t.Fatal(err)
	}
	return ctr
}

func TestCrashPlansMigrationsToSurvivors(t *testing.T) {
	ctr := newTestController(t, Config{Devices: 3}, 6, 0.1)
	victims := append([]int(nil), ctr.VNs(0)...)
	planned, degs, err := ctr.Crash(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(degs) != 0 {
		t.Fatalf("degraded %v, want none", degs)
	}
	if len(planned) != len(victims) {
		t.Fatalf("planned %d migrations for %d victims", len(planned), len(victims))
	}
	if ctr.State(0) != DevCrashed {
		t.Fatalf("state %v, want crashed", ctr.State(0))
	}
	for i, m := range planned {
		if m.VN != victims[i] {
			t.Fatalf("migration %d for vn %d, want serving order %v", i, m.VN, victims)
		}
		if m.To == 0 || ctr.State(m.To) != DevActive {
			t.Fatalf("migration %d targets %d (state %v)", i, m.To, ctr.State(m.To))
		}
		if m.CrashedAt != 1000 || m.Deadline != 1000+ctr.cfg.TimeoutCycles {
			t.Fatalf("stamps %+v", m)
		}
		if ctrHost(ctr, m.VN) != -1 {
			t.Fatalf("victim %d still homed at %d", m.VN, ctrHost(ctr, m.VN))
		}
	}
	// Completing every migration restores full service.
	for _, m := range planned {
		ctr.Begin(m)
		ctr.Complete(m, 2000)
	}
	if ctr.Outstanding() {
		t.Fatal("still outstanding after completes")
	}
	for _, vn := range victims {
		if ctrHost(ctr, vn) < 0 {
			t.Fatalf("victim %d homeless after complete", vn)
		}
	}
}

func TestCrashDegradesWithoutCapacity(t *testing.T) {
	ctr := newTestController(t, Config{Devices: 1}, 4, 0.1)
	planned, degs, err := ctr.Crash(0, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(planned) != 0 {
		t.Fatalf("planned %v with no survivors", planned)
	}
	if len(degs) != 4 {
		t.Fatalf("degraded %d, want all 4", len(degs))
	}
	for _, d := range degs {
		if !errors.Is(d.Err, ctrl.ErrNoCapacity) {
			t.Fatalf("degradation err %v, want ErrNoCapacity", d.Err)
		}
		if !slices.ContainsFunc(ctr.Degraded(), func(p Degradation) bool { return p.VN == d.VN }) {
			t.Fatalf("vn %d not marked degraded", d.VN)
		}
	}
}

func TestFailFollowsBackoffScheduleThenTimesOut(t *testing.T) {
	cfg := Config{Devices: 2, Retry: ctrl.Backoff{Base: 100, Jitter: 0.25, Seed: 9}}
	ctr := newTestController(t, cfg, 4, 0.1)
	planned, _, err := ctr.Crash(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	m := planned[0]
	now := int64(1100)
	for attempt := 1; attempt < MaxAttempts; attempt++ {
		ctr.Begin(m)
		deg := ctr.Fail(m, now)
		if deg != nil {
			t.Fatalf("attempt %d degraded early: %+v", attempt, deg)
		}
		// The reschedule is exactly the seeded exponential backoff.
		want := now + cfg.Retry.Delay(attempt)
		if m.NextTry != want {
			t.Fatalf("attempt %d NextTry %d, want %d", attempt, m.NextTry, want)
		}
		for _, d := range ctr.Due(m.NextTry - 1) {
			if d == m {
				t.Fatalf("attempt %d due before backoff elapsed", attempt)
			}
		}
		now = m.NextTry
	}
	ctr.Begin(m)
	deg := ctr.Fail(m, now)
	if deg == nil {
		t.Fatal("attempt budget spent without degradation")
	}
	if !errors.Is(deg.Err, ctrl.ErrMigrationTimeout) {
		t.Fatalf("degradation err %v, want ErrMigrationTimeout", deg.Err)
	}
	for _, p := range ctr.Pending() {
		if p == m {
			t.Fatal("migration still queued after degradation")
		}
	}
}

func TestFailDeadlineDegrades(t *testing.T) {
	cfg := Config{Devices: 2, TimeoutCycles: 50, Retry: ctrl.Backoff{Base: 100}}
	ctr := newTestController(t, cfg, 4, 0.1)
	planned, _, err := ctr.Crash(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	m := planned[0]
	ctr.Begin(m)
	// The first backoff already lands past the deadline.
	deg := ctr.Fail(m, 1040)
	if deg == nil || !errors.Is(deg.Err, ctrl.ErrMigrationTimeout) {
		t.Fatalf("deg %+v, want ErrMigrationTimeout", deg)
	}
}

func TestSpareWakesAndGatesOnPowerUp(t *testing.T) {
	cfg := Config{Devices: 1, Spares: 1, PowerUpCycles: 500}
	ctr := newTestController(t, cfg, 2, 0.1)
	planned, degs, err := ctr.Crash(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(degs) != 0 || len(planned) != 2 {
		t.Fatalf("planned %d degs %d, want 2/0 via the spare", len(planned), len(degs))
	}
	if ctr.SpareActivations() != 1 {
		t.Fatalf("spare activations %d, want 1", ctr.SpareActivations())
	}
	if ctr.State(1) != DevPoweringUp {
		t.Fatalf("spare state %v, want powering-up", ctr.State(1))
	}
	if due := ctr.Due(1499); len(due) != 0 {
		t.Fatalf("migrations due mid power-up: %v", due)
	}
	due := ctr.Due(1500)
	if len(due) != 2 {
		t.Fatalf("due %d after power-up, want 2", len(due))
	}
	if ctr.State(1) != DevActive {
		t.Fatalf("spare state %v after cold-start, want active", ctr.State(1))
	}
}

func TestFleetCapKeepsSpareDark(t *testing.T) {
	// Powered estimate after the crash is device 1's 1+2=3 W; waking the
	// spare adds an NV estimate of 1 W. A 3.5 W fleet cap refuses it.
	cfg := Config{Devices: 2, Spares: 1, SlotsPerDevice: 2, CapWatts: 3.5}
	ctr := newTestController(t, cfg, 4, 0.1)
	_, degs, err := ctr.Crash(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ctr.SpareActivations() != 0 {
		t.Fatal("spare woke past the fleet cap")
	}
	if len(degs) != 2 {
		t.Fatalf("degraded %d, want both victims (survivor full, spare dark)", len(degs))
	}
}

func TestCrashRetargetsPendingMigrations(t *testing.T) {
	ctr := newTestController(t, Config{Devices: 3}, 6, 0.1)
	planned, _, err := ctr.Crash(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	target := planned[0].To
	other := 1 + 2 - target // the remaining survivor of {1, 2}
	if target != 1 && target != 2 {
		t.Fatalf("unexpected target %d", target)
	}
	planned2, degs, err := ctr.Crash(target, 1100)
	if err != nil {
		t.Fatal(err)
	}
	_ = planned2
	_ = degs
	for _, m := range ctr.Pending() {
		if m.To == target {
			t.Fatalf("pending migration still aimed at crashed device %d", target)
		}
	}
	for _, m := range planned {
		if m.VN == planned[0].VN && m.Retargets == 0 && m.To != other {
			t.Fatalf("migration %+v neither retargeted nor moved", m)
		}
	}
}

func TestControllerDeterministicAcrossMapOrder(t *testing.T) {
	run := func() []int {
		ctr := newTestController(t, Config{Devices: 3, Spares: 1}, 9, 0.1)
		planned, _, err := ctr.Crash(1, 2000)
		if err != nil {
			t.Fatal(err)
		}
		var out []int
		for _, m := range planned {
			out = append(out, m.VN, m.To)
		}
		return out
	}
	first := run()
	for i := 0; i < 16; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d planned %v, first planned %v", i, got, first)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Devices: 0},
		{Devices: 1, Spares: -1},
		{Devices: 1, TimeoutCycles: -1},
	}
	for _, c := range bad {
		if _, err := Place(c, evenDemands(1, 0.1), testEst); err == nil {
			t.Fatalf("Place accepted %+v", c)
		}
	}
	if _, err := Place(Config{Devices: 1}, nil, testEst); err == nil {
		t.Fatal("Place accepted empty demands")
	}
	if _, err := Place(Config{Devices: 1}, evenDemands(1, 0.1), nil); err == nil {
		t.Fatal("Place accepted nil estimator")
	}
}
