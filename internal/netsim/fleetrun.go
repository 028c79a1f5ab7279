package netsim

// This file is the placement that builds every run's device list for the
// one slice runner (scenario.go, whose type comment lists what a fleet run
// does differently) and the fleet stressor behind -scenario
// "fleet=N[:spare=M]": internal/fleet spreads the K virtual networks across
// N simulated devices — each a router of its own (NV for a lone tenant, VS
// otherwise) — and the device-scale faults of faults.DeviceInjector
// (whole-device crashes, brownouts, flaky-reconfig devices) act on the live
// fleet. On a device loss
// the fleet.Controller re-places the victims onto survivors (waking spares
// when the actives are full) and the stressor executes each migration as a
// journaled image build and install with bounded retry under the
// controller's seeded backoff; when the budget runs out the victim degrades
// — its traffic drops, never misforwards — and every landed install is
// audited against the RIB oracle.
// All decisions run at slice boundaries on the coordinating goroutine from
// seeded state, so fleet runs are byte-identical at any -j.

import (
	"fmt"

	"vrpower/internal/core"
	"vrpower/internal/ctrl"
	"vrpower/internal/faults"
	"vrpower/internal/fleet"
	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
	"vrpower/internal/scenario"
)

// FleetReport is the fleet stressor's section of the scenario report.
type FleetReport struct {
	// Devices and Spares mirror the spec's fleet geometry.
	Devices int
	Spares  int
	// PerDevice is the end-of-run state of every device, including spares.
	PerDevice []FleetDeviceReport
	// Crashes is the injected device-loss schedule with its victims.
	Crashes []FleetCrashRecord
	// Migrations records every planned live migration and its outcome.
	Migrations []FleetMigrationRecord
	// Degraded lists the networks parked in degraded mode, in park order.
	Degraded []FleetDegradedRecord
	// MigrationAttempts counts install attempts started; MigrationFailures
	// the attempts the flaky-device injector killed; MigrationsDone the
	// migrations that landed. SpareActivations counts spares powered up.
	MigrationAttempts int
	MigrationFailures int
	MigrationsDone    int
	SpareActivations  int
	// Invariant audits over landed installs.
	AuditTally
}

// MeanMTTRCycles is the average crash-to-recovered latency over migrations
// that landed; 0 when none did.
func (f *FleetReport) MeanMTTRCycles() float64 {
	var sum int64
	n := 0
	for i := range f.Migrations {
		if f.Migrations[i].MTTRCycles >= 0 {
			sum += f.Migrations[i].MTTRCycles
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// FleetDeviceReport is one device's end-of-run summary.
type FleetDeviceReport struct {
	Device int
	State  string
	Scheme string
	// PlacedVNs is the initial placement; VNs the final serving list.
	PlacedVNs []int
	VNs       []int
	// EstWatts is the power model's verdict for the final tenant set (0 for
	// empty, spare or crashed devices).
	EstWatts float64
	// BrownedCycles counts service cycles lost to brownout windows.
	BrownedCycles int64
}

// FleetCrashRecord is one injected whole-device loss.
type FleetCrashRecord struct {
	Seq     int
	Device  int
	Cycle   int64
	Victims []int
}

// FleetMigrationRecord is one victim network's migration lifecycle.
type FleetMigrationRecord struct {
	VN       int
	From, To int
	ToScheme string
	// CrashedAt stamps the device loss; CommittedAt the landed install (-1
	// when the migration never landed). MTTRCycles is their difference (-1
	// when the network degraded instead).
	CrashedAt   int64
	CommittedAt int64
	MTTRCycles  int64
	// Attempts counts installs started; FailedAttempts those the injector
	// killed; Retargets times the migration lost its target mid-plan.
	Attempts       int
	FailedAttempts int
	Retargets      int
	// Writes is the landed install's image size in words.
	Writes int
}

// FleetDegradedRecord is one network parked in degraded mode.
type FleetDegradedRecord struct {
	VN     int
	At     int64
	Reason string
}

// fleetState is what the fleet stressor keeps beside the run's devices.
type fleetState struct {
	cfg fleet.Config
	ctr *fleet.Controller
	inj *faults.DeviceInjector
	est fleet.Estimator

	// mrec maps each migration to its report record, which fleetFinalize
	// completes from where the migration ended (target, scheme, attempts).
	mrec map[*fleet.Migration]int

	// images memoizes each network's separate-engine image: the system
	// router's own where it is built per network, else compiled the first
	// time a router needs it.
	images []*pipeline.Image

	rep *FleetReport
}

// build assembles a device router of scheme sch — NV or VS, what fleet.Place
// chooses — over the tenant networks in serving order. A per-network engine
// image is a function of that network's table alone, so routers are
// assembled over the image memo and each table is compiled once, however
// many tenant sets the placer prices; assembling prices the images' per-level
// counts, O(K · levels) a tenant set. The memoised images are served as they
// are: nothing on the fleet path writes an image, and a network is live on
// one device at a time.
func (r *scenRun) build(sch core.Scheme, vns []int) (*core.Router, error) {
	fl := r.fl
	cfg := r.s.router.Config()
	cfg.Scheme = sch
	cfg.K = len(vns)
	images := make([]*pipeline.Image, 0, len(vns))
	for _, vn := range vns {
		if fl.images[vn] == nil {
			var err error
			if fl.images[vn], err = core.CompileTable(cfg, r.s.tables[vn]); err != nil {
				return nil, err
			}
		}
		images = append(images, fl.images[vn])
	}
	return core.Assemble(cfg, images)
}

// maxLoadFrac is a load shape's peak per-network arrival probability, the
// placement demand.
func maxLoadFrac(l scenario.LoadShape) float64 {
	switch l.Kind {
	case scenario.LoadSaturate:
		return 1
	case scenario.LoadSurge, scenario.LoadRamp:
		return max(l.P0, l.P1)
	default:
		return l.P0
	}
}

// place builds the run's device list: every run is a placement, and every
// device is built by addDevice. Without fleet= it is the identity placement:
// the system's own router is device 0 and serves every network, over clones
// of the control plane's pinned compilation when churn is active (successive
// recompilations diff word for word), of the router's build images
// otherwise. With fleet=, fleet.Place spreads the networks over the spec's
// active devices, each gets a router of the scheme the placement chose, and
// the spares stay dark until a failover wakes them. An active device the
// placement left empty has no router, but is powered all the same.
func (r *scenRun) place() error {
	s, spec := r.s, r.spec
	if spec.Fleet == nil {
		vns := make([]int, s.k)
		for vn := range vns {
			vns[vn] = vn
		}
		var mgr *ctrl.Manager
		var images []*pipeline.Image
		if spec.Churn != nil {
			var err error
			if mgr, err = ctrl.New(s.router.Config(), s.tables); err != nil {
				return err
			}
			mgr.SetEventLog(s.tel.Events)
			if images, err = mgr.PinnedImages(); err != nil {
				return err
			}
		} else {
			for _, img := range s.router.Images() {
				images = append(images, img.Clone())
			}
		}
		dev, err := r.addDevice(s.router, images, vns)
		dev.mgr = mgr
		return err
	}

	plan, err := r.planFleet()
	if err != nil {
		return err
	}
	fl := r.fl
	for d := range fl.rep.PerDevice {
		var rt *core.Router
		var images []*pipeline.Image
		var vns []int
		// A spare or an active device left empty gets no router.
		if d < spec.Fleet.Devices && len(plan.Devices[d].VNs) > 0 {
			a := plan.Devices[d]
			vns = append([]int(nil), a.VNs...)
			fl.rep.PerDevice[d].PlacedVNs = append([]int(nil), a.VNs...)
			if rt, err = r.build(a.Scheme, a.VNs); err != nil {
				return err
			}
			images = rt.Images()
		}
		dev, err := r.addDevice(rt, images, vns)
		if err != nil {
			return err
		}
		dev.jr = ctrl.NewJournal()
		dev.jr.SetEventLog(s.tel.Events)
	}
	for _, w := range fl.inj.Brownouts() {
		r.devs[w.Device].brownouts = append(r.devs[w.Device].brownouts, w)
		s.tel.Events.Log(obs.LevelWarn, w.Start, "brownout_window",
			"device", w.Device, "start", w.Start, "end", w.End)
	}
	return nil
}

// planFleet sets up the fleet stressor's state and returns fleet.Place's
// plan for the spec's devices.
func (r *scenRun) planFleet() (*fleet.Plan, error) {
	s, spec, f := r.s, r.spec, r.spec.Fleet
	// At most K devices host a network at once, and a network leaves a
	// device only when it crashes, so no more than K + devcrashes devices
	// can ever host one.
	crashes := 0
	if spec.Chaos != nil {
		crashes = spec.Chaos.DeviceCrashes
	}
	if f.Devices > s.k+crashes || f.Spares > s.k+crashes-f.Devices {
		return nil, fmt.Errorf("netsim: fleet of %d devices + %d spares over %d networks and %d device crashes, want at most networks + crashes devices",
			f.Devices, f.Spares, s.k, crashes)
	}
	fl := &fleetState{
		mrec:   map[*fleet.Migration]int{},
		images: make([]*pipeline.Image, s.k),
		rep:    &FleetReport{Devices: f.Devices, Spares: f.Spares, PerDevice: make([]FleetDeviceReport, f.Devices+f.Spares)},
	}
	r.fl = fl
	if s.router.Config().Scheme != core.VM {
		// The system's router was built per network from these tables under
		// this very configuration: its images are the memo's first entries.
		copy(fl.images, s.router.Images())
	}
	fl.est = func(sch core.Scheme, vns []int) (float64, error) {
		rt, err := r.build(sch, vns)
		if err != nil {
			return 0, err
		}
		bd, err := rt.ModelPower()
		if err != nil {
			return 0, err
		}
		return bd.Total(), nil
	}

	demands := make(map[int]fleet.Demand, s.k)
	peak := maxLoadFrac(spec.Load)
	for vn := 0; vn < s.k; vn++ {
		demands[vn] = fleet.Demand{LoadFrac: peak}
	}
	retryBase := spec.Slice / 4
	if retryBase < 1 {
		retryBase = 256
	}
	fl.cfg = fleet.Config{
		Devices:        f.Devices,
		Spares:         f.Spares,
		SlotsPerDevice: 15,
		DeviceCapWatts: spec.DeviceCapW,
		CapWatts:       spec.CapW,
		Retry:          ctrl.Backoff{Base: retryBase, Jitter: 0.25, Seed: spec.Seed},
		TimeoutCycles:  spec.Cycles,
		PowerUpCycles:  2 * spec.Slice,
	}
	plan, err := fleet.Place(fl.cfg, demands, fl.est)
	if err != nil {
		return nil, err
	}
	if fl.ctr, err = fleet.NewController(fl.cfg, plan, demands, fl.est); err != nil {
		return nil, err
	}
	dc := faults.DeviceConfig{Seed: spec.Seed, Devices: f.Devices, Window: spec.Cycles}
	if spec.Chaos != nil {
		dc.Crashes = spec.Chaos.DeviceCrashes
		dc.Brownouts = spec.Chaos.Brownouts
		dc.Flaky = spec.Chaos.FlakyDevices
	}
	if fl.inj, err = faults.NewDeviceInjector(dc); err != nil {
		return nil, err
	}
	return plan, nil
}

// fleetDrainSlices is the drain a fleet's failovers can need: per crash,
// every victim a device can hold through its whole retry ladder, each
// attempt writing at most the largest image (scenRun.reloadWords).
func (r *scenRun) fleetDrainSlices() int {
	cfg, crashes := r.fl.cfg, len(r.fl.inj.Crashes())
	var backoffSum int64
	for a := 1; a <= fleet.MaxAttempts; a++ {
		backoffSum += cfg.Retry.Delay(a)
	}
	perVictim := int64(r.reloadWords)*fleet.MaxAttempts + backoffSum + cfg.PowerUpCycles
	return crashes * (cfg.SlotsPerDevice*int(perVictim/r.spec.Slice+1) + 8)
}

// fleetSliceStats is the fleet's share of a slice's telemetry row: installs
// in flight, migrations pending and landed, networks parked; zero without.
func (r *scenRun) fleetSliceStats() (installs, migrating, landed, parked int) {
	if r.fl == nil {
		return 0, 0, 0, 0
	}
	for _, dev := range r.devs {
		if dev.m != nil {
			installs++
		}
	}
	return installs, len(r.fl.ctr.Pending()), r.fl.rep.MigrationsDone, len(r.fl.ctr.Degraded())
}

// fleetFinalize closes the fleet section at run end: a fleet has recovered
// when no network is parked or still migrating.
func (r *scenRun) fleetFinalize() error {
	fl := r.fl
	if fl == nil {
		return nil
	}
	ctr, frep := fl.ctr, fl.rep
	r.rep.Recovered = r.rep.Recovered && len(ctr.Degraded()) == 0 && len(ctr.Pending()) == 0
	for m, i := range fl.mrec {
		rec := &frep.Migrations[i]
		rec.To, rec.ToScheme, rec.Retargets, rec.Attempts = m.To, m.ToScheme.String(), m.Retargets, m.Attempts
	}
	for d, dev := range r.devs {
		dr := &frep.PerDevice[d]
		dr.Device = d
		dr.State = ctr.State(d).String()
		dr.Scheme = ctr.Scheme(d).String()
		dr.VNs = append([]int(nil), ctr.VNs(d)...)
		dr.BrownedCycles = dev.browned
		if ctr.State(d) == fleet.DevActive && len(dr.VNs) > 0 {
			w, err := fl.est(ctr.Scheme(d), dr.VNs)
			if err != nil {
				return err
			}
			dr.EstWatts = w
		}
	}
	r.rep.Fleet = frep
	return nil
}

// degradeCleanup parks a network: its held queue drops (never misforwards)
// and the degradation is recorded.
func (r *scenRun) degradeCleanup(d fleet.Degradation) {
	if n := r.queues[d.VN].len(); n > 0 {
		r.refuse(d.VN, int64(n))
		r.queues[d.VN].reset()
	}
	r.fl.rep.Degraded = append(r.fl.rep.Degraded, FleetDegradedRecord{VN: d.VN, At: d.At, Reason: d.Err.Error()})
	r.s.tel.Events.Log(obs.LevelError, d.At, "vn_degraded", "vn", d.VN, "reason", d.Err.Error())
}

// ---- fleet stressor -------------------------------------------------------

// fleetStressor drives the failure-domain lifecycle at slice boundaries:
// injected crashes first (re-planning their victims), then deadline sweeps,
// then install landings, then new attempt starts — each step's decisions
// visible to the next.
type fleetStressor struct {
	scenario.NopStressor
	r *scenRun
}

func (fleetStressor) Name() string { return "fleet" }

func (f fleetStressor) Boundary(b int64, _ bool) error {
	r := f.r
	fl, ctr, tel := r.fl, r.fl.ctr, r.s.tel

	// 1. Device crashes scheduled before this boundary.
	for _, cr := range fl.inj.CrashesThrough(b) {
		if ctr.State(cr.Device) == fleet.DevCrashed {
			continue
		}
		dev := r.devs[cr.Device]
		victims := append([]int(nil), ctr.VNs(cr.Device)...)
		// An install mid-flight on the crashed device is void: the journal
		// aborts and the controller re-plans the migration below.
		if dev.m != nil {
			_ = dev.tok.Abort(cr.Cycle)
			dev.install = install{}
		}
		// The pipelines' contents are lost; the tenants are homeless.
		for _, e := range dev.engines {
			r.flushExits(e)
			r.retire(e.sim)
		}
		for _, vn := range victims {
			r.home[vn] = nil
		}
		dev.engines, dev.router = nil, nil
		planned, degs, woke, err := ctr.Crash(cr.Device, cr.Cycle)
		if err != nil {
			return err
		}
		tel.Events.Log(obs.LevelError, cr.Cycle, "device_crash",
			"device", cr.Device, "victims", len(victims), "migrations", len(planned), "degraded", len(degs))
		fl.rep.Crashes = append(fl.rep.Crashes, FleetCrashRecord{
			Seq: cr.Seq, Device: cr.Device, Cycle: cr.Cycle, Victims: victims,
		})
		for _, m := range planned {
			fl.mrec[m] = len(fl.rep.Migrations)
			fl.rep.Migrations = append(fl.rep.Migrations, FleetMigrationRecord{
				VN: m.VN, From: m.From, CrashedAt: m.CrashedAt, CommittedAt: -1, MTTRCycles: -1,
			})
		}
		for _, d := range degs {
			r.degradeCleanup(d)
		}
		fl.rep.SpareActivations += len(woke)
		for _, d := range woke {
			tel.Events.Log(obs.LevelInfo, cr.Cycle, "spare_powerup",
				"device", d, "ready_at", cr.Cycle+fl.cfg.PowerUpCycles)
		}
		// The crashed device goes dark, the spares it woke power up.
		for _, d := range append(woke, cr.Device) {
			if err := r.rebase(r.devs[d]); err != nil {
				return err
			}
		}
	}

	// 2. Deadline sweep: a pending migration past its deadline degrades
	// even if its backoff or target power-up never let an attempt start.
	for _, m := range append([]*fleet.Migration(nil), ctr.Pending()...) {
		if r.devs[m.To].m == m || b <= m.Deadline {
			continue // its install is in flight, or it has time left
		}
		if deg := ctr.Fail(m, b); deg != nil {
			tel.Events.Log(obs.LevelWarn, b, "migration_timeout",
				"vn", m.VN, "to", m.To, "attempts", m.Attempts)
			r.degradeCleanup(*deg)
		}
	}

	// 3. Land installs whose write window completed.
	for _, dev := range r.devs {
		if dev.m != nil && b >= dev.landAt {
			if err := r.landInstall(dev); err != nil {
				return err
			}
		}
	}

	// 4. Spares whose cold-start lapsed become active.
	for _, d := range ctr.Advance(b) {
		tel.Events.Log(obs.LevelInfo, b, "spare_ready", "device", d)
		if err := r.rebase(r.devs[d]); err != nil {
			return err
		}
	}

	// 5. Start due attempts (backoff elapsed, target active and idle — this
	// migration's own install in flight keeps it busy too).
	for _, m := range ctr.Due(b) {
		if r.devs[m.To].m != nil {
			continue
		}
		if err := r.beginAttempt(m, b); err != nil {
			return err
		}
	}
	return nil
}

func (f fleetStressor) Outstanding() bool {
	installs, migrating, _, _ := f.r.fleetSliceStats()
	return installs+migrating > 0
}

// beginAttempt starts one journaled install attempt for migration m: the
// target device's new router is assembled, the journal records intent and
// the write window opens (one word per cycle) for the migrating network's
// image, which lands as the engine one past the tenants served. A flaky
// device may kill the attempt at the journal boundary; the controller then
// paces the retry or degrades the victim.
func (r *scenRun) beginAttempt(m *fleet.Migration, b int64) error {
	fl, ctr, tel := r.fl, r.fl.ctr, r.s.tel
	ctr.Begin(m)
	fl.rep.MigrationAttempts++
	dev := r.devs[m.To]
	engIdx := len(ctr.VNs(m.To))
	tok, err := dev.jr.Begin(ctrl.OpCommit, engIdx, m.VN, b)
	if err != nil {
		return err
	}
	if fl.inj.FailMigration(m.To) {
		_ = tok.Abort(b)
		fl.rep.MigrationFailures++
		fl.rep.Migrations[fl.mrec[m]].FailedAttempts++
		tel.Events.Log(obs.LevelWarn, b, "migration_fail",
			"vn", m.VN, "to", m.To, "attempt", m.Attempts)
		if deg := ctr.Fail(m, b); deg != nil {
			r.degradeCleanup(*deg)
		}
		return nil
	}

	newVNs := append(append([]int(nil), ctr.VNs(m.To)...), m.VN)
	rt, err := r.build(m.ToScheme, newVNs)
	if err != nil {
		return err
	}
	writes := rt.Images()[engIdx].Words()
	tok.Apply(0, writes, b)
	dev.m = m
	dev.tok = tok
	dev.pending = rt
	dev.writes = writes
	dev.landAt = b + int64(writes)
	tel.Events.Log(obs.LevelInfo, b, "migration_start",
		"vn", m.VN, "from", m.From, "to", m.To, "scheme", m.ToScheme.String(),
		"attempt", m.Attempts, "writes", writes, "ready_at", dev.landAt)
	return nil
}

// landInstall commits a completed install: the journal closes, the device
// gains one engine over the migrating network's image, the energy meter
// moves onto the new power model, and the landed image is audited against
// the RIB oracle before the network rejoins service.
func (r *scenRun) landInstall(dev *device) error {
	fl, ctr, tel := r.fl, r.fl.ctr, r.s.tel
	m := dev.m
	at := dev.landAt
	if err := dev.tok.Commit(at); err != nil {
		return err
	}
	dev.router = dev.pending
	if err := r.rebase(dev); err != nil {
		return err
	}
	engIdx := len(ctr.VNs(m.To))
	// The install's word writes are control-plane energy on the landed
	// engine, attributed to the migrating network.
	dev.meter.AddWords(engIdx, m.VN, int64(dev.writes))

	// Per-network images depend only on their own table, so the surviving
	// engines' images are byte-identical in the new build: the install
	// appends one engine while the others keep serving.
	e := r.newEngine(dev, dev.pending.Images()[engIdx], []int{m.VN})
	fl.rep.add(r.audit(e, at, "device", dev.id, "vn", m.VN))
	ctr.Complete(m, at)

	fl.rep.MigrationsDone++
	rec := &fl.rep.Migrations[fl.mrec[m]]
	rec.CommittedAt = at
	rec.MTTRCycles = at - m.CrashedAt
	rec.Writes = dev.writes
	tel.Events.Log(obs.LevelInfo, at, "migration_commit",
		"vn", m.VN, "from", m.From, "to", m.To, "attempts", m.Attempts,
		"writes", dev.writes, "mttr_cycles", rec.MTTRCycles)
	dev.install = install{}
	return nil
}
