package fleet

// The failover controller: device lifecycle bookkeeping plus the
// re-placement and retry policy that keeps victim networks alive after a
// device-scale fault. The controller decides (who migrates where, when to
// retry, when to give up); the run harness executes (image rebuilds,
// journaled installs, audits) and reports each attempt's outcome back.

import (
	"fmt"

	"vrpower/internal/core"
	"vrpower/internal/ctrl"
)

// DeviceState is one device's lifecycle position. A device is powered, and
// pays static power, exactly while it is powering up or active.
type DeviceState int

const (
	// DevActive devices serve traffic, or stand empty; either way they pay
	// static power.
	DevActive DeviceState = iota
	// DevSpare devices are powered down: no tenants, no static power.
	DevSpare
	// DevPoweringUp devices are mid cold-start; they accept planned
	// migrations but install nothing until Advance makes them active.
	DevPoweringUp
	// DevCrashed devices are gone for the rest of the run.
	DevCrashed
)

// String names the state for reports and events.
func (s DeviceState) String() string {
	switch s {
	case DevActive:
		return "active"
	case DevSpare:
		return "spare"
	case DevPoweringUp:
		return "powering-up"
	case DevCrashed:
		return "crashed"
	default:
		return fmt.Sprintf("DeviceState(%d)", int(s))
	}
}

// Migration is one victim network's pending move. The controller owns the
// retry bookkeeping; the harness performs the attempts.
type Migration struct {
	VN       int
	From, To int
	// ToScheme is the target device's organisation once the network lands
	// (an NV target becomes VS when it accepts a second tenant).
	ToScheme core.Scheme
	// CrashedAt stamps the device loss; Deadline = CrashedAt + timeout.
	CrashedAt int64
	Deadline  int64
	// Attempts counts performed attempts; NextTry is the earliest cycle
	// the next one may start (backoff-paced).
	Attempts int
	NextTry  int64
	// Retargets counts times the migration lost its target device mid-plan.
	Retargets int
}

// Degradation records one network parked in degraded mode: its traffic is
// dropped (never misforwarded) for the rest of the run.
type Degradation struct {
	VN  int
	At  int64
	Err error
}

// Controller tracks device states and drives failover decisions. It is
// driven from a single coordinating goroutine.
type Controller struct {
	cfg     Config
	est     Estimator
	demands map[int]Demand

	state   []DeviceState
	scheme  []core.Scheme
	vns     [][]int
	load    []float64
	readyAt []int64 // power-up completion per device

	queue    []*Migration
	degraded []Degradation
}

// NewController wraps an initial placement. The plan's devices become
// active; cfg.Spares more devices start powered down.
func NewController(cfg Config, plan *Plan, demands map[int]Demand, est Estimator) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(plan.Devices) != cfg.Devices {
		return nil, fmt.Errorf("fleet: plan spans %d devices, config says %d", len(plan.Devices), cfg.Devices)
	}
	total := cfg.Devices + cfg.Spares
	c := &Controller{
		cfg: cfg, est: est, demands: demands,
		state:   make([]DeviceState, total),
		scheme:  make([]core.Scheme, total),
		vns:     make([][]int, total),
		load:    make([]float64, total),
		readyAt: make([]int64, total),
	}
	for d := cfg.Devices; d < total; d++ {
		c.state[d] = DevSpare
	}
	for d, a := range plan.Devices {
		c.scheme[d] = a.Scheme
		c.vns[d] = append([]int(nil), a.VNs...)
		c.load[d] = a.LoadFrac
	}
	return c, nil
}

// State returns device d's lifecycle state.
func (c *Controller) State(d int) DeviceState { return c.state[d] }

// Powered reports whether device d draws power: powering up or active.
func (c *Controller) Powered(d int) bool {
	return c.state[d] == DevActive || c.state[d] == DevPoweringUp
}

// Scheme returns device d's current organisation.
func (c *Controller) Scheme(d int) core.Scheme { return c.scheme[d] }

// VNs returns device d's tenants in serving order.
func (c *Controller) VNs(d int) []int { return c.vns[d] }

// Degraded returns the networks parked in degraded mode, in park order.
func (c *Controller) Degraded() []Degradation { return c.degraded }

// Pending returns the pending migrations in decision order.
func (c *Controller) Pending() []*Migration { return c.queue }

// poweredEstimate sums the power estimates of every non-crashed, non-spare
// device (the fleet-wide cap's left-hand side), with extra added for a
// candidate power-up.
func (c *Controller) poweredEstimate(extraVNs []int) (float64, error) {
	var sum float64
	for d := range c.state {
		if !c.Powered(d) || len(c.vns[d]) == 0 {
			continue
		}
		w, err := c.est(c.scheme[d], c.vns[d])
		if err != nil {
			return 0, err
		}
		sum += w
	}
	if len(extraVNs) > 0 {
		w, err := c.est(core.NV, extraVNs)
		if err != nil {
			return 0, err
		}
		sum += w
	}
	return sum, nil
}

// inbound lists the networks already planned onto device d (pending
// migrations), so capacity checks see the device's committed future, not
// just its present tenants.
func (c *Controller) inbound(d int) []int {
	var vns []int
	for _, m := range c.queue {
		if m.To == d {
			vns = append(vns, m.VN)
		}
	}
	return vns
}

// pickTarget chooses the device that will receive vn: the least-loaded
// powered device that fits it (slots + per-device cap, counting planned
// inbound migrations), else the lowest-numbered spare whose power-up the
// fleet cap allows. Returns the device, its post-accept scheme, and
// whether a spare was woken.
func (c *Controller) pickTarget(vn int) (dev int, sch core.Scheme, wokeSpare bool, err error) {
	best, bestLoad := -1, 0.0
	var bestScheme core.Scheme
	for d := range c.state {
		if !c.Powered(d) {
			continue
		}
		cand := append(append([]int(nil), c.vns[d]...), c.inbound(d)...)
		cand = append(cand, vn)
		s, _, ok, ferr := fits(c.cfg, c.est, cand)
		if ferr != nil {
			return -1, core.VS, false, ferr
		}
		if !ok {
			continue
		}
		load := c.load[d]
		for _, ivn := range c.inbound(d) {
			load += c.demands[ivn].LoadFrac
		}
		if best < 0 || load < bestLoad {
			best, bestLoad, bestScheme = d, load, s
		}
	}
	if best >= 0 {
		return best, bestScheme, false, nil
	}
	for d := range c.state {
		if c.state[d] != DevSpare {
			continue
		}
		if c.cfg.CapWatts > 0 {
			sum, ferr := c.poweredEstimate([]int{vn})
			if ferr != nil {
				return -1, core.VS, false, ferr
			}
			if sum > c.cfg.CapWatts {
				break // the fleet cap keeps every remaining spare dark
			}
		}
		return d, core.NV, true, nil
	}
	return -1, core.VS, false, nil
}

// degrade parks vn: its traffic drops (never misforwards) for the rest of
// the run.
func (c *Controller) degrade(vn int, at int64, err error) Degradation {
	deg := Degradation{VN: vn, At: at, Err: err}
	c.degraded = append(c.degraded, deg)
	return deg
}

// Crash marks device dev lost at cycle at. Victim networks are re-planned
// in serving order: each gets a pending migration to a surviving target
// (waking a spare when the actives are full), or degrades with
// ErrNoCapacity when the surviving fleet cannot take it. Pending
// migrations that targeted the crashed device are re-planned the same way
// (their attempt count survives; the retarget is stamped). Returns the
// planned migrations and degradations this crash caused, in decision
// order, and the spares it woke.
func (c *Controller) Crash(dev int, at int64) (planned []*Migration, degs []Degradation, woke []int, err error) {
	if dev < 0 || dev >= len(c.state) {
		return nil, nil, nil, fmt.Errorf("fleet: crash of device %d with %d devices", dev, len(c.state))
	}
	if c.state[dev] == DevCrashed {
		return nil, nil, nil, nil
	}
	victims := append([]int(nil), c.vns[dev]...)
	c.state[dev] = DevCrashed
	c.vns[dev] = nil
	c.load[dev] = 0

	// A woken spare powers up now and becomes active PowerUpCycles later.
	wake := func(d int) {
		c.state[d] = DevPoweringUp
		c.readyAt[d] = at + c.cfg.PowerUpCycles
		woke = append(woke, d)
	}
	// Re-plan migrations that had chosen the dead device as their target.
	for _, m := range c.queue {
		if m.To != dev {
			continue
		}
		to, sch, spare, err := c.pickTarget(m.VN)
		if err != nil {
			return nil, nil, nil, err
		}
		if to < 0 {
			c.dropMigration(m)
			degs = append(degs, c.degrade(m.VN, at, fmt.Errorf("re-placing network %d after %w: %w",
				m.VN, ctrl.ErrDeviceLost, ctrl.ErrNoCapacity)))
			continue
		}
		if spare {
			wake(to)
		}
		m.To, m.ToScheme = to, sch
		m.Retargets++
	}
	// Plan the crashed device's own tenants.
	for _, vn := range victims {
		to, sch, spare, err := c.pickTarget(vn)
		if err != nil {
			return nil, nil, nil, err
		}
		if to < 0 {
			degs = append(degs, c.degrade(vn, at, fmt.Errorf("placing network %d after device %d loss: %w",
				vn, dev, ctrl.ErrNoCapacity)))
			continue
		}
		if spare {
			wake(to)
		}
		m := &Migration{
			VN: vn, From: dev, To: to, ToScheme: sch,
			CrashedAt: at, Deadline: at + c.cfg.TimeoutCycles, NextTry: at,
		}
		c.queue = append(c.queue, m)
		planned = append(planned, m)
	}
	return planned, degs, woke, nil
}

// Advance ends the cold-start of every spare whose power-up has lapsed by
// cycle now: each becomes active. Returns them in device order.
func (c *Controller) Advance(now int64) (ready []int) {
	for d, s := range c.state {
		if s == DevPoweringUp && c.readyAt[d] <= now {
			c.state[d] = DevActive
			ready = append(ready, d)
		}
	}
	return ready
}

// Due returns the migrations whose next attempt may start at cycle now:
// backoff elapsed and the target device active. Decision order.
func (c *Controller) Due(now int64) []*Migration {
	var due []*Migration
	for _, m := range c.queue {
		if m.NextTry <= now && c.state[m.To] == DevActive {
			due = append(due, m)
		}
	}
	return due
}

// Begin stamps one attempt started at cycle now.
func (c *Controller) Begin(m *Migration) { m.Attempts++ }

// Fail records a failed attempt and reschedules it after the seeded
// exponential backoff. When the attempt budget or the deadline is spent
// the network degrades instead; the returned Degradation is non-nil in
// that case and the migration leaves the queue.
func (c *Controller) Fail(m *Migration, now int64) *Degradation {
	next := now + c.cfg.Retry.Delay(m.Attempts)
	if m.Attempts >= MaxAttempts || next > m.Deadline {
		c.dropMigration(m)
		c.degrade(m.VN, now, fmt.Errorf("migrating network %d to device %d after %d attempts: %w",
			m.VN, m.To, m.Attempts, ctrl.ErrMigrationTimeout))
		return &c.degraded[len(c.degraded)-1]
	}
	m.NextTry = next
	return nil
}

// Complete lands a migration: the network joins its target's serving list
// and the device's organisation follows the plan's choice.
func (c *Controller) Complete(m *Migration, now int64) {
	c.dropMigration(m)
	c.vns[m.To] = append(c.vns[m.To], m.VN)
	c.load[m.To] += c.demands[m.VN].LoadFrac
	c.scheme[m.To] = m.ToScheme
}

// dropMigration removes m from the pending queue.
func (c *Controller) dropMigration(m *Migration) {
	for i, q := range c.queue {
		if q == m {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}
