// Package fleet is the multi-device orchestration layer: it bin-packs
// virtual networks across N simulated FPGA devices — a device with one
// tenant is non-virtualized (NV), one with more virtualized-separate (VS) —
// and keeps the placement alive under device-scale faults by re-placing
// the victims of a crashed device onto the survivors and driving their
// live migrations with bounded retry, timeout and exponential backoff.
//
// One XC6VLX760 caps out at K=15 virtual routers (VS), so the paper's
// schemes only reach fleet scale through a layer like this one; the
// placement formulation follows the power-aware VNF placement literature
// (PAPERS.md): every decision is feasibility-checked against a per-device
// power cap through a caller-supplied estimator over the real power model.
//
// Determinism: Place sorts the demand map's keys before any decision, the
// failover controller makes every choice in device-id and serving order,
// and retry pacing is the shared seeded ctrl.Backoff — a fleet's lifecycle
// is a pure function of (Config, demands, crash schedule), independent of
// map iteration order and worker count.
package fleet

import (
	"fmt"
	"sort"

	"vrpower/internal/core"
	"vrpower/internal/ctrl"
)

// Config parameterises a fleet: its size, per-device limits, and the
// failover controller's retry policy.
type Config struct {
	// Devices is the number of active devices the initial placement spans.
	Devices int
	// Spares is the number of powered-down standby devices. Spares pay no
	// static power until a failover powers them up.
	Spares int
	// SlotsPerDevice caps the virtual networks one device hosts (the
	// XC6VLX760 VS limit of 15 when zero).
	SlotsPerDevice int
	// DeviceCapWatts is the per-device power cap every placement and
	// failover decision must respect (the governor's fleet-wide hook);
	// 0 places uncapped.
	DeviceCapWatts float64
	// CapWatts is the fleet-wide power cap: a spare whose power-up would
	// push the powered fleet's estimate past it stays dark. 0 is uncapped.
	CapWatts float64
	// Retry paces migration re-attempts (seeded exponential backoff).
	Retry ctrl.Backoff
	// TimeoutCycles bounds a migration's lifetime from the crash that
	// caused it (default 1<<20 cycles).
	TimeoutCycles int64
	// PowerUpCycles is a spare's cold-start latency (default 2048).
	PowerUpCycles int64
}

// MaxAttempts bounds the attempts per migration; when the budget or
// Config.TimeoutCycles runs out the victim degrades instead of retrying
// forever.
const MaxAttempts = 4

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.SlotsPerDevice == 0 {
		c.SlotsPerDevice = 15
	}
	if c.TimeoutCycles == 0 {
		c.TimeoutCycles = 1 << 20
	}
	if c.PowerUpCycles == 0 {
		c.PowerUpCycles = 2048
	}
	if c.Retry.Base == 0 {
		c.Retry.Base = 256
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Devices < 1 {
		return fmt.Errorf("fleet: %d devices, want >= 1", c.Devices)
	}
	if c.Spares < 0 {
		return fmt.Errorf("fleet: %d spares, want >= 0", c.Spares)
	}
	if c.SlotsPerDevice < 0 {
		return fmt.Errorf("fleet: %d slots per device, want >= 0", c.SlotsPerDevice)
	}
	if c.TimeoutCycles < 0 || c.PowerUpCycles < 0 {
		return fmt.Errorf("fleet: negative timeout/power-up bounds")
	}
	return nil
}

// Demand is one virtual network's placement requirements.
type Demand struct {
	// LoadFrac is the network's offered load as a fraction of line rate.
	LoadFrac float64
}

// Estimator evaluates the power model for a candidate device hosting vns
// under scheme — typically power.Estimate over a single-device design built
// from the networks' tables. It must be a pure function of its arguments.
type Estimator func(scheme core.Scheme, vns []int) (watts float64, err error)

// Assignment is one device's share of a placement.
type Assignment struct {
	Device int
	Scheme core.Scheme
	// VNs is the device's serving order: placement order initially,
	// migrations append.
	VNs []int
	// LoadFrac is the aggregate demand; EstWatts the estimator's verdict
	// for the chosen scheme.
	LoadFrac float64
	EstWatts float64
}

// Plan is a full fleet placement: one assignment per active device, in
// device order. Spares do not appear (they host nothing).
type Plan struct {
	Devices []Assignment
	// byVN maps each network to its device.
	byVN map[int]int
}

// DeviceOf returns the device hosting vn, or -1.
func (p *Plan) DeviceOf(vn int) int {
	d, ok := p.byVN[vn]
	if !ok {
		return -1
	}
	return d
}

// chooseScheme picks a device organisation for a tenant set: NV for a lone
// network (no virtualization overhead), VS otherwise. The merged scheme is
// never a candidate: with the calibrated model a merged pipeline loses fmax
// and mW/Gbps as K grows (the paper's Fig. 8), and over 90 priced tenant
// sets S (50 to 30 000 prefixes per network, K = 2–6, three seeds) none had
// VM(S) < VS(S) while VS(S) > NV({a}) for a tenant a — the combination a
// device cap needs before it could admit a merge that VS breaks.
func chooseScheme(est Estimator, vns []int) (core.Scheme, float64, error) {
	sch := core.VS
	if len(vns) == 1 {
		sch = core.NV
	}
	w, err := est(sch, vns)
	return sch, w, err
}

// fits reports whether a device may host the tenant set at all (slots and
// per-device cap under the chosen scheme).
func fits(cfg Config, est Estimator, vns []int) (core.Scheme, float64, bool, error) {
	if len(vns) > cfg.SlotsPerDevice {
		return core.VS, 0, false, nil
	}
	sch, w, err := chooseScheme(est, vns)
	if err != nil {
		return sch, 0, false, err
	}
	if cfg.DeviceCapWatts > 0 && w > cfg.DeviceCapWatts {
		return sch, w, false, nil
	}
	return sch, w, true, nil
}

// Place bin-packs the demands across cfg.Devices active devices. The
// algorithm is balanced worst-fit-decreasing: networks sorted by demand
// (heaviest first, VNID breaking ties) each go to the least-loaded device
// that still fits them — slots, load and the per-device power cap all
// checked through the estimator. The demand map's iteration order never
// influences the result. Returns ErrNoCapacity (wrapped, naming the
// network) when a network fits nowhere.
func Place(cfg Config, demands map[int]Demand, est Estimator) (*Plan, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(demands) == 0 {
		return nil, fmt.Errorf("fleet: no demands to place")
	}
	if est == nil {
		return nil, fmt.Errorf("fleet: nil estimator")
	}
	order := make([]int, 0, len(demands))
	for vn := range demands {
		if vn < 0 {
			return nil, fmt.Errorf("fleet: demand for network %d, want >= 0", vn)
		}
		order = append(order, vn)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := demands[order[i]], demands[order[j]]
		if di.LoadFrac != dj.LoadFrac {
			return di.LoadFrac > dj.LoadFrac
		}
		return order[i] < order[j]
	})

	plan := &Plan{Devices: make([]Assignment, cfg.Devices), byVN: make(map[int]int, len(demands))}
	for d := range plan.Devices {
		plan.Devices[d].Device = d
	}
	for _, vn := range order {
		best := -1
		for d := range plan.Devices {
			a := &plan.Devices[d]
			if len(a.VNs) >= cfg.SlotsPerDevice {
				continue
			}
			cand := append(append([]int(nil), a.VNs...), vn)
			_, _, ok, err := fits(cfg, est, cand)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			if best < 0 || a.LoadFrac < plan.Devices[best].LoadFrac {
				best = d
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("fleet: placing network %d across %d devices: %w",
				vn, cfg.Devices, ctrl.ErrNoCapacity)
		}
		a := &plan.Devices[best]
		a.VNs = append(a.VNs, vn)
		a.LoadFrac += demands[vn].LoadFrac
		plan.byVN[vn] = best
	}
	for d := range plan.Devices {
		a := &plan.Devices[d]
		if len(a.VNs) == 0 {
			a.Scheme = core.VS
			continue
		}
		sch, w, err := chooseScheme(est, a.VNs)
		if err != nil {
			return nil, err
		}
		a.Scheme, a.EstWatts = sch, w
	}
	return plan, nil
}
