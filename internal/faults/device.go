package faults

// Device-scale fault injection for the fleet layer: whole-device crashes,
// partial brownouts (a device that serves only alternate cycles for a
// window), and flaky-reconfig devices that fail migration installs
// probabilistically. Like the SEU injector, every schedule is a pure
// function of the seed and the fleet geometry, so fleet runs stay
// byte-identical at any worker count.

import (
	"fmt"
	"math/rand"
	"sort"

	"vrpower/internal/obs"
)

var (
	obsDeviceCrashes    = obs.NewCounter("faults.device_crashes")
	obsBrownouts        = obs.NewCounter("faults.brownouts_injected")
	obsMigrationsFailed = obs.NewCounter("faults.migration_failures_injected")
)

// DeviceConfig parameterises a DeviceInjector. The zero value injects
// nothing.
type DeviceConfig struct {
	// Seed drives every schedule; equal seeds give equal fault decks.
	Seed int64
	// Devices is the pool faults are drawn over (the initially active
	// fleet; spares wake too late to be in the blast radius).
	Devices int
	// Crashes is the number of whole-device crashes to schedule, each on a
	// distinct device, at cycles drawn uniformly over the middle half of
	// Window.
	Crashes int
	// Brownouts is the number of brownout windows: the device serves only
	// every other cycle while browned.
	Brownouts int
	// Flaky marks this many distinct devices as flaky reconfigurers: a
	// migration install on one fails with probability FlakyFailProb.
	Flaky int
	// FlakyFailProb is the per-attempt failure probability on a flaky
	// device (default 0.75 — most attempts fail, exercising the backoff
	// ladder).
	FlakyFailProb float64
	// Window is the run length schedules are drawn over.
	Window int64
	// BrownoutCycles is each brownout's duration (default Window/8).
	BrownoutCycles int64
}

// Validate reports configuration errors.
func (c DeviceConfig) Validate() error {
	if c.Devices < 1 {
		return fmt.Errorf("faults: device injector over %d devices, want >= 1", c.Devices)
	}
	if c.Crashes < 0 || c.Brownouts < 0 || c.Flaky < 0 {
		return fmt.Errorf("faults: negative device fault counts (crashes %d, brownouts %d, flaky %d)",
			c.Crashes, c.Brownouts, c.Flaky)
	}
	if c.Crashes > c.Devices {
		return fmt.Errorf("faults: %d device crashes over %d devices, want distinct victims", c.Crashes, c.Devices)
	}
	if c.Flaky > c.Devices {
		return fmt.Errorf("faults: %d flaky devices over %d devices", c.Flaky, c.Devices)
	}
	if c.FlakyFailProb < 0 || c.FlakyFailProb >= 1 {
		return fmt.Errorf("faults: flaky fail probability %g outside [0,1)", c.FlakyFailProb)
	}
	if (c.Crashes > 0 || c.Brownouts > 0) && c.Window < 4 {
		return fmt.Errorf("faults: device fault window %d cycles, want >= 4", c.Window)
	}
	return nil
}

// DeviceCrash is one scheduled whole-device loss.
type DeviceCrash struct {
	Seq    int
	Device int
	Cycle  int64
}

// BrownoutWindow is one scheduled partial degradation: during [Start, End)
// the device serves only alternate cycles.
type BrownoutWindow struct {
	Device     int
	Start, End int64
}

// SitsOut reports whether the browned device sits cycle cyc out: inside the
// window it serves alternate cycles only.
func (w BrownoutWindow) SitsOut(cyc int64) bool {
	return cyc >= w.Start && cyc < w.End && cyc%2 != 0
}

// DeviceInjector produces the device-scale fault schedule for a fleet. It
// is driven from the coordinating goroutine; not safe for concurrent use.
type DeviceInjector struct {
	cfg      DeviceConfig
	crashes  []DeviceCrash
	next     int // cursor into crashes for CrashesThrough
	brown    []BrownoutWindow
	flaky    map[int]*rand.Rand // per-flaky-device failure stream
	flakyIDs []int
}

// NewDeviceInjector draws the full fault deck up front: crash victims are
// a seeded sample without replacement paired with sorted uniform cycles in
// the middle half of the window; brownouts and the flaky set come from the
// same generator, so the whole deck is one function of the seed.
func NewDeviceInjector(cfg DeviceConfig) (*DeviceInjector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.FlakyFailProb == 0 {
		cfg.FlakyFailProb = 0.75
	}
	if cfg.BrownoutCycles == 0 {
		cfg.BrownoutCycles = cfg.Window / 8
		if cfg.BrownoutCycles < 1 {
			cfg.BrownoutCycles = 1
		}
	}
	in := &DeviceInjector{cfg: cfg, flaky: map[int]*rand.Rand{}}
	rng := rand.New(rand.NewSource(mix(cfg.Seed, 0x0d15ea5e)))

	if cfg.Crashes > 0 {
		victims := rng.Perm(cfg.Devices)[:cfg.Crashes]
		lo, span := cfg.Window/4, cfg.Window/2
		cycles := make([]int64, cfg.Crashes)
		for i := range cycles {
			cycles[i] = lo + rng.Int63n(span)
		}
		sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
		for i, d := range victims {
			in.crashes = append(in.crashes, DeviceCrash{Seq: i, Device: d, Cycle: cycles[i]})
		}
	}
	for i := 0; i < cfg.Brownouts; i++ {
		d := rng.Intn(cfg.Devices)
		start := cfg.Window/8 + rng.Int63n(cfg.Window/2)
		in.brown = append(in.brown, BrownoutWindow{Device: d, Start: start, End: start + cfg.BrownoutCycles})
	}
	obsBrownouts.Add(int64(len(in.brown)))
	if cfg.Flaky > 0 {
		for _, d := range rng.Perm(cfg.Devices)[:cfg.Flaky] {
			in.flakyIDs = append(in.flakyIDs, d)
			in.flaky[d] = rand.New(rand.NewSource(mix(cfg.Seed, 0x00f1a4e+d)))
		}
		sort.Ints(in.flakyIDs)
	}
	return in, nil
}

// CrashesThrough consumes and returns the crashes with Cycle < limit, in
// cycle order. Calling it with increasing limits walks the schedule.
func (in *DeviceInjector) CrashesThrough(limit int64) []DeviceCrash {
	var out []DeviceCrash
	for in.next < len(in.crashes) && in.crashes[in.next].Cycle < limit {
		out = append(out, in.crashes[in.next])
		in.next++
	}
	obsDeviceCrashes.Add(int64(len(out)))
	return out
}

// Crashes returns the full schedule (for reports).
func (in *DeviceInjector) Crashes() []DeviceCrash { return in.crashes }

// Brownouts returns the scheduled brownout windows.
func (in *DeviceInjector) Brownouts() []BrownoutWindow { return in.brown }

// FlakyDevices returns the flaky device set, ascending.
func (in *DeviceInjector) FlakyDevices() []int { return in.flakyIDs }

// FailMigration draws one migration-install verdict for device d: flaky
// devices fail with the configured probability (consuming one draw from
// their private stream), sound devices always succeed (no draw, so the
// streams stay aligned whatever order sound installs happen in).
func (in *DeviceInjector) FailMigration(d int) bool {
	rng, ok := in.flaky[d]
	if !ok {
		return false
	}
	if rng.Float64() < in.cfg.FlakyFailProb {
		obsMigrationsFailed.Inc()
		return true
	}
	return false
}
