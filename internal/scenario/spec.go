package scenario

// Spec is the composable scenario description behind cmd/lookupsim
// -scenario: a comma-separated key=value list selecting which stressors run
// together in one engine-driven simulation and how they are shaped. The
// grammar (see docs/CLI.md for the cookbook):
//
//	load=saturate | const:P | surge[:P0:P1:START:LEN] | burst:P:PERIOD:DUTY | ramp:P0:P1
//	faults=seu:RATE          SEU injection at RATE upsets per data bit-cycle
//	kill=ENGINE@CYCLE        scheduled hard failure of one engine
//	churn=BATCHESxOPS[:vn=N] hitless route-update batches (round-robin, or pinned)
//	chaos=KIND:N[+KIND:N..]  control-plane faults (crash, stall, torn, falsepos)
//	                         or device-scale faults (devcrash, brownout, flaky)
//	fleet=N[:spare=M]        multi-device run: N active devices plus M dark spares
//	power-cap=W              fleet-wide governor cap in Watts
//	power-cap-device=W       per-device governor cap in Watts
//	power-cap-lift=C         lift the caps from cycle C on (single device only)
//	cycles=N                 offered-traffic window (default 32768)
//	slice=N                  control-plane quantum (default 1024)
//	queue=N                  per-network ingress queue capacity (default 64)
//	seed=N                   load-shape default seed offset (default 1)
//
// Every value is validated at parse time with a specific error naming the
// offending key and value; a Spec that parses is runnable. fleet= composes
// with load/chaos (device kinds)/power caps/dimensions only: the per-engine
// stressors (faults=, kill=, churn=, control-plane chaos kinds) target a
// single device's engines and are rejected alongside it.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Load-shape kinds.
const (
	LoadSaturate = "saturate"
	LoadConst    = "const"
	LoadSurge    = "surge"
	LoadBurst    = "burst"
	LoadRamp     = "ramp"
)

// LoadShape is the offered-load schedule: the per-network Bernoulli arrival
// probability as a function of the run cycle.
type LoadShape struct {
	Kind string
	// P0 is the baseline probability; P1 the elevated one (surge target,
	// ramp endpoint). Const and burst use P0 only.
	P0, P1 float64
	// Start/Len bound the surge window; negative values mean "resolve
	// against the run length" (Start = cycles/4, Len = cycles/2).
	Start, Len int64
	// Period/Duty shape the burst square wave: P0 for the first Duty
	// fraction of every Period cycles, idle for the rest.
	Period int64
	Duty   float64
}

// At returns the per-network arrival probability at cycle cyc of a
// total-cycle run.
func (l LoadShape) At(cyc, total int64) float64 {
	switch l.Kind {
	case LoadConst:
		return l.P0
	case LoadSurge:
		start, length := l.Start, l.Len
		if start < 0 {
			start = total / 4
		}
		if length < 0 {
			length = total / 2
		}
		if cyc >= start && cyc < start+length {
			return l.P1
		}
		return l.P0
	case LoadBurst:
		if float64(cyc%l.Period) < l.Duty*float64(l.Period) {
			return l.P0
		}
		return 0
	case LoadRamp:
		if total <= 1 {
			return l.P1
		}
		return l.P0 + (l.P1-l.P0)*float64(cyc)/float64(total-1)
	default: // LoadSaturate
		return 1
	}
}

// String renders the shape back in spec syntax.
func (l LoadShape) String() string {
	switch l.Kind {
	case LoadConst:
		return fmt.Sprintf("const:%g", l.P0)
	case LoadSurge:
		if l.Start < 0 {
			return fmt.Sprintf("surge:%g:%g", l.P0, l.P1)
		}
		return fmt.Sprintf("surge:%g:%g:%d:%d", l.P0, l.P1, l.Start, l.Len)
	case LoadBurst:
		return fmt.Sprintf("burst:%g:%d:%g", l.P0, l.Period, l.Duty)
	case LoadRamp:
		return fmt.Sprintf("ramp:%g:%g", l.P0, l.P1)
	default:
		return LoadSaturate
	}
}

// KillSpec schedules a hard failure of one engine.
type KillSpec struct {
	Engine int
	Cycle  int64
}

// ChurnSpec schedules hitless route-update batches.
type ChurnSpec struct {
	Batches int
	Ops     int
	// TargetVN pins every batch to one network; -1 round-robins.
	TargetVN int
}

// ChaosSpec schedules control-plane faults — crashes of the hitless
// updater before its commit, scrub-reload stalls, torn multi-stage writes,
// and spurious watchdog fires — plus the device-scale kinds carried by a
// fleet run: whole-device crashes, partial brownouts and flaky-reconfig
// devices. Crash faults ride the churn stressor's commits; the scrub-side
// classes ride the faults stressor's reloads; the device kinds ride fleet=.
type ChaosSpec struct {
	Crashes        int
	Stalls         int
	Torn           int
	FalsePositives int
	// Device-scale kinds (fleet runs only).
	DeviceCrashes int
	Brownouts     int
	FlakyDevices  int
}

// Total returns the number of faults the spec injects.
func (c ChaosSpec) Total() int {
	return c.Crashes + c.Stalls + c.Torn + c.FalsePositives + c.DeviceTotal()
}

// DeviceTotal counts the device-scale kinds (fleet carriers).
func (c ChaosSpec) DeviceTotal() int {
	return c.DeviceCrashes + c.Brownouts + c.FlakyDevices
}

// CtrlTotal counts the control-plane kinds (churn/faults carriers).
func (c ChaosSpec) CtrlTotal() int {
	return c.Crashes + c.Stalls + c.Torn + c.FalsePositives
}

// FleetSpec sizes a multi-device run: Devices active devices take the
// initial placement; Spares stay powered down until a failover wakes them.
type FleetSpec struct {
	Devices int
	Spares  int
}

// Spec is one parsed scenario: which stressors run and how they are shaped.
// Zero-valued optional sections (SEURate 0, nil Kill/Churn, zero caps) mean
// that stressor is absent from the run.
type Spec struct {
	Load    LoadShape
	SEURate float64
	Kill    *KillSpec
	Churn   *ChurnSpec
	Chaos   *ChaosSpec
	Fleet   *FleetSpec
	// CapW / DeviceCapW configure the power-envelope governor; both zero
	// runs ungoverned. LiftCycle, when > 0, removes the caps from that
	// cycle on.
	CapW       float64
	DeviceCapW float64
	LiftCycle  int64
	Cycles     int64
	Slice      int64
	Queue      int
	Seed       int64
	// Raw is the spec string as given, for reports.
	Raw string
}

// Stressors lists the active stressor names, for reports and logs.
func (s Spec) Stressors() []string {
	names := []string{"load"}
	if s.Fleet != nil {
		names = append(names, "fleet")
	}
	if s.SEURate > 0 || s.Kill != nil {
		names = append(names, "faults")
	}
	if s.Chaos != nil {
		names = append(names, "chaos")
	}
	if s.Churn != nil {
		names = append(names, "churn")
	}
	if s.CapW > 0 || s.DeviceCapW > 0 {
		names = append(names, "power-cap")
	}
	return names
}

func parseFloat(key, v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("scenario: %s: %q is not a number", key, v)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("scenario: %s: %q is not a finite number", key, v)
	}
	return f, nil
}

func parseInt(key, v string) (int64, error) {
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("scenario: %s: %q is not an integer", key, v)
	}
	return n, nil
}

func parseLoad(v string) (LoadShape, error) {
	parts := strings.Split(v, ":")
	l := LoadShape{Kind: parts[0]}
	args := parts[1:]
	want := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("scenario: load=%s takes %d argument(s), got %d (grammar: %s)",
				l.Kind, n, len(args), loadGrammar(l.Kind))
		}
		return nil
	}
	var err error
	num := func(i int) float64 {
		if err != nil {
			return 0
		}
		var f float64
		f, err = parseFloat("load", args[i])
		return f
	}
	switch l.Kind {
	case LoadSaturate:
		if err := want(0); err != nil {
			return l, err
		}
		return l, nil
	case LoadConst:
		if err := want(1); err != nil {
			return l, err
		}
		l.P0 = num(0)
	case LoadSurge:
		l.Start, l.Len = -1, -1
		switch len(args) {
		case 0:
			l.P0, l.P1 = 0.3, 0.9
		case 2:
			l.P0, l.P1 = num(0), num(1)
		case 4:
			l.P0, l.P1 = num(0), num(1)
			if err == nil {
				l.Start, err = parseInt("load", args[2])
			}
			if err == nil {
				l.Len, err = parseInt("load", args[3])
			}
			if err == nil && (l.Start < 0 || l.Len < 1) {
				return l, fmt.Errorf("scenario: load=%q: surge window [%d,+%d) invalid, want start >= 0 and len >= 1", v, l.Start, l.Len)
			}
		default:
			return l, fmt.Errorf("scenario: load=surge takes 0, 2 or 4 arguments, got %d (grammar: %s)",
				len(args), loadGrammar(LoadSurge))
		}
	case LoadBurst:
		if err := want(3); err != nil {
			return l, err
		}
		l.P0 = num(0)
		if err == nil {
			l.Period, err = parseInt("load", args[1])
		}
		l.Duty = num(2)
		if err == nil && l.Period < 1 {
			return l, fmt.Errorf("scenario: load=%q: burst period %d, want >= 1", v, l.Period)
		}
		if err == nil && (l.Duty <= 0 || l.Duty > 1) {
			return l, fmt.Errorf("scenario: load=%q: burst duty %g outside (0,1]", v, l.Duty)
		}
	case LoadRamp:
		if err := want(2); err != nil {
			return l, err
		}
		l.P0, l.P1 = num(0), num(1)
	default:
		return l, fmt.Errorf("scenario: load=%q: unknown load shape %q (want saturate, const, surge, burst or ramp)", v, l.Kind)
	}
	if err != nil {
		return l, err
	}
	for _, p := range []float64{l.P0, l.P1} {
		if p < 0 || p > 1 {
			return l, fmt.Errorf("scenario: load=%q: probability %g outside [0,1]", v, p)
		}
	}
	return l, nil
}

func loadGrammar(kind string) string {
	switch kind {
	case LoadConst:
		return "const:P"
	case LoadSurge:
		return "surge[:P0:P1[:START:LEN]]"
	case LoadBurst:
		return "burst:P:PERIOD:DUTY"
	case LoadRamp:
		return "ramp:P0:P1"
	default:
		return "saturate"
	}
}

// Parse parses a -scenario spec string. The empty string is an error; every
// malformed key or value yields a specific message naming the key and the
// expected grammar.
func Parse(spec string) (Spec, error) {
	s := Spec{
		Load:   LoadShape{Kind: LoadSaturate},
		Cycles: 32768,
		Slice:  1024,
		Queue:  64,
		Seed:   1,
		Raw:    spec,
	}
	if strings.TrimSpace(spec) == "" {
		return s, fmt.Errorf("scenario: empty spec (example: load=surge,faults=seu:1e-9,churn=100x50,power-cap=45)")
	}
	seen := map[string]bool{}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			// A silent skip here would make "load=surge,," and
			// "load=surge," parse — and hide a truncated spec in a shell
			// script. Reject with the position spelled out.
			return s, fmt.Errorf("scenario: empty item (trailing or doubled separator) in %q", spec)
		}
		key, val, found := strings.Cut(item, "=")
		if !found {
			return s, fmt.Errorf("scenario: %q is not key=value", item)
		}
		if seen[key] {
			return s, fmt.Errorf("scenario: duplicate key %q (second value %q)", key, val)
		}
		seen[key] = true
		var err error
		switch key {
		case "load":
			s.Load, err = parseLoad(val)
		case "faults":
			kind, rate, found := strings.Cut(val, ":")
			if !found || kind != "seu" {
				return s, fmt.Errorf("scenario: faults=%q, want faults=seu:RATE (upsets per bit-cycle)", val)
			}
			s.SEURate, err = parseFloat("faults", rate)
			if err == nil && (s.SEURate <= 0 || s.SEURate >= 1) {
				return s, fmt.Errorf("scenario: faults=%q: SEU rate %g outside (0,1) per bit-cycle", val, s.SEURate)
			}
		case "kill":
			e, c, found := strings.Cut(val, "@")
			if !found {
				return s, fmt.Errorf("scenario: kill=%q, want kill=ENGINE@CYCLE", val)
			}
			var eng, cyc int64
			if eng, err = parseInt("kill", e); err == nil {
				cyc, err = parseInt("kill", c)
			}
			if err == nil && (eng < 0 || cyc < 0) {
				return s, fmt.Errorf("scenario: kill=%q: engine %d at cycle %d, want both >= 0", val, eng, cyc)
			}
			s.Kill = &KillSpec{Engine: int(eng), Cycle: cyc}
		case "churn":
			body, vnPart, hasVN := strings.Cut(val, ":")
			b, o, found := strings.Cut(body, "x")
			if !found {
				return s, fmt.Errorf("scenario: churn=%q, want churn=BATCHESxOPS[:vn=N]", val)
			}
			var batches, ops int64
			if batches, err = parseInt("churn", b); err == nil {
				ops, err = parseInt("churn", o)
			}
			if err == nil && (batches < 1 || ops < 1) {
				return s, fmt.Errorf("scenario: churn=%q: %d batches x %d ops, want both >= 1", val, batches, ops)
			}
			c := &ChurnSpec{Batches: int(batches), Ops: int(ops), TargetVN: -1}
			if hasVN && err == nil {
				n, ok := strings.CutPrefix(vnPart, "vn=")
				if !ok {
					return s, fmt.Errorf("scenario: churn=%q: option %q, want vn=N", val, vnPart)
				}
				var vn int64
				if vn, err = parseInt("churn", n); err == nil && vn < 0 {
					return s, fmt.Errorf("scenario: churn=%q: vn %d, want >= 0", val, vn)
				}
				c.TargetVN = int(vn)
			}
			s.Churn = c
		case "chaos":
			s.Chaos, err = parseChaos(val)
		case "fleet":
			s.Fleet, err = parseFleet(val)
		case "power-cap":
			s.CapW, err = parseFloat("power-cap", val)
			if err == nil && s.CapW <= 0 {
				return s, fmt.Errorf("scenario: power-cap=%q: %g W, want > 0", val, s.CapW)
			}
		case "power-cap-device":
			s.DeviceCapW, err = parseFloat("power-cap-device", val)
			if err == nil && s.DeviceCapW <= 0 {
				return s, fmt.Errorf("scenario: power-cap-device=%q: %g W, want > 0", val, s.DeviceCapW)
			}
		case "power-cap-lift":
			s.LiftCycle, err = parseInt("power-cap-lift", val)
		case "cycles":
			s.Cycles, err = parseInt("cycles", val)
			if err == nil && s.Cycles < 1 {
				return s, fmt.Errorf("scenario: cycles=%q: %d, want >= 1", val, s.Cycles)
			}
		case "slice":
			s.Slice, err = parseInt("slice", val)
			if err == nil && s.Slice < 1 {
				return s, fmt.Errorf("scenario: slice=%q: %d, want >= 1", val, s.Slice)
			}
		case "queue":
			var q int64
			q, err = parseInt("queue", val)
			if err == nil && q < 1 {
				return s, fmt.Errorf("scenario: queue=%q: %d, want >= 1", val, q)
			}
			s.Queue = int(q)
		case "seed":
			s.Seed, err = parseInt("seed", val)
		default:
			return s, fmt.Errorf("scenario: unknown key %q (value %q; want load, faults, kill, churn, chaos, fleet, power-cap, power-cap-device, power-cap-lift, cycles, slice, queue or seed)", key, val)
		}
		if err != nil {
			return s, err
		}
	}
	if s.Kill != nil && s.Kill.Cycle >= s.Cycles {
		return s, fmt.Errorf("scenario: kill at cycle %d is past the %d-cycle run", s.Kill.Cycle, s.Cycles)
	}
	if seen["power-cap-lift"] {
		switch {
		case s.LiftCycle < 1 || s.LiftCycle >= s.Cycles:
			return s, fmt.Errorf("scenario: power-cap-lift at cycle %d, want it inside [1,%d) of the run", s.LiftCycle, s.Cycles)
		case s.CapW <= 0 && s.DeviceCapW <= 0:
			return s, fmt.Errorf("scenario: power-cap-lift needs power-cap= or power-cap-device= (a cap to lift)")
		case s.Fleet != nil:
			return s, fmt.Errorf("scenario: power-cap-lift beside fleet=: a fleet's caps constrain placement only, no governor runs to lift them")
		}
	}
	if s.Fleet != nil {
		// Fleet runs re-place networks across devices, so the per-engine
		// stressors (which name one device's engines) cannot compose with
		// them; reject at parse time rather than run as a silent no-op.
		switch {
		case s.SEURate > 0 || s.Kill != nil:
			return s, fmt.Errorf("scenario: fleet=%d: faults=/kill= target a single device's engines and cannot compose with a fleet run", s.Fleet.Devices)
		case s.Churn != nil:
			return s, fmt.Errorf("scenario: fleet=%d: churn= targets a single device's engines and cannot compose with a fleet run", s.Fleet.Devices)
		}
		if s.Chaos != nil && s.Chaos.CtrlTotal() > 0 {
			return s, fmt.Errorf("scenario: fleet=%d: control-plane chaos kinds (crash, stall, torn, falsepos) ride churn/faults; a fleet run takes devcrash, brownout or flaky", s.Fleet.Devices)
		}
		if s.Chaos != nil && s.Chaos.DeviceCrashes > s.Fleet.Devices {
			return s, fmt.Errorf("scenario: chaos devcrash:%d over fleet=%d devices, want distinct victims", s.Chaos.DeviceCrashes, s.Fleet.Devices)
		}
	}
	if s.Chaos != nil {
		// Chaos faults ride other stressors' operations: crashes need
		// hitless commits to crash, scrub-side faults need reloads to
		// molest, device kinds need a fleet. Validate the composition so a
		// chaos spec with no carrier fails at parse time, not as a silent
		// no-op run.
		if s.Chaos.Crashes > 0 && s.Churn == nil {
			return s, fmt.Errorf("scenario: chaos crash faults need churn= (crashes hit hitless commits)")
		}
		if s.Chaos.Stalls+s.Chaos.Torn+s.Chaos.FalsePositives > 0 && s.SEURate <= 0 && s.Kill == nil {
			return s, fmt.Errorf("scenario: chaos stall/torn/falsepos faults need faults= or kill= (they hit scrub reloads)")
		}
		if s.Chaos.DeviceTotal() > 0 && s.Fleet == nil {
			return s, fmt.Errorf("scenario: chaos devcrash/brownout/flaky faults need fleet= (they hit whole devices)")
		}
	}
	return s, nil
}

// parseFleet parses fleet=N[:spare=M].
func parseFleet(val string) (*FleetSpec, error) {
	body, sparePart, hasSpare := strings.Cut(val, ":")
	n, err := parseInt("fleet", body)
	if err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("scenario: fleet=%q: %d devices, want >= 1", val, n)
	}
	f := &FleetSpec{Devices: int(n)}
	if hasSpare {
		m, ok := strings.CutPrefix(sparePart, "spare=")
		if !ok {
			return nil, fmt.Errorf("scenario: fleet=%q: option %q, want spare=M", val, sparePart)
		}
		spares, err := parseInt("fleet", m)
		if err != nil {
			return nil, err
		}
		if spares < 0 {
			return nil, fmt.Errorf("scenario: fleet=%q: %d spares, want >= 0", val, spares)
		}
		f.Spares = int(spares)
	}
	return f, nil
}

// parseChaos parses chaos=KIND:N[+KIND:N...] with control-plane kinds
// crash, stall, torn and falsepos, and device-scale kinds devcrash,
// brownout and flaky.
func parseChaos(val string) (*ChaosSpec, error) {
	c := &ChaosSpec{}
	seen := map[string]bool{}
	for _, part := range strings.Split(val, "+") {
		kind, cnt, found := strings.Cut(part, ":")
		if !found {
			return nil, fmt.Errorf("scenario: chaos=%q: item %q, want KIND:N (kinds: crash, stall, torn, falsepos, devcrash, brownout, flaky)", val, part)
		}
		if seen[kind] {
			return nil, fmt.Errorf("scenario: chaos=%q: duplicate chaos kind %q", val, kind)
		}
		seen[kind] = true
		n, err := parseInt("chaos", cnt)
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("scenario: chaos=%q: %s count %d, want >= 1", val, kind, n)
		}
		switch kind {
		case "crash":
			c.Crashes = int(n)
		case "stall":
			c.Stalls = int(n)
		case "torn":
			c.Torn = int(n)
		case "falsepos":
			c.FalsePositives = int(n)
		case "devcrash":
			c.DeviceCrashes = int(n)
		case "brownout":
			c.Brownouts = int(n)
		case "flaky":
			c.FlakyDevices = int(n)
		default:
			return nil, fmt.Errorf("scenario: chaos=%q: unknown chaos kind %q (want crash, stall, torn, falsepos, devcrash, brownout or flaky)", val, kind)
		}
	}
	return c, nil
}
