package scenario

// Telemetry plumbing shared by every run. A Telemetry bundle
// attaches the optional observers — trace sampler + ring, slice time series,
// event log — to a run; every obs component is nil-safe, so the loops call
// through the bundle unguarded and a detached run pays only nil checks.
//
// Determinism contract: sampling decisions are pure functions of
// (sampler seed, VNID, seq); series rows and events are appended only from
// the single coordinating goroutine; trace Puts may come from engine
// workers, but the ring's dump orders by Seq. The same run seeds therefore
// yield byte-identical telemetry dumps at any -j (for traces: as long as
// the sampled volume stays within ring capacity).

import (
	"fmt"

	"vrpower/internal/fpga"
	"vrpower/internal/ip"
	"vrpower/internal/obs"
	"vrpower/internal/pipeline"
)

// Live gauges mirroring the most recent slice row (surfaced by -stats and
// the -http /metrics endpoint while a run is in progress). The names keep
// the historical netsim. prefix: they are a published metrics contract.
var (
	obsSlicePowerW   = obs.NewGauge("netsim.slice_power_w")
	obsSliceGbps     = obs.NewGauge("netsim.slice_throughput_gbps")
	obsBacklogPkts   = obs.NewGauge("netsim.backlog_pkts")
	obsScrubsActive  = obs.NewGauge("netsim.scrubs_active")
	obsUpdatesActive = obs.NewGauge("netsim.updates_active")
	obsRecoveries    = obs.NewGauge("netsim.recoveries")
	obsDegradedVNs   = obs.NewGauge("netsim.degraded_vns")
	obsSliceCapW     = obs.NewGauge("netsim.slice_cap_w")
	obsSliceGovRung  = obs.NewGauge("netsim.slice_gov_rung")
	obsSliceDynJ     = obs.NewGauge("netsim.slice_dyn_j")
	obsSliceStaticJ  = obs.NewGauge("netsim.slice_static_j")
	obsSliceJPerBit  = obs.NewGauge("netsim.slice_j_per_bit")
)

// Telemetry is the set of observers a run feeds. Any field may be nil: a
// nil Sampler/Traces disables flight tracing, a nil Series disables the
// slice time series, a nil Events disables the event log.
type Telemetry struct {
	Sampler *obs.TraceSampler
	Traces  *obs.TraceRing
	Series  *obs.TimeSeries
	Events  *obs.EventLog
}

// NoTelemetry is the shared all-nil default bundle; holders call through it
// so they never need a nil guard on the bundle itself.
var NoTelemetry = &Telemetry{}

// Tracing reports whether flight tracing is live (a sampler and a ring are
// both attached).
func (t *Telemetry) Tracing() bool { return t.Sampler != nil && t.Traces != nil }

// LookupTrace builds the trace of one sampled lookup that completed a
// pipeline traversal. base offsets the sim-local Enter/Exit stamps into run
// cycles (zero when the sim already runs on the run clock); wait is the
// cycles the packet spent queued before entry.
func LookupTrace(seq int64, vn, engine int, base int64, res pipeline.Result, wait int64, outcome string) *obs.FlightTrace {
	nhi := int(res.NHI)
	if res.Faulted || res.NHI == ip.NoRoute {
		nhi = -1
	}
	return &obs.FlightTrace{
		Seq:       seq,
		VN:        vn,
		Engine:    engine,
		Addr:      res.Addr.String(),
		Enter:     base + res.EnterCycle,
		Exit:      base + res.ExitCycle,
		Wait:      wait,
		Displaced: wait > 0,
		Outcome:   outcome,
		NHI:       nhi,
		Visits:    res.Visits,
	}
}

// DropTrace builds the trace of a sampled packet refused at ingress (its
// engine was down): no pipeline traversal, Enter == Exit == the drop cycle,
// and the refused packet's destination address.
func DropTrace(seq int64, vn, engine int, cycle int64, addr ip.Addr) *obs.FlightTrace {
	return &obs.FlightTrace{
		Seq:     seq,
		VN:      vn,
		Engine:  engine,
		Addr:    addr.String(),
		Enter:   cycle,
		Exit:    cycle,
		Outcome: "drop-down",
		NHI:     -1,
	}
}

// LookupOutcome classifies a completed lookup against its oracle's answer.
func LookupOutcome(res pipeline.Result, want ip.NextHop) string {
	switch {
	case res.Faulted:
		return "drop-fault"
	case res.NHI != want:
		return "mismatch"
	case want == ip.NoRoute:
		return "noroute"
	default:
		return "forward"
	}
}

// SeriesColumns is the unified slice-row schema shared by every run loop:
// power (the meters' femtojoules over the slice's time, zero when no meter
// is attached), throughput, backlog, control-plane activity, journaled-recovery
// progress (cumulative replays+rollbacks and currently degraded networks,
// both zero without the chaos stressor), the governor's active cap and
// ladder rung (both zero when ungoverned), the slice's attributed energy
// (dynamic and static Joules plus joules per forwarded bit, all zero when
// no meter is attached), then one availability column per network.
func SeriesColumns(k int) []string {
	cols := []string{"power_w", "throughput_gbps", "backlog_pkts", "scrubs_active", "updates_active", "recoveries", "degraded_vns", "cap_w", "gov_rung", "dyn_j", "static_j", "j_per_bit"}
	for vn := 0; vn < k; vn++ {
		cols = append(cols, fmt.Sprintf("avail_vn%02d", vn))
	}
	return cols
}

// maxReservedRows bounds the rows InitSeries reserves, so a run of a vast
// number of slices grows its series as it goes rather than allocating it all
// before the first cycle.
const maxReservedRows = 1 << 16

// InitSeries starts a fresh series for one run under the unified schema,
// with room for the rows the run will append: one per live slice plus one
// drain slice (at most maxReservedRows); a longer drain grows it.
func (t *Telemetry) InitSeries(k int, slices int64) {
	t.Series.Init(SeriesColumns(k)...)
	t.Series.Reserve(int(min(slices, maxReservedRows-1)) + 1)
}

// AppendSlice records one slice row (and mirrors it into the live gauges).
// cycle is the slice's start; capW and rung are the governor's active cap
// and observed ladder rung (zero when ungoverned); dynJ/staticJ/jPerBit are
// the slice's attributed energy (zero when no meter is attached); avail may
// be nil for "all networks up".
func (t *Telemetry) AppendSlice(k int, cycle int64, powerW, gbps float64, backlog, scrubs, updates, recoveries, degraded int, capW, rung, dynJ, staticJ, jPerBit float64, avail []bool) {
	obsSlicePowerW.Set(powerW)
	obsSliceGbps.Set(gbps)
	obsBacklogPkts.SetInt(int64(backlog))
	obsScrubsActive.SetInt(int64(scrubs))
	obsUpdatesActive.SetInt(int64(updates))
	obsRecoveries.SetInt(int64(recoveries))
	obsDegradedVNs.SetInt(int64(degraded))
	obsSliceCapW.Set(capW)
	obsSliceGovRung.Set(rung)
	obsSliceDynJ.Set(dynJ)
	obsSliceStaticJ.Set(staticJ)
	obsSliceJPerBit.Set(jPerBit)
	if t.Series == nil {
		return
	}
	// The row is built on the stack (up to 52 networks) and copied by Append.
	var row [64]float64
	vals := append(row[:0], powerW, gbps, float64(backlog), float64(scrubs), float64(updates),
		float64(recoveries), float64(degraded), capW, rung, dynJ, staticJ, jPerBit)
	for vn := 0; vn < k; vn++ {
		up := 1.0
		if avail != nil && !avail[vn] {
			up = 0
		}
		vals = append(vals, up)
	}
	t.Series.Append(cycle, vals...)
}

// SliceGbps converts packets delivered over a cycle window into line-rate
// throughput: the fraction of cycles that carried a packet times one
// engine-slot's worth of minimum-size-packet bandwidth at fmaxMHz.
func SliceGbps(fmaxMHz float64, delivered, cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(delivered) / float64(cycles) * fpga.ThroughputGbps(fmaxMHz, 1)
}

// UtilDelta turns a cumulative pipeline.Stats into this window's stage
// utilization, given the previous window's (activeSum, cycles) cursor; it
// returns the utilization plus the new cursor.
func UtilDelta(st pipeline.Stats, prevActive, prevCycles int64) (float64, int64, int64) {
	var active int64
	for _, a := range st.StageActive {
		active += a
	}
	dc := st.Cycles - prevCycles
	if dc <= 0 || len(st.StageActive) == 0 {
		return 0, active, st.Cycles
	}
	return float64(active-prevActive) / float64(dc*int64(len(st.StageActive))), active, st.Cycles
}
