// Package obs is the telemetry layer shared by the simulators, the control
// plane and the sweep engine: named monotonic counters, last-value gauges
// and duration histograms with an atomic, allocation-free hot path, plus
// sampled per-lookup flight traces (trace.go), slice-quantised time series
// (timeseries.go), a unified structured event log (event.go) and live
// Prometheus-style/pprof exposition (expose.go). Metrics register
// themselves in a process-wide registry at package init; cmd/figures and
// cmd/lookupsim surface the registry behind a -stats flag and an optional
// -http endpoint. Instrumentation never changes behaviour — experiment
// output is byte-identical with or without it.
//
// # Report format
//
// ReportSince renders one metric per line, in strict ascending
// name order across all three metric kinds, so the -stats output is
// directly diffable between runs:
//
//	run instrumentation:
//	  <name>  <value>                                       (counter)
//	  <name>  <value>                                       (gauge)
//	  <name>  <N> obs, mean <d>, p50 ≤ <d>, p99 ≤ <d>       (histogram)
//
// Names are %-36s left-aligned, values %12s right-aligned. Counters print
// their (delta) count; gauges print their current value in shortest
// round-trip decimal; histograms print observation count, exact mean and
// power-of-two bucket upper bounds for p50/p99. Metrics with no activity
// since the snapshot are omitted, and an entirely quiet report renders the
// single line "(no activity recorded)".
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SchemaVersion is the layout version of every file a run emits, stated by
// the report JSON's Schema member, the series CSV's "# schema N" first line
// and the events and traces JSONL's {"schema":N} first line. It goes up with
// any change to their keys or columns (make schema-check checks them against
// internal/netsim/testdata/schema.manifest); a file without it is schema 1.
const SchemaVersion = 2

// The first lines stating SchemaVersion: the series CSV's, the JSONL files'.
var (
	csvSchemaLine   = fmt.Sprintf("# schema %d\n", SchemaVersion)
	jsonlSchemaLine = fmt.Sprintf("{\"schema\":%d}\n", SchemaVersion)
)

// Counter is a monotonic event counter safe for concurrent use. Obtain
// counters from NewCounter so they appear in the registry; Inc/Add are a
// single atomic add — no locks, no allocation.
type Counter struct {
	name string
	v    atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; counters are monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// bucketCount sizes the histogram: bucket i holds observations of
// [2^i, 2^(i+1)) units (bucket 0 also absorbs zero), so 50 buckets span
// ~6.5 days of nanoseconds — every latency this repo can produce — and
// every plausible per-event energy in picojoules.
const bucketCount = 50

// DurationUnit is the unit tag of duration histograms (NewHistogram); the
// report and exposition layers format these with time.Duration semantics.
const DurationUnit = "ns"

// Histogram records non-negative integer values of one unit in power-of-two
// buckets. The historical shape — and NewHistogram's default — is a duration
// histogram in nanoseconds; NewValueHistogram tags any other unit (e.g. "pJ"
// for per-lookup energy). Observing is two atomic adds plus one atomic
// bucket add — no locks, no allocation.
type Histogram struct {
	name    string
	unit    string
	count   atomic.Int64
	sum     atomic.Int64
	buckets [bucketCount]atomic.Int64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) { h.ObserveValue(int64(d)) }

// ObserveValue records one raw value in the histogram's unit. Negative
// values clamp to zero.
func (h *Histogram) ObserveValue(v int64) { h.ObserveValueN(v, 1) }

// ObserveValueN records n observations of the same raw value at the cost of
// one: count, sum and bucket read as after n ObserveValue calls.
func (h *Histogram) ObserveValueN(v, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(n)
	h.sum.Add(v * n)
	h.buckets[bucketFor(v)].Add(n)
}

// Since records the time elapsed since start; use as
// `defer h.Since(time.Now())` around a sweep point.
func (h *Histogram) Since(start time.Time) { h.Observe(time.Since(start)) }

func bucketFor(ns int64) int {
	b := bits.Len64(uint64(ns)) - 1 // floor(log2 ns)
	if b < 0 {
		b = 0
	}
	if b >= bucketCount {
		b = bucketCount - 1
	}
	return b
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the average observed duration (0 when empty). Meaningful for
// duration histograms; value histograms use MeanValue.
func (h *Histogram) Mean() time.Duration { return time.Duration(h.MeanValue()) }

// MeanValue returns the average observed value in the histogram's unit
// (0 when empty).
func (h *Histogram) MeanValue() int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.sum.Load() / n
}

// Quantile returns an upper bound for the q-quantile as a duration; value
// histograms use QuantileValue.
func (h *Histogram) Quantile(q float64) time.Duration {
	return time.Duration(h.QuantileValue(q))
}

// QuantileValue returns an upper bound for the q-quantile (0 < q <= 1) in
// the histogram's unit: the top of the bucket in which the quantile
// observation fell. Bucket resolution is a factor of two, which is plenty
// for spotting order-of-magnitude outliers.
func (h *Histogram) QuantileValue(q float64) int64 {
	n := h.count.Load()
	if n == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(n))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return int64(1) << uint(i+1)
		}
	}
	return int64(1) << bucketCount
}

// Name returns the registered name.
func (h *Histogram) Name() string { return h.name }

// Unit returns the histogram's unit tag ("ns" for duration histograms).
func (h *Histogram) Unit() string { return h.unit }

// registry holds every metric the process has created. Registration is the
// cold path (package init) and takes a lock; the metrics themselves never
// touch it again.
var registry = struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}{
	counters:   map[string]*Counter{},
	gauges:     map[string]*Gauge{},
	histograms: map[string]*Histogram{},
}

// NewCounter returns the counter registered under name, creating it on
// first use. Calling it twice with one name yields the same counter.
func NewCounter(name string) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if c, ok := registry.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	registry.counters[name] = c
	return c
}

// NewHistogram returns the duration histogram (unit "ns") registered under
// name, creating it on first use.
func NewHistogram(name string) *Histogram {
	return NewValueHistogram(name, DurationUnit)
}

// NewValueHistogram returns the histogram registered under name with the
// given unit tag, creating it on first use. The unit is fixed at first
// registration; later calls return the existing histogram regardless of the
// unit they pass.
func NewValueHistogram(name, unit string) *Histogram {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if h, ok := registry.histograms[name]; ok {
		return h
	}
	h := &Histogram{name: name, unit: unit}
	registry.histograms[name] = h
	return h
}

// histState is a histogram's frozen contents inside a Snapshot.
type histState struct {
	count   int64
	sum     int64
	buckets [bucketCount]int64
}

// Snapshot is a point-in-time copy of every registered metric. Taking one is
// cheap (a map copy under the registry lock); subtracting two — via
// ReportSince or CounterDelta — scopes the process-wide registry to a single
// run, which is what lets a multi-run process (cmd/lookupsim driving several
// simulations, tests sharing the registry) report per-run numbers without
// zeroing metrics another run may still be accumulating.
type Snapshot struct {
	counters   map[string]int64
	gauges     map[string]float64
	histograms map[string]histState
}

// TakeSnapshot freezes the current value of every registered metric.
func TakeSnapshot() Snapshot {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	s := Snapshot{
		counters:   make(map[string]int64, len(registry.counters)),
		gauges:     make(map[string]float64, len(registry.gauges)),
		histograms: make(map[string]histState, len(registry.histograms)),
	}
	for name, c := range registry.counters {
		s.counters[name] = c.Value()
	}
	for name, g := range registry.gauges {
		s.gauges[name] = g.Value()
	}
	for name, h := range registry.histograms {
		hs := histState{count: h.count.Load(), sum: h.sum.Load()}
		for i := range h.buckets {
			hs.buckets[i] = h.buckets[i].Load()
		}
		s.histograms[name] = hs
	}
	return s
}

// Counter returns the snapshotted value of the named counter (0 when the
// counter did not exist at snapshot time).
func (s Snapshot) Counter(name string) int64 { return s.counters[name] }

// Gauge returns the snapshotted value of the named gauge (0 when the gauge
// did not exist at snapshot time).
func (s Snapshot) Gauge(name string) float64 { return s.gauges[name] }

// CounterDelta returns how much the named counter grew since the snapshot.
func (s Snapshot) CounterDelta(name string) int64 {
	return NewCounter(name).Value() - s.counters[name]
}

// ReportSince renders every metric's growth since the snapshot, in strict
// ascending name order across counters, gauges and histograms — the text
// behind the cmd tools' -stats flag (format documented in the package
// comment). Counters and histograms report deltas; gauges are last-value
// metrics, so a gauge reports its current value whenever that differs from
// the snapshotted one. Metrics unchanged since the snapshot are omitted, so a
// small run prints a small report. A zero Snapshot reports since process
// start.
func ReportSince(since Snapshot) string {
	registry.mu.Lock()
	counters := make([]*Counter, 0, len(registry.counters))
	for _, c := range registry.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(registry.gauges))
	for _, g := range registry.gauges {
		gauges = append(gauges, g)
	}
	histograms := make([]*Histogram, 0, len(registry.histograms))
	for _, h := range registry.histograms {
		histograms = append(histograms, h)
	}
	registry.mu.Unlock()

	// One line per active metric, merged across kinds and sorted by name so
	// the report order never depends on metric kind or registration order.
	type line struct{ name, text string }
	lines := make([]line, 0, len(counters)+len(gauges)+len(histograms))
	for _, c := range counters {
		v := c.Value() - since.counters[c.name]
		if v == 0 {
			continue
		}
		lines = append(lines, line{c.name, fmt.Sprintf("  %-36s %12d\n", c.name, v)})
	}
	for _, g := range gauges {
		v := g.Value()
		if v == since.gauges[g.name] {
			continue
		}
		lines = append(lines, line{g.name, fmt.Sprintf("  %-36s %12s\n", g.name, formatGauge(v))})
	}
	for _, h := range histograms {
		base := since.histograms[h.name]
		n := h.Count() - base.count
		if n == 0 {
			continue
		}
		mean := (h.sum.Load() - base.sum) / n
		var d deltaHist
		for i := range h.buckets {
			d.buckets[i] = h.buckets[i].Load() - base.buckets[i]
		}
		d.count = n
		// Duration histograms render with time.Duration semantics; other
		// units render raw integers with the unit suffixed.
		var text string
		if h.unit == DurationUnit || h.unit == "" {
			text = fmt.Sprintf("  %-36s %12d obs, mean %v, p50 ≤ %v, p99 ≤ %v\n",
				h.name, n, time.Duration(mean),
				time.Duration(d.quantile(0.5)), time.Duration(d.quantile(0.99)))
		} else {
			text = fmt.Sprintf("  %-36s %12d obs, mean %d %s, p50 ≤ %d %s, p99 ≤ %d %s\n",
				h.name, n, mean, h.unit, d.quantile(0.5), h.unit, d.quantile(0.99), h.unit)
		}
		lines = append(lines, line{h.name, text})
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].name < lines[j].name })

	var b strings.Builder
	b.WriteString("run instrumentation:\n")
	for _, l := range lines {
		b.WriteString(l.text)
	}
	if len(lines) == 0 {
		b.WriteString("  (no activity recorded)\n")
	}
	return b.String()
}

// deltaHist is the difference of two histogram states; quantile mirrors
// Histogram.QuantileValue over the delta buckets.
type deltaHist struct {
	count   int64
	buckets [bucketCount]int64
}

func (d *deltaHist) quantile(q float64) int64 {
	if d.count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(d.count))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range d.buckets {
		cum += d.buckets[i]
		if cum >= rank {
			return int64(1) << uint(i+1)
		}
	}
	return int64(1) << bucketCount
}
