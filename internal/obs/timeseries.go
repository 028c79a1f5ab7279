package obs

// Slice-quantised time series. The netsim run loops append one row per
// control-plane slice — power, throughput, backlog, scrub/update state,
// per-VNID availability — always from the single coordinating goroutine,
// so a run's series is a pure function of its seeds. The mutex exists only
// so the live /timeseries.csv endpoint can read mid-run without tearing a
// row. CSV output uses shortest round-trip float formatting, making the
// dump byte-identical at any worker count.

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// TimeSeries collects fixed-schema rows stamped with a run cycle.
type TimeSeries struct {
	mu   sync.Mutex
	cols []string
	rows []tsRow
}

type tsRow struct {
	cycle int64
	vals  []float64
}

// NewTimeSeries returns an empty series; a run defines the schema with
// Init before appending.
func NewTimeSeries() *TimeSeries { return &TimeSeries{} }

// Init sets the column schema and clears any previous rows — each run
// starts its series fresh. Safe on a nil series (no-op).
func (ts *TimeSeries) Init(cols ...string) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.cols = append([]string(nil), cols...)
	ts.rows = nil
}

// Append records one row at the given cycle. The value count must match the
// Init schema; a mismatch is a programming error and panics. Safe on a nil
// series (no-op).
func (ts *TimeSeries) Append(cycle int64, vals ...float64) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(vals) != len(ts.cols) {
		panic(fmt.Sprintf("obs: TimeSeries.Append %d values against %d columns", len(vals), len(ts.cols)))
	}
	ts.rows = append(ts.rows, tsRow{cycle: cycle, vals: append([]float64(nil), vals...)})
}

// Len returns the number of rows appended since Init.
func (ts *TimeSeries) Len() int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.rows)
}

// Columns returns the Init schema.
func (ts *TimeSeries) Columns() []string {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return append([]string(nil), ts.cols...)
}

// WriteCSV renders the series: a "cycle,<col>,..." header, then one line
// per row with shortest round-trip floats. Safe on a nil series (writes
// nothing).
func (ts *TimeSeries) WriteCSV(w io.Writer) error {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	cols := append([]string(nil), ts.cols...)
	rows := make([]tsRow, len(ts.rows))
	copy(rows, ts.rows)
	ts.mu.Unlock()

	if len(cols) == 0 {
		return nil
	}
	var b strings.Builder
	b.WriteString("cycle")
	for _, c := range cols {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		b.WriteString(strconv.FormatInt(r.cycle, 10))
		for _, v := range r.vals {
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV returns WriteCSV's output as a string.
func (ts *TimeSeries) CSV() string {
	var b strings.Builder
	_ = ts.WriteCSV(&b)
	return b.String()
}
