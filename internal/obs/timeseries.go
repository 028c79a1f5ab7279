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
	"slices"
	"strconv"
	"strings"
	"sync"
)

// TimeSeries collects fixed-schema rows stamped with a run cycle, stored
// flat: row i is cycles[i] and vals[i*len(cols):][:len(cols)].
type TimeSeries struct {
	mu     sync.Mutex
	cols   []string
	cycles []int64
	vals   []float64
}

// NewTimeSeries returns an empty series; a run defines the schema with
// Init before appending.
func NewTimeSeries() *TimeSeries { return &TimeSeries{} }

// Init sets the column schema and clears any previous rows — each run
// starts its series fresh, in new storage. Safe on a nil series (no-op).
func (ts *TimeSeries) Init(cols ...string) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.cols = append([]string(nil), cols...)
	ts.cycles, ts.vals = nil, nil
}

// Reserve makes room for rows rows in all, so a run that knows how many
// slices it has appends them into storage allocated once; a row past them
// grows it as Append always does. Safe on a nil series (no-op).
func (ts *TimeSeries) Reserve(rows int) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.vals = slices.Grow(ts.vals, max(rows*len(ts.cols)-len(ts.vals), 0))
	ts.cycles = slices.Grow(ts.cycles, max(rows-len(ts.cycles), 0))
}

// Append records one row at the given cycle, copying vals. The value count
// must match the Init schema; a mismatch is a programming error and panics.
// Safe on a nil series (no-op).
func (ts *TimeSeries) Append(cycle int64, vals ...float64) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(vals) != len(ts.cols) {
		panic(fmt.Sprintf("obs: TimeSeries.Append %d values against %d columns", len(vals), len(ts.cols)))
	}
	if cap(ts.vals)-len(ts.vals) < len(vals) {
		// Double: append's quarter steps allocate some five times the series.
		ts.vals = slices.Grow(ts.vals, len(ts.vals)+len(vals))
		ts.cycles = slices.Grow(ts.cycles, len(ts.cycles)+1)
	}
	ts.cycles = append(ts.cycles, cycle)
	ts.vals = append(ts.vals, vals...)
}

// Len returns the number of rows appended since Init.
func (ts *TimeSeries) Len() int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.cycles)
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

// WriteCSV renders the series: a "# schema N" line (SchemaVersion), a
// "cycle,<col>,..." header, then one line per row with shortest round-trip floats, through one reused buffer written
// out in chunks. It reads the rows appended before it was called: Append
// only ever writes past them, and Init starts new storage, so they are read
// outside the lock. Safe on a nil series (writes nothing).
func (ts *TimeSeries) WriteCSV(w io.Writer) error {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	cols, cycles, vals := ts.cols, ts.cycles, ts.vals
	ts.mu.Unlock()

	if len(cols) == 0 {
		_, err := io.WriteString(w, csvSchemaLine)
		return err
	}
	const chunk = 32 << 10 // bytes formatted between writes
	buf := make([]byte, 0, chunk+256)
	buf = append(buf, csvSchemaLine...)
	buf = append(buf, "cycle"...)
	for _, c := range cols {
		buf = append(append(buf, ','), c...)
	}
	buf = append(buf, '\n')
	for i, cycle := range cycles {
		buf = strconv.AppendInt(buf, cycle, 10)
		for _, v := range vals[i*len(cols) : (i+1)*len(cols)] {
			buf = strconv.AppendFloat(append(buf, ','), v, 'g', -1, 64)
		}
		buf = append(buf, '\n')
		if len(buf) >= chunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// CSV returns WriteCSV's output as a string.
func (ts *TimeSeries) CSV() string {
	var b strings.Builder
	_ = ts.WriteCSV(&b)
	return b.String()
}
