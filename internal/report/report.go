// Package report renders the tables and figure series the benchmark harness
// and the figures command emit: aligned ASCII tables for terminals and CSV
// for downstream plotting.
package report

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends one row; missing cells render empty, extra cells are kept.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddF appends one row of formatted values: strings pass through, float64
// renders with %.4g, ints with %d, everything else with %v.
func (t *Table) AddF(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case string:
			row[i] = x
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case int:
			row[i] = strconv.Itoa(x)
		case int64:
			row[i] = strconv.FormatInt(x, 10)
		default:
			row[i] = fmt.Sprintf("%v", x)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	ncol := len(t.Columns)
	for _, r := range t.Rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	widths := make([]int, ncol)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Columns)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(row []string) {
		for i := 0; i < ncol; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			// Padded to the column's width in runes, as fmt's "%-*s" pads.
			b.WriteString(cell)
			for n := widths[i] - utf8.RuneCountInString(cell); n > 0; n-- {
				b.WriteByte(' ')
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, ncol)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row. Cells
// containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				b.WriteString(",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Series is one named curve of a figure.
type Series struct {
	Name string
	Y    []float64
}

// Figure is a set of series over a shared X axis, rendered as a table with
// one row per X value — the textual equivalent of the paper's plots.
type Figure struct {
	Title  string
	XLabel string
	X      []float64
	Series []Series
}

// NewFigure creates a figure with the shared X axis.
func NewFigure(title, xlabel string, x []float64) *Figure {
	return &Figure{Title: title, XLabel: xlabel, X: x}
}

// AddSeries appends a named curve; y must align with X.
func (f *Figure) AddSeries(name string, y []float64) error {
	if len(y) != len(f.X) {
		return fmt.Errorf("report: series %q has %d points for %d x values", name, len(y), len(f.X))
	}
	f.Series = append(f.Series, Series{Name: name, Y: y})
	return nil
}

// Table converts the figure to its tabular form.
func (f *Figure) Table() *Table {
	cols := append([]string{f.XLabel}, make([]string, len(f.Series))...)
	for i, s := range f.Series {
		cols[i+1] = s.Name
	}
	t := NewTable(f.Title, cols...)
	for i, x := range f.X {
		row := make([]interface{}, 0, len(f.Series)+1)
		row = append(row, trimFloat(x))
		for _, s := range f.Series {
			row = append(row, s.Y[i])
		}
		t.AddF(row...)
	}
	return t
}

// String renders the figure as an aligned table.
func (f *Figure) String() string { return f.Table().String() }

// trimFloat renders integral X values without a decimal point.
func trimFloat(x float64) string {
	if x == float64(int64(x)) {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}
