package report

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestTableString(t *testing.T) {
	tb := NewTable("Title", "K", "Power (W)")
	tb.Add("1", "4.5")
	tb.Add("15", "67.7")
	s := tb.String()
	if !strings.HasPrefix(s, "Title\n") {
		t.Errorf("missing title:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[1], "K") || !strings.Contains(lines[1], "Power (W)") {
		t.Errorf("header line wrong: %q", lines[1])
	}
	if !strings.Contains(lines[2], "--") {
		t.Errorf("separator line wrong: %q", lines[2])
	}
	// Columns align: "15" row should start at same offset as "1" row.
	if lines[3][0] != '1' || lines[4][0] != '1' {
		t.Errorf("row alignment wrong:\n%s", s)
	}
}

func TestTableAddF(t *testing.T) {
	tb := NewTable("", "a", "b", "c", "d")
	tb.AddF("x", 1.23456, 7, int64(8))
	if got := tb.Rows[0][1]; got != "1.235" {
		t.Errorf("float cell = %q, want 1.235 (%%.4g)", got)
	}
	if tb.Rows[0][2] != "7" || tb.Rows[0][3] != "8" {
		t.Errorf("int cells wrong: %v", tb.Rows[0])
	}
}

// String and AddF format without fmt; they must give what the fmt forms
// they replaced give: cells padded to the column width in runes (a cell
// with a multi-byte rune gets fewer bytes of padding), and %d integers.
func TestTableMatchesFmt(t *testing.T) {
	tb := NewTable("α title", "VM(α=20%)", "n", "m")
	tb.AddF("x", -7, int64(math.MinInt64))
	tb.AddF("ααα", math.MaxInt, int64(12345678901))
	tb.Add("", "")
	var want strings.Builder
	want.WriteString("α title\n")
	widths := []int{len("VM(α=20%)"), len(fmt.Sprint(math.MaxInt)), len(fmt.Sprint(int64(math.MinInt64)))}
	rows := [][]string{
		{"VM(α=20%)", "n", "m"},
		{strings.Repeat("-", widths[0]), strings.Repeat("-", widths[1]), strings.Repeat("-", widths[2])},
		{"x", fmt.Sprintf("%d", -7), fmt.Sprintf("%d", int64(math.MinInt64))},
		{"ααα", fmt.Sprintf("%d", math.MaxInt), fmt.Sprintf("%d", int64(12345678901))},
		{"", "", ""},
	}
	for _, r := range rows {
		for i, c := range r {
			if i > 0 {
				want.WriteString("  ")
			}
			fmt.Fprintf(&want, "%-*s", widths[i], c)
		}
		want.WriteString("\n")
	}
	if got := tb.String(); got != want.String() {
		t.Errorf("String:\n%q\nwant:\n%q", got, want.String())
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.Add("1")           // short
	tb.Add("1", "2", "3") // long
	s := tb.String()
	if !strings.Contains(s, "3") {
		t.Errorf("extra cell dropped:\n%s", s)
	}
}

func TestCSVQuoting(t *testing.T) {
	tb := NewTable("", "name", "value")
	tb.Add(`say "hi", ok`, "1")
	csv := tb.CSV()
	if !strings.Contains(csv, `"say ""hi"", ok",1`) {
		t.Errorf("CSV quoting wrong:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "name,value\n") {
		t.Errorf("CSV header wrong:\n%s", csv)
	}
}

func TestFigure(t *testing.T) {
	f := NewFigure("Fig. 5", "K", []float64{1, 2, 4})
	if err := f.AddSeries("NV", []float64{4.5, 9, 18}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddSeries("VS", []float64{4.5, 4.5, 4.5}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddSeries("bad", []float64{1}); err == nil {
		t.Error("mismatched series accepted")
	}
	s := f.String()
	for _, want := range []string{"Fig. 5", "K", "NV", "VS", "18"} {
		if !strings.Contains(s, want) {
			t.Errorf("figure missing %q:\n%s", want, s)
		}
	}
	// Integral X renders without decimals.
	if strings.Contains(s, "1.0 ") {
		t.Errorf("x axis rendered with decimals:\n%s", s)
	}
}

func TestFigureFractionalX(t *testing.T) {
	f := NewFigure("", "alpha", []float64{0.2, 0.8})
	if err := f.AddSeries("y", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f.String(), "0.2") {
		t.Errorf("fractional x lost:\n%s", f.String())
	}
}
