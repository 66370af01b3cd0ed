// Package stats provides the structured result types the experiment
// runners produce — charts of labelled series and simple tables — plus
// small aggregation helpers. Rendering lives in package textplot.
package stats

import (
	"fmt"
	"math"
)

// Scale describes how an axis is swept.
type Scale uint8

const (
	// Linear axis.
	Linear Scale = iota
	// Log2 axis (cache sizes, line sizes).
	Log2
)

// Series is one labelled curve: Y[i] plotted at X[i].
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Point appends a point to the series.
func (s *Series) Point(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// YAt returns the Y value at the given X, or NaN when absent.
func (s *Series) YAt(x float64) float64 {
	for i, sx := range s.X {
		if sx == x {
			return s.Y[i]
		}
	}
	return math.NaN()
}

// Chart is a named collection of series, matching one paper figure.
type Chart struct {
	ID     string // e.g. "fig13"
	Title  string
	XLabel string
	YLabel string
	XScale Scale
	Series []Series
}

// Add appends a series.
func (c *Chart) Add(s Series) { c.Series = append(c.Series, s) }

// Table is a rows-and-columns result, matching one paper table.
type Table struct {
	ID      string // e.g. "table1"
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row, padding or truncating to the column count.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// MeanSeries averages several same-X series into one labelled curve.
// All inputs must share identical X vectors.
func MeanSeries(label string, in []Series) (Series, error) {
	if len(in) == 0 {
		return Series{}, fmt.Errorf("stats: no series to average")
	}
	out := Series{Label: label, X: append([]float64(nil), in[0].X...)}
	out.Y = make([]float64, len(out.X))
	for _, s := range in {
		if len(s.X) != len(out.X) {
			return Series{}, fmt.Errorf("stats: series %q has %d points, want %d", s.Label, len(s.X), len(out.X))
		}
		for i := range s.X {
			if s.X[i] != out.X[i] {
				return Series{}, fmt.Errorf("stats: series %q X[%d]=%v differs from %v", s.Label, i, s.X[i], out.X[i])
			}
			out.Y[i] += s.Y[i]
		}
	}
	for i := range out.Y {
		out.Y[i] /= float64(len(in))
	}
	return out, nil
}

// Pct converts a fraction to a percentage.
func Pct(f float64) float64 { return f * 100 }

// FmtPct renders a fraction as "12.3%".
func FmtPct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// FmtF renders a float compactly.
func FmtF(f float64) string {
	switch {
	case math.IsNaN(f):
		return "-"
	case f != 0 && math.Abs(f) < 0.01:
		return fmt.Sprintf("%.2e", f)
	default:
		return fmt.Sprintf("%.3f", f)
	}
}

// FmtCount renders a count with thousands separators (e.g. 1_234_567).
func FmtCount(n uint64) string {
	s := fmt.Sprintf("%d", n)
	if len(s) <= 3 {
		return s
	}
	var out []byte
	lead := len(s) % 3
	if lead > 0 {
		out = append(out, s[:lead]...)
	}
	for i := lead; i < len(s); i += 3 {
		if len(out) > 0 {
			out = append(out, ',')
		}
		out = append(out, s[i:i+3]...)
	}
	return string(out)
}
