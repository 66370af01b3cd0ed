package stats

import (
	"math"
	"testing"
)

func TestSeriesPointAndYAt(t *testing.T) {
	var s Series
	s.Point(1, 10)
	s.Point(2, 20)
	if s.YAt(2) != 20 {
		t.Errorf("YAt(2) = %v", s.YAt(2))
	}
	if !math.IsNaN(s.YAt(3)) {
		t.Errorf("YAt(missing) = %v, want NaN", s.YAt(3))
	}
}

func TestChartAddFind(t *testing.T) {
	c := &Chart{ID: "x"}
	c.Add(Series{Label: "a"})
	c.Add(Series{Label: "b"})
	if len(c.Series) != 2 || c.Series[0].Label != "a" || c.Series[1].Label != "b" {
		t.Errorf("Add did not append in order: %+v", c.Series)
	}
}

func TestTableAddRowPads(t *testing.T) {
	tbl := &Table{Columns: []string{"a", "b", "c"}}
	tbl.AddRow("1")
	tbl.AddRow("1", "2", "3", "4") // extra cell dropped
	if len(tbl.Rows) != 2 {
		t.Fatal("rows missing")
	}
	if len(tbl.Rows[0]) != 3 || tbl.Rows[0][1] != "" {
		t.Errorf("padding wrong: %v", tbl.Rows[0])
	}
	if len(tbl.Rows[1]) != 3 || tbl.Rows[1][2] != "3" {
		t.Errorf("truncation wrong: %v", tbl.Rows[1])
	}
}

func TestMeanSeries(t *testing.T) {
	a := Series{Label: "a", X: []float64{1, 2}, Y: []float64{10, 20}}
	b := Series{Label: "b", X: []float64{1, 2}, Y: []float64{30, 40}}
	avg, err := MeanSeries("avg", []Series{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if avg.Label != "avg" || avg.Y[0] != 20 || avg.Y[1] != 30 {
		t.Errorf("avg = %+v", avg)
	}
	// Averaging must not alias the input X slice.
	avg.X[0] = 99
	if a.X[0] == 99 {
		t.Error("MeanSeries aliases input X")
	}
}

func TestMeanSeriesErrors(t *testing.T) {
	if _, err := MeanSeries("x", nil); err == nil {
		t.Error("empty input accepted")
	}
	a := Series{X: []float64{1, 2}, Y: []float64{1, 2}}
	b := Series{X: []float64{1}, Y: []float64{1}}
	if _, err := MeanSeries("x", []Series{a, b}); err == nil {
		t.Error("length mismatch accepted")
	}
	c := Series{X: []float64{1, 3}, Y: []float64{1, 2}}
	if _, err := MeanSeries("x", []Series{a, c}); err == nil {
		t.Error("X mismatch accepted")
	}
}

func TestPctAndFormatters(t *testing.T) {
	if Pct(0.25) != 25 {
		t.Errorf("Pct = %v", Pct(0.25))
	}
	if FmtPct(0.255) != "25.5%" {
		t.Errorf("FmtPct = %q", FmtPct(0.255))
	}
	if FmtF(math.NaN()) != "-" {
		t.Errorf("FmtF(NaN) = %q", FmtF(math.NaN()))
	}
	if FmtF(1.23456) != "1.235" {
		t.Errorf("FmtF = %q", FmtF(1.23456))
	}
	if FmtF(0.001) != "1.00e-03" {
		t.Errorf("FmtF small = %q", FmtF(0.001))
	}
	if FmtF(0) != "0.000" {
		t.Errorf("FmtF zero = %q", FmtF(0))
	}
}

func TestFmtCount(t *testing.T) {
	cases := map[uint64]string{
		0:          "0",
		999:        "999",
		1000:       "1,000",
		1234567:    "1,234,567",
		12:         "12",
		123456:     "123,456",
		1000000000: "1,000,000,000",
	}
	for in, want := range cases {
		if got := FmtCount(in); got != want {
			t.Errorf("FmtCount(%d) = %q, want %q", in, got, want)
		}
	}
}
