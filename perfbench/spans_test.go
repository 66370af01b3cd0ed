package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// A root of 100ms with two sequential children, one of which has an
// overlapping pair of grandchildren, splits exactly into self times
// plus leftover.
func TestBreakdownSumsToWall(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "run", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(50), End: ms(90)},
		{ID: 4, Parent: 3, Name: "c", Start: ms(55), End: ms(70)},
		{ID: 5, Parent: 3, Name: "c", Start: ms(65), End: ms(80)},
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{1: ms(30), 2: ms(30), 3: ms(15), 4: ms(15), 5: ms(15)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
	b := BreakdownOf(spans, 1)
	if b.Wall != ms(100) || b.Leftover != ms(30) {
		t.Fatalf("wall %v leftover %v, want 100ms and 30ms", b.Wall, b.Leftover)
	}
	if b.Self["a"] != ms(30) || b.Self["b"] != ms(15) || b.Self["c"] != ms(30) {
		t.Errorf("self by name = %v", b.Self)
	}
	// Overlapping grandchildren (c) double count their 5ms overlap in
	// the per-name sum, which is why siblings must be sequential for
	// the total to equal the wall time; the root here adds up to 105ms.
	if got := b.Total(); got != ms(105) {
		t.Errorf("total = %v, want 105ms", got)
	}
}

func TestBreakdownSequentialIsExact(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "run", Start: 0, End: ms(60)},
		{ID: 2, Parent: 1, Name: "setup", Start: 0, End: ms(20)},
		{ID: 3, Parent: 1, Name: "phase", Start: ms(25), End: ms(60)},
		{ID: 4, Parent: 3, Name: "x", Start: ms(30), End: ms(35)},
		{ID: 5, Parent: 3, Name: "x", Start: ms(40), End: ms(45)},
		{ID: 6, Parent: 0, Name: "other-root", Start: 0, End: ms(500)},
	}
	b := BreakdownOf(spans, 1)
	if b.Total() != b.Wall {
		t.Fatalf("total %v != wall %v (%+v)", b.Total(), b.Wall, b)
	}
	if b.Self["phase"] != ms(25) || b.Self["x"] != ms(10) || b.Leftover != ms(5) {
		t.Errorf("breakdown = %+v", b)
	}
}

// Children are clipped to the parent: a child running past its
// parent's end covers only the part inside it.
func TestSelfTimeClipsChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "p", Start: ms(10), End: ms(20)},
		{ID: 2, Parent: 1, Name: "k", Start: ms(5), End: ms(15)},
	}
	if got := SelfTimes(spans)[1]; got != ms(5) {
		t.Errorf("self = %v, want 5ms", got)
	}
}

func TestRecorderNilIsOff(t *testing.T) {
	var r *Recorder
	id := r.Start("x", 0, "run")
	r.End(id)
	if id != 0 || r.Spans() != nil {
		t.Fatalf("nil recorder recorded something")
	}
	r = NewRecorder()
	root := r.Start("run", 0, "run")
	kid := r.Start("k", root, "run")
	r.End(kid)
	r.End(root)
	s := r.Spans()
	if len(s) != 2 || s[1].Parent != root || s[0].End < s[1].End {
		t.Fatalf("spans = %+v", s)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the rule must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	if _, ok := Median(nil); ok {
		t.Fatal("median of nothing")
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 1}, {2, 1}, {3, 2}, {10, 5}, {11, 6}} {
		q, _ := Median(seq(c.n))
		if q.Value != c.want || q.N != c.n {
			t.Errorf("median of 1..%d = %+v, want %v", c.n, q, c.want)
		}
	}
}

// The tail percentile is the highest one (capped at maxP) with at
// least ten samples strictly beyond it.
func TestTailRule(t *testing.T) {
	for _, n := range []int{0, 5, 10} {
		if _, ok := Tail(seq(n), 0.95); ok {
			t.Errorf("n=%d: tail reported with fewer than 11 samples", n)
		}
	}
	for _, c := range []struct {
		n     int
		wantP float64
		want  float64
	}{
		{11, 1.0 / 11, 1},
		{20, 0.5, 10},
		{100, 0.9, 90},
		{200, 0.95, 190},
		{1000, 0.95, 950},
	} {
		q, ok := Tail(seq(c.n), 0.95)
		if !ok || q.Value != c.want || abs(q.P-c.wantP) > 1e-12 {
			t.Errorf("n=%d: tail = %+v ok=%v, want p=%v value=%v", c.n, q, ok, c.wantP, c.want)
			continue
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > q.Value {
				beyond++
			}
		}
		if beyond < TailMinBeyond {
			t.Errorf("n=%d: only %d samples beyond p%.1f", c.n, beyond, 100*q.P)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
