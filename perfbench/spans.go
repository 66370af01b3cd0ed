package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer: a name, a start and an end
// (offsets from the recorder's origin), the span that caused it (0 for
// a root) and the run it belongs to. Spans of one request share a run
// id, so concurrent requests never nest under each other.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Run    string        `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, so untraced runs call the same code with tracing
// off at the cost of a nil check.
type Recorder struct {
	origin time.Time

	mu    sync.Mutex
	spans []Span // spans[i].ID == i+1
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{origin: time.Now()} }

// Start opens a span and returns its id (0 on a nil recorder).
func (r *Recorder) Start(name string, parent int, run string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Run: run, Name: name, Start: now, End: -1})
	return id
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Add records an already-timed span, for intervals measured outside
// the recorder (the scheduler's unit completions).
func (r *Recorder) Add(name string, parent int, run string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Run: run, Name: name,
		Start: start.Sub(r.origin), End: end.Sub(r.origin)})
	return id
}

// Spans returns a copy of every span recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Dump writes every span as JSON to path.
func (r *Recorder) Dump(path string) error {
	data, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Breakdown is a root span's wall time split into the self times of
// the spans under it plus the root's own uncovered time.
type Breakdown struct {
	Wall time.Duration
	// Self sums self time per span name over the root's descendants.
	Self map[string]time.Duration
	// Leftover is the part of the root that no child covers.
	Leftover time.Duration
}

// Total is the sum the breakdown accounts for: every self time plus
// the leftover. It equals Wall whenever siblings never overlap.
func (b Breakdown) Total() time.Duration {
	t := b.Leftover
	for _, d := range b.Self {
		t += d
	}
	return t
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children are
// merged, so the covered part is never counted twice.
func SelfTimes(spans []Span) map[int]time.Duration {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// BreakdownOf splits root's wall time over its descendants by name.
func BreakdownOf(spans []Span, root int) Breakdown {
	self := SelfTimes(spans)
	kids := map[int][]int{}
	var rootSpan Span
	for _, s := range spans {
		if s.ID == root {
			rootSpan = s
		}
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	b := Breakdown{Wall: rootSpan.Dur(), Self: map[string]time.Duration{}, Leftover: self[root]}
	stack := append([]int(nil), kids[root]...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b.Self[byID[id].Name] += self[id]
		stack = append(stack, kids[id]...)
	}
	return b
}

// Quantile is one order statistic of a sample: the nearest-rank value
// at percentile P, with the sample count it came from.
type Quantile struct {
	P     float64
	Value float64
	N     int
}

// Median is the nearest-rank 50th percentile (ok is false for an empty
// sample).
func Median(xs []float64) (Quantile, bool) {
	if len(xs) == 0 {
		return Quantile{}, false
	}
	return at(xs, 0.5), true
}

// TailMinBeyond is how many samples must lie beyond a reported tail
// percentile.
const TailMinBeyond = 10

// Tail is the highest percentile not above maxP that has at least
// TailMinBeyond samples beyond it (ok is false when the sample is too
// small for any).
func Tail(xs []float64, maxP float64) (Quantile, bool) {
	n := len(xs)
	if n <= TailMinBeyond {
		return Quantile{}, false
	}
	p := math.Min(maxP, float64(n-TailMinBeyond)/float64(n))
	return at(xs, p), true
}

// at returns the nearest-rank percentile p of xs: the smallest value
// with at least p·n samples at or below it.
func at(xs []float64, p float64) Quantile {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return Quantile{P: p, Value: s[rank-1], N: len(s)}
}
