// Package reuse computes write reuse-distance profiles: the analytical
// counterpart of the paper's Figs 1–2. A write finds its line already
// dirty in a fully-associative LRU write-back cache of N lines exactly
// when, since the previous write to that line, the line was never
// pushed N-or-more distinct lines deep in the LRU stack. Profiling the
// distribution of that depth therefore *predicts* the
// writes-to-already-dirty fraction for every capacity at once — one
// pass over the trace instead of one simulation per cache size — and
// explains why the curves rise the way they do.
//
// The prediction is exact for fully-associative LRU caches (a property
// the test suite checks against the simulator). Direct-mapped caches
// deviate in both directions: mapping conflicts evict lines early
// (lowering the fraction, dominant at small capacities), while
// sequential sweeps longer than the capacity evict everything under
// LRU but spare non-conflicting lines under direct mapping (raising
// it, visible for linpack at 64KB). The gap between predicted and
// measured is therefore a per-benchmark conflict signature.
//
// The write cache of Figs 5 and 7-9 (WriteCacheCurve) is also
// fully-associative LRU, over writes only, so one pass over a trace's
// writes yields its merge rate at every entry count. It needs depths
// only below the largest entry count asked about, so it keeps just the
// top of its stack; Analyze's log2 buckets need every depth, so it
// keeps the whole stack (stack, a Fenwick window over the footprint).
package reuse

import (
	"fmt"
	"math"
	"math/bits"

	"cachewrite/internal/trace"
)

// Profile is a write reuse-distance distribution at line granularity.
type Profile struct {
	// LineSize is the granularity the trace was folded to.
	LineSize int
	// Samples[k] counts writes whose maximum interim LRU depth since the
	// previous write to the same line was in [2^(k-1), 2^k) lines
	// (Samples[0] counts depth < 1, i.e. immediate re-writes).
	// Cold counts first-ever writes and writes after an unbounded gap.
	Samples []uint64
	Cold    uint64
	Writes  uint64
}

// PredictDirtyFraction returns the predicted fraction of writes landing
// on an already-dirty line in a fully-associative LRU write-back cache
// of capacityLines lines.
func (p *Profile) PredictDirtyFraction(capacityLines int) float64 {
	if p.Writes == 0 || capacityLines <= 0 {
		return 0
	}
	var hits uint64
	for k, n := range p.Samples {
		// Bucket k holds max depths d with d < 2^k (and >= 2^(k-1) for
		// k > 0). The write stays dirty when d < capacity; a bucket is
		// fully counted when its upper bound is within capacity.
		if 1<<k <= capacityLines {
			hits += n
		}
	}
	return float64(hits) / float64(p.Writes)
}

// stack is a Mattson LRU stack over line numbers. access reports a
// line's reuse depth: the number of distinct other lines accessed since
// its previous access, or -1 on its first. A fully-associative LRU
// cache of n lines holds the line at that access exactly when
// depth < n (stack inclusion), so one pass answers every capacity.
//
// It holds O(footprint), not O(accesses): each line gets a dense id on
// its first access, and positions live in a Fenwick window of at least
// four slots per line seen. A full window is packed (every line's most
// recent position renumbered 1..lines, in order) and grown
// geometrically; depths depend only on the order of positions, so
// packing changes none of them, and the packs cost O(1) amortized per
// access because at least three quarters of each window is fresh.
// Ids and positions are int32, so a stack holds under 2^29 lines.
type stack struct {
	// ids maps line -> dense id, in order of first access.
	ids map[uint32]int32
	// last[id] is the line's most recent position in the window.
	last []int32
	// tree is a Fenwick tree over window positions (1-based): 1 at the
	// most recent position of each line seen so far.
	tree []int32
	// owner[p] is the id accessed at position p.
	owner []int32
	pos   int32
}

// minWindow is the smallest window a stack starts with.
const minWindow = 1 << 12

// newStack returns an empty stack over a window of window positions.
func newStack(window int) *stack {
	return &stack{ids: make(map[uint32]int32), tree: make([]int32, window+1), owner: make([]int32, window+1)}
}

// access records an access to line ln and returns its id and depth.
func (s *stack) access(ln uint32) (id int32, depth int) {
	if int(s.pos)+1 == len(s.tree) {
		s.pack()
	}
	s.pos++
	id, ok := s.ids[ln]
	if ok {
		// Every line seen has exactly one 1, at or before pos-1, so
		// the lines accessed strictly after lp number len(last)
		// minus the prefix sum up to lp.
		lp := s.last[id]
		depth = len(s.last) - s.sum(lp)
		s.add(lp, -1)
		s.last[id] = s.pos
	} else {
		id, depth = int32(len(s.last)), -1
		s.ids[ln] = id
		s.last = append(s.last, s.pos)
	}
	s.add(s.pos, 1)
	s.owner[s.pos] = id
	return id, depth
}

// pack renumbers each line's most recent position 1..lines, keeping
// their order, in one scan of owner, and grows the window to at least
// four slots per line.
func (s *stack) pack() {
	n := int32(0)
	for p := int32(1); p <= s.pos; p++ {
		if id := s.owner[p]; s.last[id] == p {
			n++
			s.owner[n], s.last[id] = id, n
		}
	}
	size := len(s.tree) - 1
	for size < 4*len(s.last) {
		size *= 2
	}
	if size+1 > len(s.tree) {
		owner := make([]int32, size+1)
		copy(owner, s.owner[:n+1])
		s.owner, s.tree = owner, make([]int32, size+1)
	}
	// A Fenwick tree of ones at 1..n: node i counts the ones in
	// (i - i&-i, i].
	for i := int32(1); i < int32(len(s.tree)); i++ {
		s.tree[i] = max(0, min(i, n)-(i-i&-i))
	}
	s.pos = n
}

func (s *stack) add(i, v int32) {
	for ; int(i) < len(s.tree); i += i & -i {
		s.tree[i] += v
	}
}

func (s *stack) sum(i int32) int {
	n := 0
	for ; i > 0; i -= i & -i {
		n += int(s.tree[i])
	}
	return n
}

// lineSpan returns the first lineShift-granularity line an access
// touches and the line after its last, so a walk over the span is
// for ln := first; ln != end; ln++. At 1B lines the last line may be
// 0xFFFFFFFF, where ln <= last never fails; end wraps to 0 instead. An
// access that wraps past address 0xFFFFFFFF touches no line.
func lineSpan(e trace.Event, lineShift uint) (first, end uint32) {
	first = e.Addr >> lineShift
	last := (e.Addr + uint32(e.Size) - 1) >> lineShift
	if last < first {
		return first, first
	}
	return first, last + 1
}

// lineShiftOf validates a line size and returns its log2.
func lineShiftOf(lineSize int) (uint, error) {
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		return 0, fmt.Errorf("reuse: line size %d must be a positive power of two", lineSize)
	}
	return uint(bits.TrailingZeros(uint(lineSize))), nil
}

// Analyze folds the trace to lineSize-granularity lines and returns the
// write reuse profile.
func Analyze(t *trace.Trace, lineSize int) (*Profile, error) {
	return analyze(t, lineSize, minWindow)
}

// analyze is Analyze over a stack that starts with window positions.
func analyze(t *trace.Trace, lineSize, window int) (*Profile, error) {
	shift, err := lineShiftOf(lineSize)
	if err != nil {
		return nil, err
	}
	s := newStack(window)
	// maxGap[id] is the maximum reuse depth observed since the last
	// write to the line (-1 encodes "no write yet").
	var maxGap []int32

	p := &Profile{LineSize: lineSize, Samples: make([]uint64, 33)}
	for _, e := range t.Events {
		first, end := lineSpan(e, shift)
		for ln := first; ln != end; ln++ {
			id, depth := s.access(ln)
			if depth < 0 {
				maxGap = append(maxGap, -1) // cold: infinite gap
			} else if g := maxGap[id]; g >= 0 && int32(depth) > g {
				maxGap[id] = int32(depth)
			}

			if e.Kind == trace.Write {
				// Sample the max interim depth since the last write.
				if ln == first {
					p.Writes++
					if g := maxGap[id]; g < 0 {
						p.Cold++
					} else {
						p.Samples[bucketFor(int(g))]++
					}
				}
				// New write epoch for this line.
				maxGap[id] = 0
			}
		}
	}
	return p, nil
}

// bucketFor maps a max depth d to its histogram bucket: bucket k covers
// d in [2^(k-1), 2^k), bucket 0 covers d == 0.
func bucketFor(d int) int {
	if d <= 0 {
		return 0
	}
	return bits.Len(uint(d))
}

// MeanDepth returns the mean of the bucketized max depths (using bucket
// midpoints; cold writes excluded) — a single-number locality summary.
func (p *Profile) MeanDepth() float64 {
	var total, count float64
	for k, n := range p.Samples {
		if n == 0 {
			continue
		}
		mid := 0.0
		if k > 0 {
			mid = (math.Exp2(float64(k-1)) + math.Exp2(float64(k))) / 2
		}
		total += mid * float64(n)
		count += float64(n)
	}
	if count == 0 {
		return 0
	}
	return total / count
}
