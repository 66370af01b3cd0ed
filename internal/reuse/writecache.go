package reuse

import (
	"fmt"
	"math"
	"slices"

	"cachewrite/internal/trace"
)

// Curve is a write cache's merge curve: how many of a trace's writes a
// fully-associative LRU write cache (package writecache) absorbs, at
// every entry count from 0 to len(Merged)-1.
type Curve struct {
	// LineSize is the write cache's line width in bytes.
	LineSize int
	// Writes counts the trace's write events.
	Writes uint64
	// Merged[n] counts the writes an n-entry write cache absorbs.
	Merged []uint64
}

// RemovedFraction is the fraction of write traffic an n-entry write
// cache removes: writecache.Stats.RemovedFraction, bit for bit, for
// every n at once.
func (c *Curve) RemovedFraction(n int) float64 {
	if c.Writes == 0 {
		return 0
	}
	return float64(c.Merged[n]) / float64(c.Writes)
}

// WriteCacheCurve computes the write cache's merge curve for 0 to
// maxEntries entries of lineSize bytes in one pass over t's writes.
// A write merges in an n-entry cache exactly when every line it touches
// is within the top n of the write-only LRU stack when accessed, so
// each write merges at every size from one more than its deepest
// line's depth upward (and never in a zero-entry cache). Depths of
// maxEntries or more merge at no size asked about, so only the top
// maxEntries lines of the stack are kept, in a move-to-front array
// whose index is a line's depth; a line below them is as good as cold.
// Memory is O(maxEntries), whatever the trace's length or footprint.
func WriteCacheCurve(t *trace.Trace, lineSize, maxEntries int) (*Curve, error) {
	shift, err := lineShiftOf(lineSize)
	if err != nil {
		return nil, err
	}
	if maxEntries < 0 {
		return nil, fmt.Errorf("reuse: max entries %d must be non-negative", maxEntries)
	}
	// top[d] is the line at depth d, most recent first.
	top := make([]uint32, 0, maxEntries)
	// Merged[k] first counts the writes whose smallest merging cache
	// has k entries, then is summed into the curve.
	c := &Curve{LineSize: lineSize, Merged: make([]uint64, maxEntries+1)}
	for _, e := range t.Events {
		if e.Kind != trace.Write {
			continue
		}
		c.Writes++
		k := 1
		first, end := lineSpan(e, shift)
		for ln := first; ln != end; ln++ {
			d := slices.Index(top, ln)
			if d < 0 {
				// Cold, or maxEntries or more lines deep: no cache
				// size asked about holds the line. It enters at the
				// top, and a full array's bottom line falls out.
				k = math.MaxInt
				if len(top) < maxEntries {
					top = top[:len(top)+1]
				}
				if d = len(top) - 1; d < 0 {
					continue
				}
			} else if d >= k {
				k = d + 1
			}
			copy(top[1:d+1], top[:d])
			top[0] = ln
		}
		if k <= maxEntries {
			c.Merged[k]++
		}
	}
	var merged uint64
	for n, need := range c.Merged {
		merged += need
		c.Merged[n] = merged
	}
	return c, nil
}
