package trace

import (
	"fmt"
	"sort"
)

// InterleaveStats reports the timing fidelity of an interleave merge.
// The Gap field of an Event holds at most 65535 instructions, so a
// merged stream whose schedule contains a longer quiet period cannot
// express it on a single event; the merge instead carries the excess
// forward into the gaps of later events (which were computed against a
// smaller emitted time and therefore have headroom).
type InterleaveStats struct {
	// GapSplits counts events whose scheduled gap exceeded the Gap
	// field's capacity and was carried into subsequent events.
	GapSplits uint64
	// CarriedMax is the largest instruction deficit outstanding at any
	// point of the merge (how far emitted time lagged the schedule).
	CarriedMax uint64
	// LostInstructions is the deficit still outstanding when the merge
	// ran out of carrier events; Instructions() of the merged trace is
	// short by exactly this amount. Zero whenever enough events follow
	// every oversized gap.
	LostInstructions uint64
}

// InterleaveOffset merges traces by instruction time: events are
// replayed in global instruction order, modelling independent phases
// sharing one cache (coarse-grained multiprogramming without address
// translation). Input i begins at instruction time offsets[i] (missing
// entries mean zero), so staggered phase arrivals can be modelled. Gaps
// are recomputed so the merged trace's instruction positions match the
// union schedule; gaps longer than the Gap field's capacity are split
// across subsequent events, preserving total instruction time. Ties at
// an instruction slot resolve by input order for determinism. The
// returned stats describe how faithfully the schedule fit the Gap
// field's capacity.
func InterleaveOffset(name string, offsets []uint64, ts ...*Trace) (*Trace, InterleaveStats) {
	type cursor struct {
		t    *Trace
		i    int
		when uint64 // instruction time of the event at i
	}
	cs := make([]*cursor, 0, len(ts))
	for si, t := range ts {
		if t.Len() == 0 {
			continue
		}
		var off uint64
		if si < len(offsets) {
			off = offsets[si]
		}
		cs = append(cs, &cursor{t: t, when: off + t.Events[0].Instructions()})
	}
	out := &Trace{Name: name}
	var st InterleaveStats
	// emitted is the instruction time the output events represent so
	// far (sum of gap+1); ideal is the same sum had gaps been unbounded.
	// Their difference is the deficit an oversized gap left behind,
	// absorbed by later events whose gaps are computed against emitted.
	var emitted, ideal uint64
	for len(cs) > 0 {
		// Pick the earliest event; ties resolve by input order for
		// determinism (cursor removal below preserves relative order).
		best := 0
		for i := 1; i < len(cs); i++ {
			if cs[i].when < cs[best].when {
				best = i
			}
		}
		c := cs[best]
		e := c.t.Events[c.i]
		gap := uint64(0)
		if c.when > emitted {
			gap = c.when - emitted - 1
		}
		if c.when > ideal {
			ideal += c.when - ideal
		} else {
			ideal++
		}
		if gap > 0xffff {
			st.GapSplits++
			gap = 0xffff
		}
		e.Gap = uint16(gap)
		out.Append(e)
		emitted += gap + 1
		if d := ideal - emitted; d > st.CarriedMax {
			st.CarriedMax = d
		}

		c.i++
		if c.i >= c.t.Len() {
			cs = append(cs[:best], cs[best+1:]...)
			continue
		}
		c.when += c.t.Events[c.i].Instructions()
	}
	st.LostInstructions = ideal - emitted
	return out, st
}

// Rebase returns a copy of the trace with delta added to every address.
// It fails if any access would leave the 32-bit address space.
func Rebase(t *Trace, delta int64) (*Trace, error) {
	out := &Trace{Name: t.Name, Events: make([]Event, t.Len())}
	for i, e := range t.Events {
		a := int64(e.Addr) + delta
		if a < 0 || a+int64(e.Size) > 1<<32 {
			return nil, fmt.Errorf("trace: rebased event %d at %#x+%d leaves the address space", i, e.Addr, delta)
		}
		e.Addr = uint32(a)
		out.Events[i] = e
	}
	return out, nil
}

// CompactRegions remaps the trace onto a dense address layout: every
// occupied 1<<blockBits superblock is assigned a consecutive slot
// (ascending by original block number) and addresses keep their offset
// within the block. Cache index and offset bits are untouched as long
// as blockBits exceeds the cache's index+offset width, so hit/miss
// behavior within each region is preserved while a sparse footprint
// (stack near the top of the address space, heap in the middle) packs
// into the low addresses — which lets per-core window shifts stay
// small. Numerically adjacent occupied blocks stay adjacent, so events
// spanning a block boundary remain contiguous. blockBits must be in
// [4, 31].
func CompactRegions(t *Trace, blockBits uint) (*Trace, error) {
	if blockBits < 4 || blockBits > 31 {
		return nil, fmt.Errorf("trace: compact block bits %d outside [4,31]", blockBits)
	}
	// Consecutive events almost always share a block, so the map is
	// touched only when the block changes.
	seen := make(map[uint32]struct{})
	last := ^uint32(0)
	for _, e := range t.Events {
		for _, b := range [2]uint32{e.Addr >> blockBits, (e.Addr + uint32(e.Size) - 1) >> blockBits} {
			if b != last {
				seen[b] = struct{}{}
				last = b
			}
		}
	}
	blocks := make([]uint32, 0, len(seen))
	for b := range seen {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	slot := make(map[uint32]uint32, len(blocks))
	for i, b := range blocks {
		slot[b] = uint32(i)
	}
	mask := uint32(1)<<blockBits - 1
	out := &Trace{Name: t.Name, Events: make([]Event, t.Len())}
	lastBlock, lastSlot := ^uint32(0), uint32(0)
	for i, e := range t.Events {
		if b := e.Addr >> blockBits; b != lastBlock {
			lastBlock, lastSlot = b, slot[b]
		}
		e.Addr = lastSlot<<blockBits | e.Addr&mask
		out.Events[i] = e
	}
	return out, nil
}
