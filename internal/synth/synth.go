// Package synth generates parameterized synthetic reference streams:
// the canonical access patterns cache papers reason with — sequential
// streams, strided walks, block copies, pointer chases, hot/cold
// mixtures and round-robin interleavings (streamed, see Interleave). They complement the six real
// workload stand-ins: where package workload answers "what do real
// programs do", synth answers "what does this policy do to a pure
// pattern" (the paper's own block-copy argument in §4 is synthetic in
// exactly this sense).
//
// All generators are deterministic for a given configuration.
package synth

import (
	"fmt"

	"cachewrite/internal/trace"
)

// rng is the same xorshift64* used by package workload.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Sequential emits n reads or writes walking upward from base with the
// given stride, one access every gap+1 instructions — the paper's
// "vector machine" pattern that defeats write-back caching (Figs 1-2).
func Sequential(kind trace.Kind, base uint32, n int, size uint8, stride uint32, gap uint16) *trace.Trace {
	t := &trace.Trace{Name: fmt.Sprintf("seq-%s", kind)}
	for i := 0; i < n; i++ {
		t.Append(trace.Event{Addr: base + uint32(i)*stride, Size: size, Gap: gap, Kind: kind})
	}
	return t
}

// Copy emits an interleaved read/write stream moving n words of size
// bytes from src to dst — §4's block-copy argument in trace form.
func Copy(src, dst uint32, n int, size uint8) *trace.Trace {
	t := &trace.Trace{Name: "copy"}
	for i := 0; i < n; i++ {
		off := uint32(i) * uint32(size)
		t.Append(trace.Event{Addr: src + off, Size: size, Gap: 1, Kind: trace.Read})
		t.Append(trace.Event{Addr: dst + off, Size: size, Gap: 1, Kind: trace.Write})
	}
	return t
}

// HotCold mixes accesses to a small hot set (hotLines lines of
// lineSize bytes, probability hotPct/100) with uniform accesses over a
// coldSpan-byte region; writePct/100 of accesses are writes. The
// classic locality knob for hit-rate studies.
func HotCold(seed uint64, n, hotLines, lineSize int, coldSpan uint32, hotPct, writePct int) (*trace.Trace, error) {
	if hotLines <= 0 || lineSize <= 0 || coldSpan == 0 {
		return nil, fmt.Errorf("synth: hotLines, lineSize and coldSpan must be positive")
	}
	if hotPct < 0 || hotPct > 100 || writePct < 0 || writePct > 100 {
		return nil, fmt.Errorf("synth: percentages must be in [0,100]")
	}
	r := newRNG(seed)
	t := &trace.Trace{Name: "hotcold"}
	hotBase := uint32(0x10000)
	coldBase := uint32(0x40_0000)
	for i := 0; i < n; i++ {
		var addr uint32
		if r.intn(100) < hotPct {
			addr = hotBase + uint32(r.intn(hotLines))*uint32(lineSize)
		} else {
			addr = coldBase + uint32(r.intn(int(coldSpan)))&^7
		}
		k := trace.Read
		if r.intn(100) < writePct {
			k = trace.Write
		}
		t.Append(trace.Event{Addr: addr &^ 3, Size: 4, Gap: uint16(r.intn(4)), Kind: k})
	}
	return t, nil
}

// PointerChase emits reads that follow a deterministic pseudo-random
// permutation over nodes spaced nodeSize bytes apart — the
// linked-list / tree traversal pattern with no spatial locality.
func PointerChase(seed uint64, nodes, hops, nodeSize int) (*trace.Trace, error) {
	if nodes <= 1 || nodeSize < 4 {
		return nil, fmt.Errorf("synth: need at least 2 nodes of >= 4 bytes")
	}
	// Build a permutation cycle (Sattolo's algorithm) so the chase
	// visits every node before repeating.
	perm := make([]int, nodes)
	for i := range perm {
		perm[i] = i
	}
	r := newRNG(seed)
	for i := nodes - 1; i > 0; i-- {
		j := r.intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	t := &trace.Trace{Name: "chase"}
	base := uint32(0x20_0000)
	cur := 0
	for i := 0; i < hops; i++ {
		t.Append(trace.Event{Addr: base + uint32(cur*nodeSize), Size: 4, Gap: 3, Kind: trace.Read})
		cur = perm[cur]
	}
	return t, nil
}

// Interleave runs traces round-robin with a fixed instruction quantum —
// the context-switch pattern of multiprogrammed machines (out of the
// paper's scope, §2, but the natural follow-on question). Each trace
// runs for quantum instructions, then the next takes over; an event
// that would overrun the quantum waits for the trace's next turn,
// unless it is the turn's first (a quantum is a minimum grant).
// Finished and empty traces drop out. Interleave hands each turn's run
// of events to fn, in schedule order, as a slice of the original
// trace, so the interleaving is streamed and never built.
func Interleave(quantum uint64, ts []*trace.Trace, fn func(run []trace.Event)) error {
	if quantum == 0 {
		return fmt.Errorf("synth: quantum must be positive")
	}
	live := make([][]trace.Event, 0, len(ts)) // each trace's unrun events
	for _, t := range ts {
		if t.Len() > 0 {
			live = append(live, t.Events)
		}
	}
	for len(live) > 0 {
		for li := 0; li < len(live); {
			rest := live[li]
			n := 0
			for used := uint64(0); n < len(rest); n++ {
				cost := rest[n].Instructions()
				if used+cost > quantum && used > 0 {
					break
				}
				used += cost
			}
			fn(rest[:n])
			if n == len(rest) {
				live = append(live[:li], live[li+1:]...)
				continue
			}
			live[li] = rest[n:]
			li++
		}
	}
	return nil
}
