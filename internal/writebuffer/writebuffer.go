// Package writebuffer models the coalescing write buffer of paper §3.2
// and Fig 5: a small FIFO of cache-line-wide entries between a
// write-through cache and the next level. Writes to an address whose
// line is already buffered merge into that entry; when the buffer is
// full the CPU stalls until the next retirement.
//
// Timing follows the paper's model: the instruction stream advances one
// cycle per instruction, cache misses are ignored, and the buffer
// retires one entry every RetireInterval cycles. The paper's
// observation — merging only becomes significant when the buffer is
// almost always full, i.e. when stores almost always stall — emerges
// directly from this model.
package writebuffer

import (
	"fmt"
	"slices"

	"cachewrite/internal/trace"
)

// Config describes a coalescing write buffer.
type Config struct {
	// Entries is the buffer depth (the paper uses 8).
	Entries int
	// LineSize is the width of each entry in bytes (the paper uses 16B,
	// one first-level cache line).
	LineSize int
	// RetireInterval is the number of cycles between retirements of the
	// oldest entry. Zero retires every write immediately (an
	// infinitely fast next level): no merging, no stalls.
	RetireInterval int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Entries <= 0 {
		return fmt.Errorf("writebuffer: entries %d must be positive", c.Entries)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("writebuffer: line size %d must be a positive power of two", c.LineSize)
	}
	if c.RetireInterval < 0 {
		return fmt.Errorf("writebuffer: retire interval %d must be non-negative", c.RetireInterval)
	}
	return nil
}

// Stats reports the outcome of a simulation.
type Stats struct {
	Instructions uint64 // cycles of useful work (1 per instruction)
	Writes       uint64 // write events offered to the buffer
	Merged       uint64 // writes that coalesced into a buffered entry
	Retired      uint64 // entries written to the next level
	StallCycles  uint64 // cycles the CPU waited on a full buffer
}

// MergedFraction returns the fraction of writes that merged.
func (s Stats) MergedFraction() float64 {
	if s.Writes == 0 {
		return 0
	}
	return float64(s.Merged) / float64(s.Writes)
}

// StallCPI returns the cycles-per-instruction burden of buffer-full
// stalls (the paper's Fig 5 right-hand axis).
func (s Stats) StallCPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.StallCycles) / float64(s.Instructions)
}

// Buffer is a coalescing write buffer simulator.
type Buffer struct {
	cfg     Config
	lines   []uint32 // ring of cfg.Entries buffered line numbers
	head, n int      // oldest occupied slot and occupancy, FIFO order
	now     uint64   // current cycle
	ret     uint64   // next retirement opportunity
	stats   Stats
}

// New builds a buffer.
func New(cfg Config) (*Buffer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Buffer{cfg: cfg, lines: make([]uint32, cfg.Entries)}, nil
}

// Stats returns a copy of the accumulated counters.
func (b *Buffer) Stats() Stats { return b.stats }

// Run simulates the full trace: every event advances time by its
// instruction count; write events enter the buffer.
func (b *Buffer) Run(t *trace.Trace) {
	for _, e := range t.Events {
		b.Step(e)
	}
}

// Step advances the buffer's clock by one event's instruction count
// and offers the event to the buffer if it is a write — Run, one event
// at a time, for callers interleaving the buffer with other simulators.
func (b *Buffer) Step(e trace.Event) {
	n := e.Instructions()
	b.now += n
	b.stats.Instructions += n
	if e.Kind == trace.Write {
		b.write(e.Addr)
	}
}

func (b *Buffer) write(addr uint32) {
	b.stats.Writes++
	if b.cfg.RetireInterval == 0 {
		// Immediate retirement: the write passes straight through.
		b.stats.Retired++
		return
	}
	b.drainUpTo(b.now)

	ln := addr / uint32(b.cfg.LineSize)
	if older, newer := b.pending(); slices.Contains(older, ln) || slices.Contains(newer, ln) {
		b.stats.Merged++
		return
	}
	if b.n == len(b.lines) {
		// Full: stall until the next retirement frees an entry.
		wait := b.ret - b.now
		b.stats.StallCycles += wait
		b.now = b.ret
		b.retireOne()
	}
	if b.n == 0 {
		// The retirement clock restarts when the buffer goes from empty
		// to non-empty.
		b.ret = b.now + uint64(b.cfg.RetireInterval)
	}
	tail := b.head + b.n
	if tail >= len(b.lines) {
		tail -= len(b.lines)
	}
	b.lines[tail] = ln
	b.n++
}

// pending returns the buffered line numbers as the ring's two
// segments, oldest first.
func (b *Buffer) pending() (older, newer []uint32) {
	if end := b.head + b.n; end > len(b.lines) {
		return b.lines[b.head:], b.lines[:end-len(b.lines)]
	}
	return b.lines[b.head : b.head+b.n], nil
}

// drainUpTo retires entries whose retirement opportunity has passed.
func (b *Buffer) drainUpTo(t uint64) {
	for b.n > 0 && b.ret <= t {
		b.retireOne()
	}
}

func (b *Buffer) retireOne() {
	if b.head++; b.head == len(b.lines) {
		b.head = 0
	}
	b.n--
	b.stats.Retired++
	b.ret += uint64(b.cfg.RetireInterval)
}

// PendingLineAddrs returns the byte addresses of the buffered lines,
// oldest first, after draining entries whose retirement time has
// passed. Fault injection uses it to strike a resident entry.
func (b *Buffer) PendingLineAddrs() []uint32 {
	b.drainUpTo(b.now)
	older, newer := b.pending()
	out := make([]uint32, 0, b.n)
	for _, ln := range older {
		out = append(out, ln*uint32(b.cfg.LineSize))
	}
	for _, ln := range newer {
		out = append(out, ln*uint32(b.cfg.LineSize))
	}
	return out
}
