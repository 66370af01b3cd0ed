// Package writebuffer models the write buffer of paper §3.2 and Fig 5:
// a FIFO between the CPU and the next level, drained at a fixed rate,
// that stalls the CPU when it is full.
//
// Queue is that FIFO, and one retire rule times it: an entry pushed at
// cycle t completes rate cycles after the later of t and the completion
// of the entry ahead of it, and a push that finds every slot busy
// stalls the CPU until the oldest entry completes. Queue serves the
// cycle model (internal/timing) as its per-word write buffer and its
// dirty-victim buffer.
//
// Buffer is the coalescing buffer of Fig 5: a Queue of cache-line-wide
// entries in which a write to a line still pending merges into its
// entry instead of taking a slot. Its clock is the paper's: the
// instruction stream advances one cycle per instruction and cache
// misses are ignored. The paper's observation — merging only becomes
// significant when the buffer is almost always full, i.e. when stores
// almost always stall — emerges directly from this model.
package writebuffer

import (
	"fmt"

	"cachewrite/internal/trace"
)

// Queue is a FIFO of fixed depth drained one entry every rate cycles,
// by the rule in the package comment. It allocates nothing per push.
type Queue struct {
	slots   []slot // ring of depth slots
	head, n int    // oldest occupied slot and occupancy, FIFO order
	rate    uint64
	last    uint64 // completion cycle of the newest entry ever pushed
}

// slot is one queued entry: its completion cycle and, for Buffer's
// merge check, its line number.
type slot struct {
	done uint64
	line uint32
}

// NewQueue returns an empty queue of depth slots drained one entry
// every rate cycles. The depth must not be negative; a depth of zero
// is unbuffered: every push stalls the CPU for rate cycles.
func NewQueue(depth int, rate uint64) Queue {
	return Queue{slots: make([]slot, depth), rate: rate}
}

// Push enqueues an entry at cycle t and returns the cycles the CPU
// stalls waiting for a slot and the cycle it resumes at.
func (q *Queue) Push(t uint64) (stall, now uint64) {
	q.drain(t)
	return q.push(t, 0)
}

// push is Push for a queue already drained to cycle t.
func (q *Queue) push(t uint64, line uint32) (stall, now uint64) {
	if len(q.slots) == 0 || q.rate == 0 {
		// Unbuffered, the CPU absorbs the whole drain time; at rate
		// zero the entry completes as it enters.
		return q.rate, t + q.rate
	}
	if q.n == len(q.slots) {
		// Wait for the oldest entry; the next completes rate cycles
		// after it.
		stall = q.slots[q.head].done - t
		t += stall
		q.pop()
	}
	// An empty queue's last entry completed by t, so no test of n is
	// needed.
	q.last = max(t, q.last) + q.rate
	q.slots[q.at(q.n)] = slot{done: q.last, line: line}
	q.n++
	return stall, t
}

// at returns the ring index of the i-th oldest entry.
func (q *Queue) at(i int) int {
	if i += q.head; i >= len(q.slots) {
		i -= len(q.slots)
	}
	return i
}

// drain removes the entries completed by cycle t.
func (q *Queue) drain(t uint64) {
	for q.n > 0 && q.slots[q.head].done <= t {
		q.pop()
	}
}

// pop removes the oldest entry.
func (q *Queue) pop() {
	if q.head++; q.head == len(q.slots) {
		q.head = 0
	}
	q.n--
}

// holds reports whether an entry for line is queued.
func (q *Queue) holds(line uint32) bool {
	for i, j := 0, q.head; i < q.n; i++ {
		if q.slots[j].line == line {
			return true
		}
		if j++; j == len(q.slots) {
			j = 0
		}
	}
	return false
}

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
	cfg   Config
	q     Queue
	now   uint64 // current cycle
	stats Stats
}

// New builds a buffer. It is small enough to inline, so a caller that
// keeps the buffer local allocates only its queue's slots.
func New(cfg Config) (*Buffer, error) {
	b, err := newBuffer(cfg)
	if err != nil {
		return nil, err
	}
	return &b, nil
}

func newBuffer(cfg Config) (Buffer, error) {
	if err := cfg.Validate(); err != nil {
		return Buffer{}, err
	}
	return Buffer{cfg: cfg, q: NewQueue(cfg.Entries, uint64(cfg.RetireInterval))}, nil
}

// Stats returns a copy of the accumulated counters.
func (b *Buffer) Stats() Stats {
	s := b.stats
	s.Retired = s.Writes - s.Merged - uint64(b.q.n)
	return s
}

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
	ln := addr / uint32(b.cfg.LineSize)
	b.q.drain(b.now)
	if b.q.holds(ln) {
		b.stats.Merged++
		return
	}
	stall, now := b.q.push(b.now, ln)
	b.stats.StallCycles += stall
	b.now = now
}

// PendingLineAddrs returns the byte addresses of the buffered lines,
// oldest first, after draining entries whose retirement time has
// passed. Fault injection uses it to strike a resident entry.
func (b *Buffer) PendingLineAddrs() []uint32 {
	b.q.drain(b.now)
	out := make([]uint32, b.q.n)
	for i := range out {
		out[i] = b.q.slots[b.q.at(i)].line * uint32(b.cfg.LineSize)
	}
	return out
}
