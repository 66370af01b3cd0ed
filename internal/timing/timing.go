// Package timing is a trace-driven performance model for the memory
// system: it converts the functional simulator's hits, misses,
// write-throughs and write-backs into cycles, capturing the latency
// story that motivates the paper's write-miss taxonomy (§1: "write miss
// policies, although they do affect bandwidth, focus foremost on
// latency"; §4: "a cache using no-fetch-on-write can proceed
// immediately").
//
// The model:
//
//   - One cycle per instruction when nothing stalls.
//   - A read miss (or a fetch-triggering write miss under
//     fetch-on-write) stalls the CPU for FetchLatency cycles, plus any
//     wait for the dirty-victim buffer to drain when the victim is
//     dirty and the buffer is full.
//   - Eliminated write misses (write-validate / write-around /
//     write-invalidate) do not stall: the paper's central latency win.
//   - Each write-through word takes its own entry in a FIFO write
//     buffer (entries never merge) retired one entry per WriteRetire
//     cycles; a full buffer stalls the CPU (the Fig 5 mechanism, here
//     integrated with the rest of the machine).
//   - Dirty victims enter a victim buffer drained one entry per
//     WritebackCycles; a refill that produces a dirty victim while the
//     buffer is full waits for a slot (§3's "dirty victim buffer"
//     discussion).
package timing

import (
	"fmt"

	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
)

// Config parameterizes the performance model.
type Config struct {
	// L1 is the first-level cache configuration.
	L1 cache.Config
	// FetchLatency is the CPU stall per line fetch from the next level.
	FetchLatency int
	// WriteBufferEntries is the FIFO write buffer depth for
	// write-through traffic, one entry per word (ignored if the
	// configuration produces no write-through words). Zero disables buffering: every
	// write-through word stalls WriteRetire cycles.
	WriteBufferEntries int
	// WriteRetire is the cycles the next level needs to retire one
	// write-buffer entry.
	WriteRetire int
	// VictimBufferEntries is the dirty-victim buffer depth (the paper
	// argues one entry usually suffices; here it is measurable). Zero
	// means no buffer: every write-back stalls WritebackCycles.
	VictimBufferEntries int
	// WritebackCycles is the cycles the next level needs to absorb one
	// dirty victim line.
	WritebackCycles int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("timing: %w", err)
	}
	if c.FetchLatency < 0 || c.WriteRetire < 0 || c.WritebackCycles < 0 {
		return fmt.Errorf("timing: latencies must be non-negative")
	}
	if c.WriteBufferEntries < 0 || c.VictimBufferEntries < 0 {
		return fmt.Errorf("timing: buffer depths must be non-negative")
	}
	return nil
}

// Stats is the cycle breakdown.
type Stats struct {
	Instructions uint64
	Cycles       uint64

	// ReadMissStalls covers read misses (including write-validate's
	// induced partial-validity fills).
	ReadMissStalls uint64
	// WriteMissStalls covers fetch-on-write fetches — the stalls the
	// no-fetch policies eliminate.
	WriteMissStalls uint64
	// WriteBufferStalls covers CPU waits on a full write buffer.
	WriteBufferStalls uint64
	// VictimStalls covers refills waiting on a full dirty-victim buffer.
	VictimStalls uint64

	// Cache carries the functional statistics.
	Cache cache.Stats
}

// CPI returns cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// drainQueue models a FIFO drained at a fixed rate: entries become free
// rate cycles apart once the drain engine reaches them.
type drainQueue struct {
	freeAt []uint64 // completion time per occupied slot, FIFO order
	rate   uint64
}

// drain removes entries completed by time t.
func (q *drainQueue) drain(t uint64) {
	for len(q.freeAt) > 0 && q.freeAt[0] <= t {
		q.freeAt = q.freeAt[1:]
	}
}

// push inserts an entry at time t given capacity cap, returning the
// stall incurred (time the CPU waits for a slot) and the new current
// time.
func (q *drainQueue) push(t uint64, capacity int) (stall uint64, now uint64) {
	q.drain(t)
	if capacity <= 0 {
		// Unbuffered: the CPU absorbs the full drain latency.
		return q.rate, t + q.rate
	}
	if len(q.freeAt) >= capacity {
		wait := q.freeAt[0] - t
		t += wait
		stall = wait
		q.drain(t)
	}
	// The new entry completes rate cycles after the later of now and the
	// previous tail.
	start := t
	if n := len(q.freeAt); n > 0 && q.freeAt[n-1] > start {
		start = q.freeAt[n-1]
	}
	q.freeAt = append(q.freeAt, start+q.rate)
	return stall, t
}

// Evaluate runs the trace through the functional cache and the timing
// model.
func Evaluate(cfg Config, t *trace.Trace) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	c, err := cache.New(cfg.L1)
	if err != nil {
		return Stats{}, err
	}

	var s Stats
	var now uint64
	wb := &drainQueue{rate: uint64(cfg.WriteRetire)}
	vb := &drainQueue{rate: uint64(cfg.WritebackCycles)}

	var prev cache.Stats
	for _, e := range t.Events {
		now += e.Instructions()
		c.Access(e)
		cur := c.Stats()

		fetches := cur.Fetches - prev.Fetches
		writebacks := cur.Writebacks - prev.Writebacks
		wtWords := cur.WriteThroughs - prev.WriteThroughs

		// Dirty victims queue into the victim buffer; the CPU only waits
		// when the buffer is full (it must, or the victim's data would be
		// lost to the refill).
		for i := uint64(0); i < writebacks; i++ {
			stall, t2 := vb.push(now, cfg.VictimBufferEntries)
			s.VictimStalls += stall
			now = t2
		}

		// Fetches stall the CPU directly.
		if fetches > 0 {
			stall := fetches * uint64(cfg.FetchLatency)
			if e.Kind == trace.Write {
				s.WriteMissStalls += stall
			} else {
				s.ReadMissStalls += stall
			}
			now += stall
		}

		// Write-through words enter the write buffer.
		for i := uint64(0); i < wtWords; i++ {
			stall, t2 := wb.push(now, cfg.WriteBufferEntries)
			s.WriteBufferStalls += stall
			now = t2
		}

		prev = cur
	}
	s.Cache = c.Stats()
	s.Instructions = s.Cache.Instructions
	s.Cycles = now
	return s, nil
}
