// Package timing is the trace-driven cycle model for the memory
// system: it converts the functional simulator's hits, misses,
// write-throughs and write-backs into cycles along the paper's two
// cycle axes. The latency axis motivates the write-miss taxonomy (§1:
// "write miss policies, although they do affect bandwidth, focus
// foremost on latency"; §4: "a cache using no-fetch-on-write can
// proceed immediately"). The store-pipeline axis is §3/Fig 3–4's sixth
// dimension of write-hit comparison: how stores fit the pipeline.
//
// The model:
//
//   - One cycle per instruction when nothing stalls.
//   - Every line (or sector) fetched from the next level stalls the
//     CPU for FetchLatency cycles, plus any wait for the dirty-victim
//     buffer to drain when the victim is dirty and the buffer is full.
//     The charge is per line fetched, not per missing event: an event
//     that spans two lines and fetches both pays twice, and a write hit
//     that must fill a partially-valid sub-block pays once.
//   - Eliminated write misses (write-validate / write-around /
//     write-invalidate) do not stall: the paper's central latency win.
//   - Each write-through word takes its own entry in a FIFO write
//     buffer (a writebuffer.Queue: entries never merge) retired one
//     entry per WriteRetire cycles; a full buffer stalls the CPU (the
//     Fig 5 mechanism, here integrated with the rest of the machine).
//   - Dirty victims enter a victim buffer (the same queue) drained one
//     entry per WritebackCycles; a refill that produces a dirty victim
//     while the buffer is full waits for a slot (§3's "dirty victim
//     buffer" discussion).
//   - Org selects the store pipeline of Fig 3 on the five-stage
//     pipeline (IF RF ALU MEM WB); see Organization. A gap
//     (non-memory) instruction or any line fetch clears the pipeline's
//     store state.
//
// Evaluate runs its own L1; Replay reads the L1's traffic from a
// recorded pass (cache.Log), so several models can share one L1 pass.
package timing

import (
	"fmt"

	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
	"cachewrite/internal/writebuffer"
)

// Organization selects the store pipeline model. The zero
// Organization models no store pipeline: stores never interlock.
type Organization uint8

const (
	// DirectMappedWriteThrough writes the data array in MEM
	// concurrently with the tag probe: one cycle per store, no
	// interlocks (Fig 3's left column). It needs a direct-mapped L1.
	DirectMappedWriteThrough Organization = iota + 1
	// SimpleWriteBack probes in MEM and writes the data in WB
	// (probe-before-write): a load immediately following a store finds
	// the data array busy and stalls one cycle (also the case for
	// set-associative write-through).
	SimpleWriteBack
	// DelayedWriteBack adds the last-write register of §3.1/Fig 4: the
	// probe for store N proceeds in parallel with the data write of
	// store N-1, restoring one-cycle stores. A read miss between the
	// probe and the deferred write drains the pending write first (one
	// cycle).
	DelayedWriteBack
)

// String returns a readable organization name.
func (o Organization) String() string {
	switch o {
	case DirectMappedWriteThrough:
		return "direct-mapped write-through"
	case SimpleWriteBack:
		return "simple write-back"
	case DelayedWriteBack:
		return "write-back + delayed write register"
	default:
		return fmt.Sprintf("Organization(%d)", uint8(o))
	}
}

// Organizations lists the three store pipeline models.
func Organizations() []Organization {
	return []Organization{DirectMappedWriteThrough, SimpleWriteBack, DelayedWriteBack}
}

// Config parameterizes the performance model.
type Config struct {
	// L1 is the first-level cache configuration.
	L1 cache.Config
	// Org is the store pipeline organization (zero: no interlocks).
	Org Organization
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
	if c.Org > DelayedWriteBack {
		return fmt.Errorf("timing: unknown organization %d", c.Org)
	}
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("timing: %w", err)
	}
	if c.Org == DirectMappedWriteThrough && c.L1.Assoc != 1 {
		return fmt.Errorf("timing: concurrent tag/data write requires a direct-mapped cache (assoc=%d)", c.L1.Assoc)
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

	// ReadMissStalls covers read fetches (including write-validate's
	// induced partial-validity fills).
	ReadMissStalls uint64
	// WriteMissStalls covers fetches by writes: fetch-on-write misses
	// (the stalls the no-fetch policies eliminate) and sub-block write
	// fills.
	WriteMissStalls uint64
	// WriteBufferStalls covers CPU waits on a full write buffer.
	WriteBufferStalls uint64
	// VictimStalls covers refills waiting on a full dirty-victim buffer.
	VictimStalls uint64
	// InterlockStalls counts cycles lost to store/load structural
	// hazards on the data array (SimpleWriteBack only).
	InterlockStalls uint64
	// DrainStalls counts cycles spent draining the delayed-write
	// register ahead of a read miss refill (DelayedWriteBack only).
	DrainStalls uint64

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

// StoreCost returns the marginal cycles per store attributable to the
// organization's store handling (interlock + drain stalls per store):
// the measured version of Table 2's "cycles required per write" row,
// minus the base cycle.
func (s Stats) StoreCost() float64 {
	if s.Cache.Writes == 0 {
		return 0
	}
	return float64(s.InterlockStalls+s.DrainStalls) / float64(s.Cache.Writes)
}

// outcome is a counting cache.Backside: the back-side traffic of the
// access in flight.
type outcome struct {
	fetches, writebacks, wtWords uint64
}

func (o *outcome) FetchLine(uint32, int)          { o.fetches++ }
func (o *outcome) WritebackLine(uint32, int, int) { o.writebacks++ }
func (o *outcome) WriteWord(uint32, uint8)        { o.wtWords++ }

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
	m := newModel(cfg)
	c.SetBackside(&m.out)
	for _, e := range t.Events {
		c.Access(e)
		m.step(e)
	}
	return m.finish(c.Stats()), nil
}

// Replay runs the timing model over a recorded pass of cfg.L1 (see
// cache.Log) instead of a live cache. The result equals
// Evaluate(cfg, log.Trace()).
func Replay(cfg Config, log *cache.Log) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	if log.Config() != cfg.L1 {
		return Stats{}, fmt.Errorf("timing: log of %s replayed as %s", log.Config(), cfg.L1)
	}
	m := newModel(cfg)
	p := log.Replayer(&m.out)
	for _, e := range log.Trace().Events {
		p.Next()
		m.step(e)
	}
	return m.finish(log.Stats()), nil
}

// model is the timing model behind the L1. It learns each event's
// back-side traffic through out, from a live cache (Evaluate) or a
// replayed log (Replay).
type model struct {
	cfg    Config
	out    outcome
	s      Stats
	now    uint64
	wb, vb writebuffer.Queue
	// Store-pipeline state: the previous instruction was a store, and
	// the delayed-write register holds a write.
	afterStore, pending bool
}

func newModel(cfg Config) *model {
	return &model{
		cfg: cfg,
		wb:  writebuffer.NewQueue(cfg.WriteBufferEntries, uint64(cfg.WriteRetire)),
		vb:  writebuffer.NewQueue(cfg.VictimBufferEntries, uint64(cfg.WritebackCycles)),
	}
}

// step charges event e, whose back-side traffic is in m.out, and
// clears m.out for the next event.
func (m *model) step(e trace.Event) {
	m.now += e.Instructions()
	out := m.out
	m.out = outcome{}

	// Dirty victims queue into the victim buffer; the CPU only waits
	// when the buffer is full (it must, or the victim's data would be
	// lost to the refill).
	for i := uint64(0); i < out.writebacks; i++ {
		stall, t2 := m.vb.Push(m.now)
		m.s.VictimStalls += stall
		m.now = t2
	}

	// Gap instructions are non-memory: they break any store/load
	// adjacency and give the delayed write a free slot to retire.
	if e.Gap > 0 {
		m.afterStore, m.pending = false, false
	}
	if e.Kind == trace.Write {
		m.afterStore, m.pending = true, m.cfg.Org == DelayedWriteBack
	} else {
		if m.afterStore && m.cfg.Org == SimpleWriteBack {
			// The store's WB-stage data write collides with this
			// load's MEM-stage data read.
			m.s.InterlockStalls++
			m.now++
		}
		if m.pending && out.fetches > 0 {
			// The refill must wait for the deferred write to drain.
			m.s.DrainStalls++
			m.now++
		}
		m.afterStore = false
	}

	// Fetches stall the CPU directly, and a refill empties the
	// pipeline's write-side state.
	if out.fetches > 0 {
		stall := out.fetches * uint64(m.cfg.FetchLatency)
		if e.Kind == trace.Write {
			m.s.WriteMissStalls += stall
		} else {
			m.s.ReadMissStalls += stall
		}
		m.now += stall
		m.afterStore, m.pending = false, false
	}

	// Write-through words enter the write buffer.
	for i := uint64(0); i < out.wtWords; i++ {
		stall, t2 := m.wb.Push(m.now)
		m.s.WriteBufferStalls += stall
		m.now = t2
	}
}

// finish returns the cycle breakdown, given the cache's statistics.
func (m *model) finish(cs cache.Stats) Stats {
	m.s.Cache = cs
	m.s.Instructions = cs.Instructions
	m.s.Cycles = m.now
	return m.s
}
