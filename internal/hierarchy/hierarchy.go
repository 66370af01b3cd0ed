// Package hierarchy composes a two-level memory hierarchy around the
// first-level data cache: L1 → (optional write cache) → L2 → memory.
// The paper assumes "two or more levels of caching" (§1); this package
// provides that second level and the measurement points for the traffic
// "out the back" of the first-level cache that §5 characterizes. New
// builds the whole hierarchy around a live L1; Replay feeds the levels
// behind the L1 from a recorded pass of it (cache.Log), which is that
// traffic as one stream.
package hierarchy

import (
	"fmt"

	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
	"cachewrite/internal/writecache"
)

// Config describes the hierarchy.
type Config struct {
	// L1 is the first-level data cache configuration.
	L1 cache.Config
	// WriteCache, if non-nil, places a write cache between L1 and L2.
	// Only sensible when L1 is write-through (as in the paper's Fig 6).
	WriteCache *writecache.Config
	// VictimMode additionally runs the write cache as a victim cache
	// (the paper notes the two structures can be merged, citing Jouppi
	// 1990): clean L1 victims are captured and L1 line fetches that hit
	// a captured victim skip the L2. Requires WriteCache with a line
	// size equal to L1's.
	VictimMode bool
	// L2, if non-nil, adds a second-level cache. When nil the back side
	// of L1 (or the write cache) talks straight to memory.
	L2 *cache.Config
	// Inclusive enforces multi-level inclusion: an L2 eviction
	// back-invalidates any L1 lines it covered, with L1 dirty data
	// merged into the outgoing victim. Requires an L2.
	Inclusive bool
}

// Validate reports whether the configuration is realizable.
func (c Config) Validate() error {
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("hierarchy: L1: %w", err)
	}
	if c.WriteCache != nil {
		if err := c.WriteCache.Validate(); err != nil {
			return fmt.Errorf("hierarchy: write cache: %w", err)
		}
		if c.WriteCache.LineSize > cache.MaxLineSize {
			// An eviction reaches the next level as one whole-line write
			// event, which must fit in a cache line.
			return fmt.Errorf("hierarchy: write-cache line size %dB exceeds the %dB maximum", c.WriteCache.LineSize, cache.MaxLineSize)
		}
		if c.L1.WriteHit != cache.WriteThrough {
			return fmt.Errorf("hierarchy: a write cache requires a write-through L1 (got %s)", c.L1.WriteHit)
		}
	}
	if c.VictimMode {
		if c.WriteCache == nil {
			return fmt.Errorf("hierarchy: victim mode requires a write cache")
		}
		if c.WriteCache.LineSize != c.L1.LineSize {
			return fmt.Errorf("hierarchy: victim mode needs write-cache lines (%dB) matching L1 lines (%dB)",
				c.WriteCache.LineSize, c.L1.LineSize)
		}
	}
	if c.Inclusive && c.L2 == nil {
		return fmt.Errorf("hierarchy: inclusion requires an L2")
	}
	if c.L2 != nil {
		if err := c.L2.Validate(); err != nil {
			return fmt.Errorf("hierarchy: L2: %w", err)
		}
		if c.L2.LineSize < c.L1.LineSize {
			return fmt.Errorf("hierarchy: L2 line size %dB smaller than L1's %dB", c.L2.LineSize, c.L1.LineSize)
		}
		if c.L2.Size < c.L1.Size {
			return fmt.Errorf("hierarchy: L2 size %dB smaller than L1's %dB (inclusion impossible)", c.L2.Size, c.L1.Size)
		}
	}
	return nil
}

// Traffic counts what crosses the two back-side ports of a two-level
// hierarchy: L1 → L2 and L2 → memory. L1Port and MemPort are the only
// code that increments it.
type Traffic struct {
	// L1ToL2Transactions counts transactions leaving the L1 complex
	// (after write-cache merging): line fetches, dirty write-backs, and
	// write-through words or write-cache evictions.
	L1ToL2Transactions uint64
	// L1ToL2Bytes is the same traffic in bytes (whole-line write-backs).
	L1ToL2Bytes uint64
	// L2ToMemTransactions and L2ToMemBytes count traffic at the back of
	// the L2 (zero when no L2 is configured). L2ToMemBytes charges
	// write-backs their full line size, matching a memory port without
	// sub-block write capability.
	L2ToMemTransactions uint64
	L2ToMemBytes        uint64
	// L2ToMemWritebacks counts the write-back transactions within
	// L2ToMemTransactions; L2ToMemWritebackBytes is their full-line
	// share of L2ToMemBytes and L2ToMemDirtyBytes the bytes actually
	// dirty in those victims, so sub-block dirty-write-back accounting
	// (bus.Config.SubblockWriteback) is exact at the L2 backside too.
	L2ToMemWritebacks     uint64
	L2ToMemWritebackBytes uint64
	L2ToMemDirtyBytes     uint64
}

// Stats aggregates the hierarchy's traffic counters.
type Stats struct {
	// Traffic comes first so the promoted counters keep their place
	// in JSON output.
	Traffic
	// VictimHits counts L1 line fetches satisfied by the write cache in
	// victim mode (each one is an avoided L1->L2 transaction).
	VictimHits uint64
	// BackInvalidations counts L1 lines invalidated to preserve
	// inclusion when the L2 evicted; InclusionDirtyBytes is the L1 dirty
	// data merged into outgoing L2 victims in the process.
	BackInvalidations   uint64
	InclusionDirtyBytes uint64
}

// Hierarchy is a composed simulator. Drive it with Access/AccessTrace
// and read the per-level statistics afterwards.
type Hierarchy struct {
	cfg Config
	l1  *cache.Cache
	wc  *writecache.Cache
	l2  *cache.Cache

	stats Stats
}

// New builds the hierarchy.
func New(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h, sink, err := newBehindL1(cfg)
	if err != nil {
		return nil, err
	}
	if h.l1, err = cache.New(cfg.L1); err != nil {
		return nil, err
	}
	h.l1.SetBackside(sink)
	return h, nil
}

// Replay drives the levels behind the L1 with a recorded pass of
// cfg.L1 (see cache.Log) instead of a live L1; if flush is set, the
// pass's flush follows and then every level behind the L1 is flushed.
// The result equals the Stats of New(cfg) after
// AccessTrace(log.Trace()), and then Flush if flush is set. Inclusion
// is rejected: an L2 eviction invalidates L1 lines, which changes the
// L1's later traffic, so it needs a live L1.
func Replay(cfg Config, log *cache.Log, flush bool) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	if cfg.Inclusive {
		return Stats{}, fmt.Errorf("hierarchy: an inclusive hierarchy cannot replay a recorded L1 pass")
	}
	if log.Config() != cfg.L1 {
		return Stats{}, fmt.Errorf("hierarchy: log of %s replayed as L1 %s", log.Config(), cfg.L1)
	}
	h, sink, err := newBehindL1(cfg)
	if err != nil {
		return Stats{}, err
	}
	p := log.Replayer(sink)
	for range log.Trace().Events {
		p.Next()
	}
	if flush {
		log.ReplayFlush(sink)
		h.flushBehindL1()
	}
	return h.stats, nil
}

// newBehindL1 builds the levels behind the L1 of a validated cfg and
// returns the sink the L1's back side feeds.
func newBehindL1(cfg Config) (*Hierarchy, *l1Sink, error) {
	h := &Hierarchy{cfg: cfg}
	var err error
	if cfg.L2 != nil {
		if h.l2, err = cache.New(*cfg.L2); err != nil {
			return nil, nil, err
		}
		h.l2.SetBackside(&memSink{MemPort: MemPort{T: &h.stats.Traffic}, h: h})
	}
	sink := &l1Sink{L1Port: L1Port{T: &h.stats.Traffic, L2: h.l2}, h: h}
	if cfg.WriteCache != nil {
		if h.wc, err = writecache.New(*cfg.WriteCache); err != nil {
			return nil, nil, err
		}
		// A write-cache eviction is one whole-line write to the next
		// level.
		h.wc.SetOnEvict(func(lineAddr uint32) {
			sink.L1Port.WriteWord(lineAddr, uint8(h.wc.LineSize()))
		})
	}
	return h, sink, nil
}

// Access simulates one event through the hierarchy.
func (h *Hierarchy) Access(e trace.Event) { h.l1.Access(e) }

// AccessTrace simulates the whole trace.
func (h *Hierarchy) AccessTrace(t *trace.Trace) {
	for _, e := range t.Events {
		h.l1.Access(e)
	}
}

// Flush drains dirty state from every level (flush-stop accounting).
func (h *Hierarchy) Flush() {
	h.l1.Flush()
	h.flushBehindL1()
}

// flushBehindL1 drains the write cache and flushes the L2, after the
// L1's flush.
func (h *Hierarchy) flushBehindL1() {
	if h.wc != nil {
		h.wc.Drain()
	}
	if h.l2 != nil {
		h.l2.Flush()
	}
}

// L1 returns the first-level cache (for its statistics).
func (h *Hierarchy) L1() *cache.Cache { return h.l1 }

// L2 returns the second-level cache, or nil.
func (h *Hierarchy) L2() *cache.Cache { return h.l2 }

// WriteCache returns the write cache, or nil.
func (h *Hierarchy) WriteCache() *writecache.Cache { return h.wc }

// Stats returns the hierarchy-level traffic counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// L1Port is the back side of a first-level cache. It counts every line
// fetch, write-back and write-through word into T's L1ToL2 counters
// and, when L2 is non-nil, forwards it to the L2 as a read or write of
// the same bytes. Attach it with cache.SetBackside.
type L1Port struct {
	T  *Traffic
	L2 *cache.Cache
}

// FetchLine implements cache.Backside.
func (p *L1Port) FetchLine(addr uint32, size int) { p.send(addr, size, trace.Read) }

// WritebackLine implements cache.Backside.
func (p *L1Port) WritebackLine(addr uint32, size, dirtyBytes int) { p.send(addr, size, trace.Write) }

// WriteWord implements cache.Backside.
func (p *L1Port) WriteWord(addr uint32, size uint8) { p.send(addr, int(size), trace.Write) }

func (p *L1Port) send(addr uint32, size int, kind trace.Kind) {
	p.T.L1ToL2Transactions++
	p.T.L1ToL2Bytes += uint64(size)
	if p.L2 != nil {
		p.L2.Access(trace.Event{Addr: addr, Size: uint8(size), Kind: kind})
	}
}

// MemPort is the back side of a second-level cache. It counts every
// transaction reaching memory into T's L2ToMem counters; memory is the
// last level, so nothing is forwarded.
type MemPort struct{ T *Traffic }

// FetchLine implements cache.Backside.
func (p *MemPort) FetchLine(addr uint32, size int) {
	p.T.L2ToMemTransactions++
	p.T.L2ToMemBytes += uint64(size)
}

// WritebackLine implements cache.Backside, recording the victim's
// dirty bytes for sub-block write-back accounting.
func (p *MemPort) WritebackLine(addr uint32, size, dirtyBytes int) {
	p.T.L2ToMemTransactions++
	p.T.L2ToMemBytes += uint64(size)
	p.T.L2ToMemWritebacks++
	p.T.L2ToMemWritebackBytes += uint64(size)
	p.T.L2ToMemDirtyBytes += uint64(dirtyBytes)
}

// WriteWord implements cache.Backside.
func (p *MemPort) WriteWord(addr uint32, size uint8) {
	p.T.L2ToMemTransactions++
	p.T.L2ToMemBytes += uint64(size)
}

// l1Sink adds the write cache to the L1 port: write-through words go
// into the write cache (only its evictions reach the port), and in
// victim mode clean L1 victims are captured there and line fetches
// that hit one skip the L2.
type l1Sink struct {
	L1Port
	h *Hierarchy
}

func (s *l1Sink) FetchLine(addr uint32, size int) {
	h := s.h
	if h.cfg.VictimMode && h.wc.ProbeVictim(addr, uint8(size)) {
		// The line is a captured victim: refill from the write cache and
		// skip the lower level entirely.
		h.stats.VictimHits++
		return
	}
	s.L1Port.FetchLine(addr, size)
}

func (s *l1Sink) WriteWord(addr uint32, size uint8) {
	if s.h.wc != nil {
		// Only write-cache evictions proceed to the next level; the
		// SetOnEvict handler registered in New accounts them.
		s.h.wc.Write(addr, size)
		return
	}
	s.L1Port.WriteWord(addr, size)
}

// ObserveVictim captures clean L1 victims into the write cache when
// victim mode is on. (Dirty victims cannot occur behind a write-through
// L1.) Evictions forced by the allocation are accounted by the write
// cache's SetOnEvict handler.
func (s *l1Sink) ObserveVictim(addr uint32, size, dirtyBytes int) {
	h := s.h
	if !h.cfg.VictimMode || dirtyBytes != 0 {
		return
	}
	h.wc.AllocateVictim(addr)
}

// memSink adds inclusion to the memory port: when it is enforced,
// every L2 victim (clean or dirty) back-invalidates its L1 cover.
type memSink struct {
	MemPort
	h *Hierarchy
}

// ObserveVictim implements cache.VictimObserver for the L2.
func (s *memSink) ObserveVictim(addr uint32, size, dirtyBytes int) {
	h := s.h
	if !h.cfg.Inclusive {
		return
	}
	lines, l1Dirty := h.l1.InvalidateRange(addr, size)
	h.stats.BackInvalidations += uint64(lines)
	h.stats.InclusionDirtyBytes += uint64(l1Dirty)
}
