// Package writecache implements the paper's proposed write cache
// (§3.2, Fig 6): a small fully-associative cache of 8-byte lines placed
// behind a write-through data cache and in front of the write buffer.
// Writes that hit an entry coalesce; a miss evicts the LRU entry to the
// write buffer and allocates the new line. Unlike the plain coalescing
// write buffer, entries stay resident until capacity forces them out,
// so the majority of write coalescing opportunities are captured
// without stalling the CPU.
//
// The cache can optionally also behave as a victim cache (the paper
// notes the two structures can be merged, citing Jouppi 1990): clean
// victim lines from the data cache may be allocated, and line refills
// may be served from them.
package writecache

import (
	"fmt"

	"cachewrite/internal/trace"
)

// Config describes a write cache.
type Config struct {
	// Entries is the number of fully-associative lines. Zero is legal
	// and means every write misses (the paper's Figs 7-8 zero point).
	Entries int
	// LineSize is the line width in bytes; the paper uses 8B, "since no
	// writes larger than 8B exist in most architectures, and write paths
	// leaving chips are often 8B."
	LineSize int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Entries < 0 {
		return fmt.Errorf("writecache: entries %d must be non-negative", c.Entries)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("writecache: line size %d must be a positive power of two", c.LineSize)
	}
	return nil
}

// Stats reports write-cache effectiveness.
type Stats struct {
	Writes     uint64 // write events offered
	Merged     uint64 // writes absorbed by a resident entry
	Evicted    uint64 // dirty entries pushed to the write buffer
	ReadProbes uint64 // victim-mode read probes
	ReadHits   uint64 // victim-mode read probes that hit
}

// RemovedFraction is the fraction of write traffic removed — the
// paper's Figs 7-9 metric.
func (s Stats) RemovedFraction() float64 {
	if s.Writes == 0 {
		return 0
	}
	return float64(s.Merged) / float64(s.Writes)
}

type entry struct {
	lineNum uint32
	// dirty marks data the next level has not seen (word writes).
	dirty bool
	// full marks entries holding a complete line image (captured
	// victims); only these can service a line refill.
	full bool
	lru  uint64
}

// Cache is the write cache simulator.
type Cache struct {
	cfg     Config
	entries []entry
	used    int
	tick    uint64
	stats   Stats
	onEvict func(lineAddr uint32)
}

// SetOnEvict registers a callback invoked with the byte address of each
// dirty line evicted to the next level (nil unregisters).
func (c *Cache) SetOnEvict(fn func(lineAddr uint32)) { c.onEvict = fn }

// LineSize returns the configured line width in bytes.
func (c *Cache) LineSize() int { return c.cfg.LineSize }

// New builds a write cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cache{cfg: cfg, entries: make([]entry, cfg.Entries)}, nil
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Write offers a store of size bytes at addr. It returns the number of
// entries evicted to the write buffer (0 when the write merged or the
// cache had a free slot; writes spanning multiple lines may evict more
// than once).
func (c *Cache) Write(addr uint32, size uint8) int {
	c.stats.Writes++
	if c.cfg.Entries == 0 {
		c.evictLine(addr / uint32(c.cfg.LineSize))
		return 1
	}
	evicted := 0
	first := addr / uint32(c.cfg.LineSize)
	last := (addr + uint32(size) - 1) / uint32(c.cfg.LineSize)
	merged := true
	for ln := first; ln <= last; ln++ {
		if !c.touchLine(ln, true) {
			merged = false
			evicted += c.allocLine(ln, true, false)
		}
	}
	if merged {
		c.stats.Merged++
	}
	return evicted
}

// AllocateVictim installs a clean victim line from the data cache
// (victim-cache mode). If the line is already resident (as a dirty
// word entry), the victim data completes it into a full line. It
// returns the number of dirty entries evicted.
func (c *Cache) AllocateVictim(addr uint32) int {
	if c.cfg.Entries == 0 {
		return 0
	}
	ln := addr / uint32(c.cfg.LineSize)
	for i := 0; i < c.used; i++ {
		if c.entries[i].lineNum == ln {
			c.tick++
			c.entries[i].lru = c.tick
			c.entries[i].full = true
			return 0
		}
	}
	return c.allocLine(ln, false, true)
}

// ProbeVictim checks whether a line refill of size bytes at addr can be
// served from captured victim entries. Only clean entries qualify: a
// dirty entry was allocated by a word write and holds a partial line,
// which cannot service a full-line refill. The LRU state is refreshed
// on a hit, as a real victim cache would.
func (c *Cache) ProbeVictim(addr uint32, size uint8) bool {
	c.stats.ReadProbes++
	if c.cfg.Entries == 0 {
		return false
	}
	first := addr / uint32(c.cfg.LineSize)
	last := (addr + uint32(size) - 1) / uint32(c.cfg.LineSize)
	for ln := first; ln <= last; ln++ {
		found := false
		for i := 0; i < c.used; i++ {
			if c.entries[i].lineNum == ln && c.entries[i].full {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	for ln := first; ln <= last; ln++ {
		c.touchLine(ln, false)
	}
	c.stats.ReadHits++
	return true
}

// Run offers every store in the trace to the cache.
func (c *Cache) Run(t *trace.Trace) {
	for _, e := range t.Events {
		if e.Kind == trace.Write {
			c.Write(e.Addr, e.Size)
		}
	}
}

// Drain evicts all resident dirty entries (end of simulation).
func (c *Cache) Drain() int {
	n := 0
	for i := 0; i < c.used; i++ {
		if c.entries[i].dirty {
			c.evictLine(c.entries[i].lineNum)
			n++
		}
	}
	c.used = 0
	return n
}

// evictLine accounts one dirty eviction and notifies the handler.
func (c *Cache) evictLine(lineNum uint32) {
	c.stats.Evicted++
	if c.onEvict != nil {
		c.onEvict(lineNum * uint32(c.cfg.LineSize))
	}
}

// ResidentEntry describes one occupied write-cache entry, for fault
// injection and debugging tools.
type ResidentEntry struct {
	// LineAddr is the entry's byte address.
	LineAddr uint32
	// Dirty marks data the next level has not seen yet.
	Dirty bool
	// Full marks a complete captured-victim line image.
	Full bool
}

// ResidentEntries lists the occupied entries in allocation order.
func (c *Cache) ResidentEntries() []ResidentEntry {
	out := make([]ResidentEntry, 0, c.used)
	for i := 0; i < c.used; i++ {
		e := c.entries[i]
		out = append(out, ResidentEntry{
			LineAddr: e.lineNum * uint32(c.cfg.LineSize),
			Dirty:    e.dirty,
			Full:     e.full,
		})
	}
	return out
}

// touchLine refreshes LRU for a resident line, optionally marking it
// dirty; it reports whether the line was resident.
func (c *Cache) touchLine(ln uint32, markDirty bool) bool {
	for i := 0; i < c.used; i++ {
		if c.entries[i].lineNum == ln {
			c.tick++
			c.entries[i].lru = c.tick
			if markDirty {
				c.entries[i].dirty = true
			}
			return true
		}
	}
	return false
}

// allocLine installs a new line, evicting the LRU entry if the cache
// is at capacity. It returns the number of dirty evictions performed
// (0 or 1).
func (c *Cache) allocLine(ln uint32, dirty, full bool) int {
	c.tick++
	if c.used < c.cfg.Entries {
		c.entries[c.used] = entry{lineNum: ln, dirty: dirty, full: full, lru: c.tick}
		c.used++
		return 0
	}
	victim := 0
	for i := 1; i < c.used; i++ {
		if c.entries[i].lru < c.entries[victim].lru {
			victim = i
		}
	}
	wasDirty := c.entries[victim].dirty
	victimLine := c.entries[victim].lineNum
	c.entries[victim] = entry{lineNum: ln, dirty: dirty, full: full, lru: c.tick}
	if wasDirty {
		c.evictLine(victimLine)
		return 1
	}
	return 0
}
