package cache

import (
	"cachewrite/internal/trace"
)

// This file implements the specialized gang kernels: batch entry
// points that replay a pre-decoded window of trace events through a
// per-config-class fast path instead of the fully general Access
// machinery. The gang sweep engine (internal/sweep) decodes each
// pulse window once per address geometry and hands the decoded batch
// to every gang member sharing that geometry, amortizing the per-event
// address arithmetic across the whole gang — the same batched-dispatch
// idea DEW uses for fast L1 simulation.
//
// Three kernel classes exist:
//
//   - kernelDirect: direct-mapped, per-byte valid bits, whole-line
//     fills. The tag probe inlines to a single compare, there is no
//     way-search or victim-selection loop, and the sub-block
//     (inward/outward mask) machinery vanishes because granularity-1
//     masks equal the plain byte mask. This covers the paper's
//     dominant configuration class (every figure sweep config).
//   - kernelAssoc: set-associative, per-byte valid bits, whole-line
//     fills. Keeps the way search and replacement policy but reuses
//     the decoded tag/mask and skips the span walker.
//   - kernelGeneric: everything else (sub-block valid granularity,
//     sector fetch). Falls back to the per-event Access path.
//
// Every kernel is bit-identical to replaying the same events through
// Access: TestKernelGoldenEquivalence pins that for the full paper
// config matrix and TestKernelEquivalenceMatrix for the extended
// policy × geometry × class grid, including back-side call sequences.

// kernelClass selects the batch kernel for a configuration. It is
// computed once in New — kernel selection is per-gang-member setup
// work, never per-event work.
type kernelClass uint8

const (
	// kernelGeneric replays the batch through the per-event Access
	// path: sub-block granularity and sector caches keep the fully
	// general span machinery.
	kernelGeneric kernelClass = iota
	// kernelDirect is the direct-mapped no-sub-block fast path.
	kernelDirect
	// kernelAssoc is the set-associative no-sub-block path.
	kernelAssoc
)

// classifyConfig picks the most specialized kernel that is exactly
// equivalent to the generic path for cfg.
func classifyConfig(cfg Config) kernelClass {
	if cfg.Granularity() != 1 || cfg.SectorFetch {
		return kernelGeneric
	}
	if cfg.Assoc == 1 {
		return kernelDirect
	}
	return kernelAssoc
}

// Decoded is one event's geometry-dependent pre-decode: the line
// number, the tag, and the requested-byte mask. A zero mask marks an
// event the kernels must not handle inline (line-crossing or
// zero-size); they fall back to the generic Access path for it.
// Decoded values are shared by every cache with the same Geometry().
type Decoded struct {
	lineNum uint32
	tag     uint32
	mask    uint64
}

// Geometry returns a key identifying the cache's address-decode
// geometry. Two caches with equal keys decode any address to the same
// (line number, set index, tag, byte mask) regardless of
// associativity, policies or granularity, so one DecodeBatch output
// serves them all.
func (c *Cache) Geometry() uint64 {
	return uint64(c.lineShift)<<32 | uint64(c.setShift)
}

// DecodeBatch pre-decodes events for this cache's geometry into dst,
// which must be at least len(events) long. The decode depends only on
// Geometry(), so gang members sharing a geometry decode once and
// replay the same batch.
//
//simlint:hotpath
func (c *Cache) DecodeBatch(events []trace.Event, dst []Decoded) {
	dst = dst[:len(events)]
	lineShift, setShift := c.lineShift, c.setShift
	lineMask, lineSize := c.lineMask, c.lineSize
	for i, e := range events {
		lineNum := e.Addr >> lineShift
		d := Decoded{lineNum: lineNum, tag: lineNum >> setShift}
		off := e.Addr & lineMask
		if n := uint32(e.Size); n != 0 && off+n <= lineSize {
			// n is in [1,64] here, and a Go shift by 64 on uint64 yields
			// 0, so (1<<n)-1 is the full mask when n == 64.
			d.mask = ((uint64(1) << n) - 1) << off
		}
		dst[i] = d
	}
}

// AccessBatch replays a window of events through the kernel selected
// for this configuration at construction time. dec must be the
// DecodeBatch output of a cache with the same Geometry() and at least
// len(events) long. The result is bit-identical to calling Access on
// each event in order.
//
//simlint:hotpath
func (c *Cache) AccessBatch(events []trace.Event, dec []Decoded) {
	switch c.class {
	case kernelDirect:
		c.accessBatchDirect(events, dec)
	case kernelAssoc:
		c.accessBatchAssoc(events, dec)
	default:
		for _, e := range events {
			c.Access(e)
		}
	}
}

// AccessEvents runs events through the batch kernel, decoding them a
// window at a time. The result is bit-identical to calling Access on
// each event in order.
func (c *Cache) AccessEvents(events []trace.Event) {
	var dec [256]Decoded
	for len(events) > 0 {
		n := min(len(events), len(dec))
		c.DecodeBatch(events[:n], dec[:n])
		c.AccessBatch(events[:n], dec[:n])
		events = events[n:]
	}
}

// accessBatchDirect is the direct-mapped granularity-1 kernel: one tag
// compare per event, no way loops, no sub-block masks. Events whose
// decoded mask is zero (line-crossing, zero-size) take the generic
// path, which handles multi-span accounting.
//
//simlint:hotpath
func (c *Cache) accessBatchDirect(events []trace.Event, dec []Decoded) {
	dec = dec[:len(events)]
	for i, e := range events {
		d := dec[i]
		if d.mask == 0 {
			c.Access(e)
			continue
		}
		c.stats.Instructions += e.Instructions()
		set := int(d.lineNum & c.setMask)
		l := &c.lines[set]
		c.tick++
		hit := l.valid != 0 && l.tag == d.tag

		if e.Kind == trace.Read {
			c.stats.Reads++
			if hit {
				if l.valid&d.mask == d.mask {
					l.lru = c.tick
					continue
				}
				// Tag hit with invalid requested bytes (write-validate
				// residue): whole-line fill, dirty bytes kept.
				c.stats.ReadMissEvents++
				c.stats.PartialValidReadMisses++
				c.fetchLine(d.lineNum << c.lineShift)
				l.valid = c.fullMask
				l.lru = c.tick
				continue
			}
			c.stats.ReadMissEvents++
			c.evict(set, l)
			*l = line{tag: d.tag, valid: c.fullMask, lru: c.tick, born: c.tick}
			c.fetchLine(d.lineNum << c.lineShift)
			continue
		}

		// Write.
		c.stats.Writes++
		if hit {
			c.stats.WriteHitEvents++
			if l.dirty != 0 {
				c.stats.WritesToDirtyLines++
			}
			// Granularity 1: the written bytes always validate exactly,
			// so there is never a sub-block fill.
			l.valid |= d.mask
			if c.cfg.WriteHit == WriteBack {
				l.dirty |= d.mask
			} else {
				c.writeThrough(e.Addr, uint32(e.Size))
			}
			l.lru = c.tick
			continue
		}
		c.stats.WriteMissEvents++
		switch c.cfg.WriteMiss {
		case FetchOnWrite:
			c.stats.FetchedWriteMisses++
			c.evict(set, l)
			nl := line{tag: d.tag, valid: c.fullMask, lru: c.tick, born: c.tick}
			c.fetchLine(d.lineNum << c.lineShift)
			if c.cfg.WriteHit == WriteBack {
				nl.dirty = d.mask
			} else {
				c.writeThrough(e.Addr, uint32(e.Size))
			}
			*l = nl

		case WriteValidate:
			// Granularity 1: a single-line write always covers whole
			// valid sub-blocks, so the fetch-on-write fallback for
			// narrow writes never triggers.
			c.stats.EliminatedWriteMisses++
			c.evict(set, l)
			nl := line{tag: d.tag, valid: d.mask, lru: c.tick, born: c.tick}
			if c.cfg.WriteHit != WriteBack || c.cfg.WVMissWriteThrough {
				c.writeThrough(e.Addr, uint32(e.Size))
			} else {
				nl.dirty = d.mask
			}
			*l = nl

		case WriteAround:
			c.stats.EliminatedWriteMisses++
			c.writeThrough(e.Addr, uint32(e.Size))

		case WriteInvalidate:
			c.stats.EliminatedWriteMisses++
			if l.valid != 0 {
				if l.dirty != 0 {
					c.writebackLine(c.lineAddrOf(set, l.tag), l.dirty)
				}
				c.stats.Invalidates++
				*l = line{}
			}
			c.writeThrough(e.Addr, uint32(e.Size))
		}
	}
}

// accessBatchAssoc is the set-associative granularity-1 kernel: the
// way search and replacement policy stay, the span walker and
// sub-block masks go.
//
//simlint:hotpath
func (c *Cache) accessBatchAssoc(events []trace.Event, dec []Decoded) {
	dec = dec[:len(events)]
	for i, e := range events {
		d := dec[i]
		if d.mask == 0 {
			c.Access(e)
			continue
		}
		c.stats.Instructions += e.Instructions()
		set := int(d.lineNum & c.setMask)
		base := set * c.cfg.Assoc
		way := c.findWay(base, d.tag)
		c.tick++

		if e.Kind == trace.Read {
			c.stats.Reads++
			if way >= 0 {
				l := &c.lines[base+way]
				if l.valid&d.mask == d.mask {
					l.lru = c.tick
					continue
				}
				c.stats.ReadMissEvents++
				c.stats.PartialValidReadMisses++
				c.fetchLine(d.lineNum << c.lineShift)
				l.valid = c.fullMask
				l.lru = c.tick
				continue
			}
			c.stats.ReadMissEvents++
			w := c.victimWay(base)
			c.evict(set, &c.lines[base+w])
			c.lines[base+w] = line{tag: d.tag, valid: c.fullMask, lru: c.tick, born: c.tick}
			c.fetchLine(d.lineNum << c.lineShift)
			continue
		}

		// Write.
		c.stats.Writes++
		if way >= 0 {
			l := &c.lines[base+way]
			c.stats.WriteHitEvents++
			if l.dirty != 0 {
				c.stats.WritesToDirtyLines++
			}
			l.valid |= d.mask
			if c.cfg.WriteHit == WriteBack {
				l.dirty |= d.mask
			} else {
				c.writeThrough(e.Addr, uint32(e.Size))
			}
			l.lru = c.tick
			continue
		}
		c.stats.WriteMissEvents++
		switch c.cfg.WriteMiss {
		case FetchOnWrite:
			c.stats.FetchedWriteMisses++
			w := c.victimWay(base)
			c.evict(set, &c.lines[base+w])
			nl := line{tag: d.tag, valid: c.fullMask, lru: c.tick, born: c.tick}
			c.fetchLine(d.lineNum << c.lineShift)
			if c.cfg.WriteHit == WriteBack {
				nl.dirty = d.mask
			} else {
				c.writeThrough(e.Addr, uint32(e.Size))
			}
			c.lines[base+w] = nl

		case WriteValidate:
			c.stats.EliminatedWriteMisses++
			w := c.victimWay(base)
			c.evict(set, &c.lines[base+w])
			nl := line{tag: d.tag, valid: d.mask, lru: c.tick, born: c.tick}
			if c.cfg.WriteHit != WriteBack || c.cfg.WVMissWriteThrough {
				c.writeThrough(e.Addr, uint32(e.Size))
			} else {
				nl.dirty = d.mask
			}
			c.lines[base+w] = nl

		case WriteAround:
			c.stats.EliminatedWriteMisses++
			c.writeThrough(e.Addr, uint32(e.Size))

		case WriteInvalidate:
			c.stats.EliminatedWriteMisses++
			w := c.victimWay(base)
			l := &c.lines[base+w]
			if l.valid != 0 {
				if l.dirty != 0 {
					c.writebackLine(c.lineAddrOf(set, l.tag), l.dirty)
				}
				c.stats.Invalidates++
				*l = line{}
			}
			c.writeThrough(e.Addr, uint32(e.Size))
		}
	}
}
