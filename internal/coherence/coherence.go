// Package coherence simulates N cores with private first-level data
// caches over a shared second level, kept consistent by a snooping
// protocol. It is the multi-core extension of the paper's single-core
// write-policy taxonomy: every combination of coherence scheme ×
// write-hit × write-miss policy runs, so invalidations and update
// broadcasts interact directly with write-through/write-back and
// fetch-on-write/write-validate/write-around/write-invalidate.
//
// Three schemes are modelled:
//
//   - Invalidate: MSI-style write-invalidate snooping. A write
//     removes every remote copy (dirty remote data is flushed to the
//     shared level first), so subsequent remote accesses miss —
//     counted separately as sharing misses.
//   - Update: write-update (Dragon/Firefly-style). A write refreshes
//     remote copies in place, paying broadcast bytes on the bus
//     instead of future sharing misses.
//   - Hybrid: competitive update/invalidate. A copy absorbs updates
//     until it has received HybridK of them with no local reference
//     in between, then self-invalidates — bounding update traffic for
//     lines a core has stopped reading.
//
// State is byte-granular, reusing internal/cache's per-byte valid and
// dirty masks: a line with dirty bytes is the owner (M), a valid clean
// copy is shared (S), absent is invalid (I). The testable invariant is
// byte-level single-writer/multiple-reader: no byte is dirty in more
// than one private cache (CheckSingleWriter).
//
// A snoop filter keeps the bus from probing every remote cache: a
// directory entry per L1 line number holds a superset of the cores
// whose L1 may hold the line. A core's bit is set on each of its own
// references (the only way a line enters its L1) and cleared when a
// coherence action removes its copy; an eviction leaves the bit set.
// Filtering is exact, not approximate: every action a broadcast takes
// on a remote cache (Probe, Downgrade, InvalidateRange, SnoopUpdate)
// does nothing to a cache that lacks the line, so skipping a core
// whose bit is clear changes no state or counter, and a stale bit
// only costs one probe that finds nothing. A reference to a line no
// other core holds, with no sharing miss pending, skips the snoop
// altogether: no broadcast has a copy to act on, and because a
// broadcast never clears the writer's own bit, the line's last writer
// is always a holder, so the referencing core received no update
// since its own last reference and has no Hybrid counter to reset.
//
// The simulator is deterministic: per-core state lives in slices,
// broadcasts visit the holder set in ascending core order, and the
// multi-core schedule merges per-core traces by instruction time with
// ties resolved lowest-core-first.
package coherence

import (
	"fmt"
	"math"
	"math/bits"

	"cachewrite/internal/cache"
	"cachewrite/internal/hierarchy"
	"cachewrite/internal/trace"
)

// Scheme selects the snooping coherence protocol.
type Scheme uint8

const (
	// Invalidate is MSI-style write-invalidate snooping.
	Invalidate Scheme = iota
	// Update is write-update (Dragon/Firefly-style) snooping.
	Update
	// Hybrid is competitive update/invalidate: a copy self-invalidates
	// after HybridK consecutive remote updates without a local touch.
	Hybrid
)

// Schemes returns all coherence schemes in presentation order.
func Schemes() []Scheme { return []Scheme{Invalidate, Update, Hybrid} }

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case Invalidate:
		return "invalidate"
	case Update:
		return "update"
	case Hybrid:
		return "hybrid"
	}
	return fmt.Sprintf("Scheme(%d)", uint8(s))
}

// MarshalText implements encoding.TextMarshaler for JSON output.
func (s Scheme) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// DefaultHybridK is the competitive threshold used when Config.HybridK
// is zero: a copy tolerates this many remote updates with no local
// reference before self-invalidating.
const DefaultHybridK = 4

// MaxCores bounds the system size.
const MaxCores = 64

// Config describes the multi-core system.
type Config struct {
	// Cores is the number of private-L1 cores (1..MaxCores).
	Cores int
	// L1 configures every core's private first-level cache.
	L1 cache.Config
	// L2, if non-nil, is the shared second level behind the snooping
	// bus; nil means the bus talks straight to memory.
	L2 *cache.Config
	// Scheme selects the coherence protocol.
	Scheme Scheme
	// HybridK is the Hybrid scheme's competitive threshold; 0 means
	// DefaultHybridK. Ignored by the other schemes. At most
	// math.MaxUint16: each copy counts its updates in 16 bits.
	HybridK int
}

// Validate reports whether the configuration is realizable.
func (c Config) Validate() error {
	if c.Cores < 1 || c.Cores > MaxCores {
		return fmt.Errorf("coherence: %d cores outside [1,%d]", c.Cores, MaxCores)
	}
	// Each core's L1 and the shared L2 must form a valid hierarchy.
	if err := (hierarchy.Config{L1: c.L1, L2: c.L2}).Validate(); err != nil {
		return fmt.Errorf("coherence: %w", err)
	}
	switch c.Scheme {
	case Invalidate, Update, Hybrid:
	default:
		return fmt.Errorf("coherence: unknown scheme %d", uint8(c.Scheme))
	}
	if c.HybridK < 0 || c.HybridK > math.MaxUint16 {
		return fmt.Errorf("coherence: HybridK %d outside [0,%d]", c.HybridK, math.MaxUint16)
	}
	return nil
}

// Stats aggregates system-wide traffic and coherence counters.
type Stats struct {
	// Traffic is counted by hierarchy's own L1 and memory ports, so a
	// 1-core system is stat-identical to the single-core hierarchy.
	// L1ToL2* cover everything leaving the L1s toward the shared level,
	// coherence-forced flushes included.
	hierarchy.Traffic

	// InvalidationsSent counts write broadcasts (Invalidate scheme)
	// that removed at least one remote copy; InvalidationsReceived
	// counts the copies removed.
	InvalidationsSent     uint64
	InvalidationsReceived uint64
	// UpdatesSent counts write broadcasts (Update/Hybrid schemes) that
	// refreshed at least one remote copy; UpdatesReceived counts the
	// copies refreshed; UpdateTrafficBytes is the broadcast payload
	// (written bytes × broadcasts that found a copy).
	UpdatesSent        uint64
	UpdatesReceived    uint64
	UpdateTrafficBytes uint64
	// Interventions counts remote caches that supplied dirty data for
	// another core's access (the M→S downgrade flush);
	// InterventionDirtyBytes is the dirty bytes they flushed.
	Interventions          uint64
	InterventionDirtyBytes uint64
	// HybridInvalidations counts copies the Hybrid scheme
	// self-invalidated after HybridK unanswered remote updates.
	HybridInvalidations uint64
	// SharingMisses counts accesses that tag-missed on a line a
	// coherence action had previously removed from that core — an
	// upper bound on the coherence-miss class, counted on top of the
	// paper's miss taxonomy (the underlying events still appear in the
	// per-core cache.Stats miss counters).
	SharingMisses uint64
}

// BusBytes returns the L1-side bus traffic including coherence
// payloads: everything the L1 complex moved plus update broadcasts.
func (s Stats) BusBytes() uint64 { return s.L1ToL2Bytes + s.UpdateTrafficBytes }

// CoreStats is one core's share of the coherence counters (see Stats
// for field semantics, counted from this core's perspective: Sent
// counters are broadcasts this core issued, Received counters are
// actions applied to this core's copies). The system-wide Stats sum
// them.
type CoreStats struct {
	L1ToL2Transactions    uint64
	L1ToL2Bytes           uint64
	InvalidationsSent     uint64
	InvalidationsReceived uint64
	UpdatesSent           uint64
	UpdatesReceived       uint64
	Interventions         uint64
	HybridInvalidations   uint64
	SharingMisses         uint64
}

// core is one core's private state.
type core struct {
	l1 *cache.Cache
	// traffic is counted by the L1's back-side port; only its L1ToL2
	// counters move.
	traffic hierarchy.Traffic
	// hybrid counts consecutive remote updates per resident line
	// (Hybrid scheme only); a local reference resets the count.
	hybrid map[uint32]uint16
	stats  CoreStats
}

// dirPageBits is log2 of the directory's page size in entries.
const dirPageBits = 12

// dirEntry is the snoop filter's record of one L1 line number, one bit
// per core.
type dirEntry struct {
	// holders is a superset of the cores whose L1 may hold the line.
	holders uint64
	// removed marks the cores whose copy a coherence action removed and
	// which have not referenced the line since: their next tag miss on
	// it is a sharing miss.
	removed uint64
}

// dirPage is one page of the directory, allocated on first touch.
type dirPage [1 << dirPageBits]dirEntry

// System is the N-core simulator. Not safe for concurrent use.
type System struct {
	cfg   Config
	cores []core
	l2    *cache.Cache
	// dir is the snoop filter, indexed by L1 line number through a
	// page table (nil for one core, which never snoops).
	dir []*dirPage
	// stats holds the counters no core owns (L2ToMem traffic,
	// intervention and update bytes); Stats adds the per-core ones.
	stats     Stats
	lineSize  uint32
	lineShift uint
	hybridK   uint16
}

// New builds a system for the configuration.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := cfg.HybridK
	if k == 0 {
		k = DefaultHybridK
	}
	s := &System{
		cfg:      cfg,
		cores:    make([]core, cfg.Cores),
		lineSize: uint32(cfg.L1.LineSize),
		hybridK:  uint16(k),
	}
	for s.lineSize>>s.lineShift > 1 {
		s.lineShift++
	}
	if cfg.Cores > 1 {
		s.dir = make([]*dirPage, uint64(1)<<(32-s.lineShift-dirPageBits))
	}
	if cfg.L2 != nil {
		l2, err := cache.New(*cfg.L2)
		if err != nil {
			return nil, err
		}
		s.l2 = l2
		l2.SetBackside(&hierarchy.MemPort{T: &s.stats.Traffic})
	}
	for i := range s.cores {
		l1, err := cache.New(cfg.L1)
		if err != nil {
			return nil, err
		}
		c := &s.cores[i]
		*c = core{l1: l1, hybrid: make(map[uint32]uint16)}
		l1.SetBackside(&hierarchy.L1Port{T: &c.traffic, L2: s.l2})
	}
	return s, nil
}

// Stats returns the system-wide counters accumulated so far: the
// shared level's own counters plus every core's share.
func (s *System) Stats() Stats {
	st := s.stats
	for i := range s.cores {
		c := s.CoreStats(i)
		st.L1ToL2Transactions += c.L1ToL2Transactions
		st.L1ToL2Bytes += c.L1ToL2Bytes
		st.InvalidationsSent += c.InvalidationsSent
		st.InvalidationsReceived += c.InvalidationsReceived
		st.UpdatesSent += c.UpdatesSent
		st.UpdatesReceived += c.UpdatesReceived
		st.Interventions += c.Interventions
		st.HybridInvalidations += c.HybridInvalidations
		st.SharingMisses += c.SharingMisses
	}
	return st
}

// CoreStats returns core i's counters.
func (s *System) CoreStats(i int) CoreStats {
	c := &s.cores[i]
	st := c.stats
	st.L1ToL2Transactions = c.traffic.L1ToL2Transactions
	st.L1ToL2Bytes = c.traffic.L1ToL2Bytes
	return st
}

// AggregateL1 sums every core's L1 counters — the system-wide view of
// the paper's per-cache statistics.
func (s *System) AggregateL1() cache.Stats {
	var agg cache.Stats
	for i := range s.cores {
		agg.Add(s.cores[i].l1.Stats())
	}
	return agg
}

// Access simulates one event issued by the given core: the snooping
// protocol acts on every remote cache first (freshness downgrades,
// invalidations or update broadcasts), then the event runs through the
// core's private L1 as usual.
func (s *System) Access(c int, e trace.Event) {
	if len(s.cores) > 1 {
		addr := e.Addr
		remaining := uint32(e.Size)
		for remaining > 0 {
			off := addr & (s.lineSize - 1)
			n := s.lineSize - off
			if n > remaining {
				n = remaining
			}
			s.snoopSpan(c, e.Kind, addr, n)
			addr += n
			remaining -= n
		}
	}
	s.cores[c].l1.Access(e)
}

// entry returns the directory entry of the L1 line lineNum.
func (s *System) entry(lineNum uint32) *dirEntry {
	p := s.dir[lineNum>>dirPageBits]
	if p == nil {
		p = new(dirPage)
		s.dir[lineNum>>dirPageBits] = p
	}
	return &p[lineNum&(1<<dirPageBits-1)]
}

// snoopSpan handles the protocol for the portion of an access within
// one L1 line: bytes [addr, addr+n).
func (s *System) snoopSpan(c int, kind trace.Kind, addr, n uint32) {
	lineNum := addr >> s.lineShift
	lineAddr := lineNum << s.lineShift
	me := &s.cores[c]
	d := s.entry(lineNum)
	self := uint64(1) << c
	if d.holders&^self == 0 && d.removed&self == 0 {
		// No other holder and no sharing miss pending: nothing below
		// would act (exact; see the package doc).
		d.holders |= self
		return
	}

	local := me.l1.Probe(addr)
	if !local.Present && d.removed&self != 0 {
		d.removed &^= self
		me.stats.SharingMisses++
	}
	d.holders |= self
	// A local reference resets the competitive update counter: the
	// core still cares about this line.
	if s.cfg.Scheme == Hybrid {
		delete(me.hybrid, lineNum)
	}

	mask := spanMask(addr&(s.lineSize-1), n)
	covered := local.Present && local.Valid&mask == mask

	if kind == trace.Read {
		if !covered {
			// The fetch must observe remote dirty data: downgrade the
			// owner so the shared level is fresh before the fill.
			s.downgradeRemotes(d.holders&^self, lineAddr)
		}
		return
	}

	// Write.
	switch s.cfg.Scheme {
	case Invalidate:
		s.invalidateRemotes(c, d, lineAddr)
	case Update, Hybrid:
		if s.writeWillFetch(local, covered, addr, n) {
			s.downgradeRemotes(d.holders&^self, lineAddr)
		}
		s.updateRemotes(c, d, addr, n, lineNum, lineAddr)
	}
}

// writeWillFetch reports whether the local L1 will fetch the line to
// service this write, in which case remote dirty data must be flushed
// to the shared level first. Conservative for partially valid lines:
// a downgrade of a clean remote set is a no-op, so erring toward
// freshness never loses data.
func (s *System) writeWillFetch(local cache.LineState, covered bool, addr, n uint32) bool {
	if local.Present {
		return !covered
	}
	switch s.cfg.L1.WriteMiss {
	case cache.FetchOnWrite:
		return true
	case cache.WriteValidate:
		// Fetches only when the write cannot validate whole
		// sub-blocks (the cache's byte-write fallback).
		g := uint32(s.cfg.L1.Granularity())
		if g <= 1 {
			return false
		}
		off := addr & (s.lineSize - 1)
		return off%g != 0 || n%g != 0
	}
	return false // write-around / write-invalidate never allocate
}

// downgradeRemotes flushes the dirty copy of the line at lineAddr in
// every core of the remotes set to the shared level (M→S): the data
// stays readable remotely but the requesting core's fill now observes
// the newest bytes.
func (s *System) downgradeRemotes(remotes uint64, lineAddr uint32) {
	for ; remotes != 0; remotes &= remotes - 1 {
		s.downgrade(&s.cores[bits.TrailingZeros64(remotes)], lineAddr)
	}
}

// downgrade flushes core r's dirty bytes of the line at lineAddr to
// the shared level, counting the intervention.
func (s *System) downgrade(r *core, lineAddr uint32) {
	if _, dirty := r.l1.Downgrade(lineAddr, int(s.lineSize)); dirty > 0 {
		r.stats.Interventions++
		s.stats.InterventionDirtyBytes += uint64(dirty)
	}
}

// invalidateRemotes removes every remote copy of the line d describes
// (the Invalidate scheme's write broadcast), flushing dirty remote data
// to the shared level before dropping it. Afterwards only the writer
// may hold the line.
func (s *System) invalidateRemotes(c int, d *dirEntry, lineAddr uint32) {
	hit := false
	for rs := d.holders &^ (1 << c); rs != 0; rs &= rs - 1 {
		j := bits.TrailingZeros64(rs)
		r := &s.cores[j]
		s.downgrade(r, lineAddr)
		if lines, _ := r.l1.InvalidateRange(lineAddr, int(s.lineSize)); lines > 0 {
			hit = true
			r.stats.InvalidationsReceived++
			d.removed |= 1 << j
		}
	}
	d.holders &= 1 << c
	if hit {
		s.cores[c].stats.InvalidationsSent++
	}
}

// updateRemotes applies a write-update broadcast of bytes
// [addr, addr+n) to every remote copy of the line d describes. Under
// Hybrid, a copy that has absorbed hybridK updates with no local
// reference self-invalidates instead of taking another. A holder bit
// found stale is cleared along with the core's update counter, so a
// core outside the holder set never has one.
func (s *System) updateRemotes(c int, d *dirEntry, addr, n uint32, lineNum, lineAddr uint32) {
	hit := false
	for rs := d.holders &^ (1 << c); rs != 0; rs &= rs - 1 {
		j := bits.TrailingZeros64(rs)
		r := &s.cores[j]
		st := r.l1.Probe(lineAddr)
		if !st.Present {
			if s.cfg.Scheme == Hybrid {
				delete(r.hybrid, lineNum)
			}
			d.holders &^= 1 << j
			continue
		}
		if s.cfg.Scheme == Hybrid {
			cnt := r.hybrid[lineNum] + 1
			if cnt >= s.hybridK {
				// Competitive threshold reached: stop paying for
				// updates this core is not reading; flush any dirty
				// claim and drop the copy.
				delete(r.hybrid, lineNum)
				s.downgrade(r, lineAddr)
				r.l1.InvalidateRange(lineAddr, int(s.lineSize))
				r.stats.HybridInvalidations++
				d.holders &^= 1 << j
				d.removed |= 1 << j
				hit = true // the broadcast still happened
				continue
			}
			r.hybrid[lineNum] = cnt
		}
		r.l1.SnoopUpdate(addr, uint8(n))
		hit = true
		r.stats.UpdatesReceived++
	}
	if hit {
		s.cores[c].stats.UpdatesSent++
		s.stats.UpdateTrafficBytes += uint64(n)
	}
}

// Run replays a multi-core workload to completion in its merged issue
// order (see Workload).
func (s *System) Run(w *Workload) error {
	if w == nil || len(w.PerCore) != len(s.cores) {
		got := 0
		if w != nil {
			got = len(w.PerCore)
		}
		return fmt.Errorf("coherence: workload has %d per-core traces, system has %d cores", got, len(s.cores))
	}
	var next [MaxCores]int
	for _, c := range w.schedule() {
		s.Access(int(c), w.PerCore[c].Events[next[c]])
		next[c]++
	}
	return nil
}

// Flush drains every level (flush-stop accounting): each L1 in core
// order, then the shared L2.
func (s *System) Flush() {
	for i := range s.cores {
		s.cores[i].l1.Flush()
	}
	if s.l2 != nil {
		s.l2.Flush()
	}
}

// CheckSingleWriter verifies the byte-level single-writer invariant:
// no byte of any line is dirty in more than one private cache. It
// returns nil when the invariant holds.
//
//simlint:allow deadcode single-writer oracle for TestSingleWriterInvariant, TestInvalidateSemantics, TestUpdateSemantics and TestRunDeterminism
func (s *System) CheckSingleWriter() error {
	type claim struct {
		core  int
		dirty uint64
	}
	owners := make(map[uint32]claim)
	var conflict error
	for i := range s.cores {
		if conflict != nil {
			break
		}
		c := i
		s.cores[i].l1.VisitResident(func(addr uint32, st cache.LineState) {
			if st.Dirty == 0 || conflict != nil {
				return
			}
			if prev, ok := owners[addr]; ok && prev.dirty&st.Dirty != 0 {
				conflict = fmt.Errorf("coherence: line %#x bytes %#x dirty in cores %d and %d",
					addr, prev.dirty&st.Dirty, prev.core, c)
				return
			} else if ok {
				owners[addr] = claim{core: c, dirty: prev.dirty | st.Dirty}
			} else {
				owners[addr] = claim{core: c, dirty: st.Dirty}
			}
		})
	}
	return conflict
}

// spanMask is the byte mask of [off, off+n) within a line.
func spanMask(off, n uint32) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return ((uint64(1) << n) - 1) << off
}
