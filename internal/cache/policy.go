// Package cache implements the paper's first-level data-cache
// simulator: a direct-mapped or set-associative cache with per-byte
// valid and dirty bits (sub-blocking), both write-hit policies
// (write-through, write-back) and all four useful write-miss policy
// combinations from the paper's taxonomy (Fig 12): fetch-on-write,
// write-validate, write-around and write-invalidate.
//
// The simulator tracks metadata only (tags and bitmasks) — experiments
// consume reference streams, not data values — and exposes the full set
// of counters the paper's figures are built from: writes to already
// dirty lines (Figs 1–2), eliminated write misses (Figs 13–16),
// back-side transactions and bytes (Figs 18–19), and dirty-victim byte
// statistics under both cold-stop and flush-stop accounting
// (Figs 20–25).
package cache

import "fmt"

// WriteHitPolicy selects what happens when a write hits in the cache
// (paper §3).
type WriteHitPolicy uint8

const (
	// WriteThrough writes the cache and passes every write on to the
	// next level (store-through).
	WriteThrough WriteHitPolicy = iota
	// WriteBack writes only the cache, marking the line dirty; data
	// moves to the next level when the dirty line is replaced (store-in,
	// copy-back).
	WriteBack
)

// String returns the conventional policy name.
func (p WriteHitPolicy) String() string {
	switch p {
	case WriteThrough:
		return "write-through"
	case WriteBack:
		return "write-back"
	default:
		return fmt.Sprintf("WriteHitPolicy(%d)", uint8(p))
	}
}

// WriteMissPolicy selects what happens when a write misses in the cache
// (paper §4, Fig 12). The three underlying policy bits — fetch-on-write,
// write-allocate, write-invalidate — admit exactly four useful
// combinations.
type WriteMissPolicy uint8

const (
	// FetchOnWrite fetches the missed line and allocates it before
	// writing (fetch-on-write + write-allocate). The write stalls for
	// the fetch; this is the baseline almost all prior literature
	// assumed.
	FetchOnWrite WriteMissPolicy = iota
	// WriteValidate allocates the line without fetching it: the written
	// bytes are marked valid (and dirty under write-back), the rest of
	// the line is marked invalid (no-fetch + write-allocate,
	// sub-block valid bits required).
	WriteValidate
	// WriteAround sends the write to the next level without disturbing
	// the cache; the old contents of the indexed line stay resident
	// (no-fetch + no-write-allocate).
	WriteAround
	// WriteInvalidate writes the data portion concurrently with the tag
	// probe; on a mismatch the corrupted resident line is simply marked
	// invalid and the write passes to the next level (no-fetch +
	// no-allocate + invalidate). Only meaningful for direct-mapped
	// write-through caches; in a set-associative cache the probe
	// precedes the write, so this degenerates to write-around unless the
	// cache is direct-mapped.
	WriteInvalidate
)

// String returns the paper's policy name.
func (p WriteMissPolicy) String() string {
	switch p {
	case FetchOnWrite:
		return "fetch-on-write"
	case WriteValidate:
		return "write-validate"
	case WriteAround:
		return "write-around"
	case WriteInvalidate:
		return "write-invalidate"
	default:
		return fmt.Sprintf("WriteMissPolicy(%d)", uint8(p))
	}
}

// WriteMissPolicies lists all four policies in the paper's
// least-to-most-traffic order (Fig 17: write-validate ≤ write-around ≤
// write-invalidate ≤ fetch-on-write).
func WriteMissPolicies() []WriteMissPolicy {
	return []WriteMissPolicy{WriteValidate, WriteAround, WriteInvalidate, FetchOnWrite}
}

// Replacement selects the victim way within a set.
type Replacement uint8

const (
	// LRU replaces the least recently used way (the default; what the
	// paper's simulator uses).
	LRU Replacement = iota
	// FIFO replaces the oldest-allocated way regardless of use.
	FIFO
	// Random replaces a deterministic pseudo-random way.
	Random
)

// String returns the replacement policy name.
func (r Replacement) String() string {
	switch r {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("Replacement(%d)", uint8(r))
	}
}

// Config describes a cache.
type Config struct {
	// Size is the total data capacity in bytes (power of two).
	Size int
	// LineSize is the cache line size in bytes (power of two, 4..64).
	LineSize int
	// Assoc is the set associativity; 1 means direct-mapped. Must divide
	// Size/LineSize evenly with a power-of-two set count.
	Assoc int
	// WriteHit is the write-hit policy.
	WriteHit WriteHitPolicy
	// WriteMiss is the write-miss policy.
	WriteMiss WriteMissPolicy
	// Replacement selects the set victim policy; zero value is LRU.
	Replacement Replacement
	// ValidGranularity is the sub-block valid-bit granularity in bytes
	// (power of two, up to LineSize; 0 or 1 means per-byte). The paper
	// (§4) notes per-word valid bits cost 3.1% overhead vs 12.5% for
	// per-byte, but then writes narrower than the granularity cannot
	// write-validate: such writes fall back to fetch-on-write, exactly
	// as the paper suggests real machines would handle byte writes.
	ValidGranularity int
	// SectorFetch fetches only the accessed valid-granularity sub-blocks
	// (sectors) on a miss instead of the whole line — the classic sector
	// cache design, natural once sub-block valid bits exist. Misses to
	// unfetched sectors of a resident line count as partial-validity
	// read misses. Requires ValidGranularity >= 4.
	SectorFetch bool
	// WVMissWriteThrough makes write-validate misses also write through
	// even in a write-back cache — the paper's multiprocessor-safe
	// variant: "if write-validate is used on a write-back cache all
	// write misses should write through. If this is not done, the
	// remainder of the system will not know that the processor has
	// dirty data for that cache line in its cache."
	WVMissWriteThrough bool
}

// Granularity returns the effective valid-bit granularity in bytes.
func (c Config) Granularity() int {
	if c.ValidGranularity <= 1 {
		return 1
	}
	return c.ValidGranularity
}

// MaxLineSize is the largest line size a cache supports: a line's
// per-byte valid and dirty state is one 64-bit mask each.
const MaxLineSize = 64

// Validate reports whether the configuration is realizable.
func (c Config) Validate() error {
	if !isPow2(c.Size) || c.Size <= 0 {
		return fmt.Errorf("cache: size %d is not a positive power of two", c.Size)
	}
	if !isPow2(c.LineSize) || c.LineSize < 4 || c.LineSize > MaxLineSize {
		return fmt.Errorf("cache: line size %d is not a power of two in [4,%d]", c.LineSize, MaxLineSize)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache: associativity %d must be positive", c.Assoc)
	}
	lines := c.Size / c.LineSize
	if lines < c.Assoc {
		return fmt.Errorf("cache: %d lines cannot support associativity %d", lines, c.Assoc)
	}
	sets := lines / c.Assoc
	if sets*c.Assoc != lines || !isPow2(sets) {
		return fmt.Errorf("cache: %d lines / assoc %d does not give a power-of-two set count", lines, c.Assoc)
	}
	switch c.WriteHit {
	case WriteThrough, WriteBack:
	default:
		return fmt.Errorf("cache: unknown write-hit policy %d", c.WriteHit)
	}
	switch c.WriteMiss {
	case FetchOnWrite, WriteValidate, WriteAround, WriteInvalidate:
	default:
		return fmt.Errorf("cache: unknown write-miss policy %d", c.WriteMiss)
	}
	switch c.Replacement {
	case LRU, FIFO, Random:
	default:
		return fmt.Errorf("cache: unknown replacement policy %d", c.Replacement)
	}
	if g := c.ValidGranularity; g != 0 {
		if !isPow2(g) || g > c.LineSize {
			return fmt.Errorf("cache: valid granularity %d must be a power of two <= line size %d", g, c.LineSize)
		}
	}
	if c.WVMissWriteThrough && c.WriteMiss != WriteValidate {
		return fmt.Errorf("cache: WVMissWriteThrough requires the write-validate policy (got %s)", c.WriteMiss)
	}
	if c.SectorFetch && c.Granularity() < 4 {
		return fmt.Errorf("cache: sector fetch requires ValidGranularity >= 4 (got %d)", c.Granularity())
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Size / c.LineSize / c.Assoc }

// String renders the configuration compactly, e.g.
// "8KB/16B/direct write-back fetch-on-write".
func (c Config) String() string {
	assoc := "direct"
	if c.Assoc > 1 {
		assoc = fmt.Sprintf("%d-way", c.Assoc)
	}
	return fmt.Sprintf("%s/%dB/%s %s %s", fmtSize(c.Size), c.LineSize, assoc, c.WriteHit, c.WriteMiss)
}

func fmtSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// MarshalText implements encoding.TextMarshaler so configurations and
// results serialize with policy names rather than enum numbers.
func (p WriteHitPolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (p *WriteHitPolicy) UnmarshalText(b []byte) error {
	switch string(b) {
	case "write-through", "wt":
		*p = WriteThrough
	case "write-back", "wb":
		*p = WriteBack
	default:
		return fmt.Errorf("cache: unknown write-hit policy %q", b)
	}
	return nil
}

// MarshalText implements encoding.TextMarshaler.
func (p WriteMissPolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (p *WriteMissPolicy) UnmarshalText(b []byte) error {
	switch string(b) {
	case "fetch-on-write", "fow":
		*p = FetchOnWrite
	case "write-validate", "wv":
		*p = WriteValidate
	case "write-around", "wa":
		*p = WriteAround
	case "write-invalidate", "wi":
		*p = WriteInvalidate
	default:
		return fmt.Errorf("cache: unknown write-miss policy %q", b)
	}
	return nil
}

// MarshalText implements encoding.TextMarshaler.
func (r Replacement) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (r *Replacement) UnmarshalText(b []byte) error {
	switch string(b) {
	case "lru", "":
		*r = LRU
	case "fifo":
		*r = FIFO
	case "random":
		*r = Random
	default:
		return fmt.Errorf("cache: unknown replacement policy %q", b)
	}
	return nil
}
