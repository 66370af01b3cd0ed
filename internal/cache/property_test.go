package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cachewrite/internal/trace"
)

// randomTrace builds a reproducible trace with tunable locality: small
// address pools re-reference lines, exercising hits, misses, evictions
// and write-miss policies.
func randomTrace(seed int64, n int) *trace.Trace {
	r := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{Name: "random"}
	// A mix of hot and cold regions.
	hot := make([]uint32, 32)
	for i := range hot {
		hot[i] = uint32(r.Intn(1<<14)) &^ 7
	}
	for i := 0; i < n; i++ {
		var addr uint32
		if r.Intn(3) > 0 {
			addr = hot[r.Intn(len(hot))]
		} else {
			addr = uint32(r.Intn(1<<20)) &^ 7
		}
		size := uint8(4)
		if r.Intn(2) == 0 {
			size = 8
		}
		addr &^= uint32(size) - 1
		k := trace.Read
		if r.Intn(3) == 0 {
			k = trace.Write
		}
		tr.Append(trace.Event{Addr: addr, Size: size, Gap: uint16(r.Intn(8)), Kind: k})
	}
	return tr
}

// allConfigs enumerates a representative config cross-product.
func propConfigs() []Config {
	var cfgs []Config
	for _, size := range []int{256, 1 << 10, 8 << 10} {
		for _, line := range []int{4, 16, 64} {
			for _, assoc := range []int{1, 2, 4} {
				for _, hit := range []WriteHitPolicy{WriteThrough, WriteBack} {
					for _, miss := range []WriteMissPolicy{FetchOnWrite, WriteValidate, WriteAround, WriteInvalidate} {
						c := Config{Size: size, LineSize: line, Assoc: assoc, WriteHit: hit, WriteMiss: miss}
						if c.Validate() == nil {
							cfgs = append(cfgs, c)
						}
						// Variant coverage: sector fetch + coarse valid bits.
						c.ValidGranularity = 8
						c.SectorFetch = true
						if c.Validate() == nil {
							cfgs = append(cfgs, c)
						}
					}
				}
			}
		}
	}
	return cfgs
}

// TestInvariantsAcrossConfigs checks the core accounting invariants on
// every representative configuration.
func TestInvariantsAcrossConfigs(t *testing.T) {
	tr := randomTrace(1, 4000)
	ts := tr.Stats()
	for _, cfg := range propConfigs() {
		c := MustNew(cfg)
		c.AccessTrace(tr)

		s := c.Stats()
		if s.Reads != ts.Reads || s.Writes != ts.Writes {
			t.Fatalf("%s: event counts drifted", cfg)
		}
		if s.ReadMissEvents > s.Reads {
			t.Fatalf("%s: more read misses than reads", cfg)
		}
		if s.WriteMissEvents > s.Writes {
			t.Fatalf("%s: more write misses than writes", cfg)
		}
		if s.FetchedWriteMisses+s.EliminatedWriteMisses != s.WriteMissEvents {
			t.Fatalf("%s: write misses don't partition: %d+%d != %d",
				cfg, s.FetchedWriteMisses, s.EliminatedWriteMisses, s.WriteMissEvents)
		}
		if s.WriteHitEvents+s.WriteMissEvents != s.Writes {
			t.Fatalf("%s: write events don't partition", cfg)
		}
		if s.WritesToDirtyLines > s.WriteHitEvents {
			t.Fatalf("%s: writes-to-dirty exceeds write hits", cfg)
		}
		if cfg.WriteMiss == FetchOnWrite && s.EliminatedWriteMisses != 0 {
			t.Fatalf("%s: fetch-on-write eliminated misses", cfg)
		}
		if cfg.WriteMiss != FetchOnWrite && s.FetchedWriteMisses != 0 &&
			!(cfg.WriteMiss == WriteValidate && cfg.Granularity() > 1) {
			// (Write-validate with coarse valid bits legitimately falls
			// back to fetch-on-write for writes narrower than a
			// sub-block.)
			t.Fatalf("%s: no-fetch policy fetched on write miss", cfg)
		}
		if s.DirtyVictims > s.Victims || s.VictimDirtyBytes > s.VictimBytes {
			t.Fatalf("%s: victim accounting inconsistent", cfg)
		}
		if s.WritebackBytesDirty > s.WritebackBytesFull {
			t.Fatalf("%s: dirty write-back bytes exceed full", cfg)
		}
		if cfg.WriteHit == WriteThrough {
			if c.DirtyLines() != 0 {
				t.Fatalf("%s: write-through cache holds dirty lines", cfg)
			}
			if s.Writebacks != 0 {
				t.Fatalf("%s: write-through cache wrote back", cfg)
			}
			if s.WriteThroughs < s.Writes {
				// Every write produces at least one word transaction
				// (line-crossing writes produce more).
				t.Fatalf("%s: write-through transactions %d < writes %d", cfg, s.WriteThroughs, s.Writes)
			}
		}
		if cfg.WriteMiss != WriteInvalidate && s.Invalidates != 0 {
			t.Fatalf("%s: invalidates without write-invalidate", cfg)
		}
		if cfg.Assoc > 1 && cfg.WriteMiss == WriteInvalidate {
			// Documented: degenerates safely; nothing more to check here.
			_ = s
		}
		resident := c.ResidentLines()
		if resident > cfg.Size/cfg.LineSize {
			t.Fatalf("%s: %d resident lines exceed capacity", cfg, resident)
		}
		c.Flush()
		if c.ResidentLines() != 0 || c.DirtyLines() != 0 {
			t.Fatalf("%s: flush left lines resident", cfg)
		}
		s = c.Stats()
		if s.FlushVictims != uint64(resident) {
			t.Fatalf("%s: flush victims %d != resident %d", cfg, s.FlushVictims, resident)
		}
	}
}

// TestMissCountsIndependentOfHitPolicy: the fetch-triggering miss count
// of a configuration depends only on geometry and write-miss policy —
// never on write-through vs write-back. (This is why the paper's miss
// comparisons need not specify the hit policy, and why the advisor
// reads §4's comparison off runs with each policy's paired hit policy.)
// It holds for all four write-miss policies at 1-, 2- and 4-way LRU.
func TestMissCountsIndependentOfHitPolicy(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(seed, 2000)
		for _, assoc := range []int{1, 2, 4} {
			for _, miss := range WriteMissPolicies() {
				wt := MustNew(Config{Size: 1 << 10, LineSize: 16, Assoc: assoc, WriteHit: WriteThrough, WriteMiss: miss})
				wb := MustNew(Config{Size: 1 << 10, LineSize: 16, Assoc: assoc, WriteHit: WriteBack, WriteMiss: miss})
				wt.AccessTrace(tr)
				wb.AccessTrace(tr)
				if wt.Stats().Misses() != wb.Stats().Misses() ||
					wt.Stats().ReadMissEvents != wb.Stats().ReadMissEvents {
					t.Logf("seed %d, %d-way %s: write-through %d/%d misses/read misses, write-back %d/%d",
						seed, assoc, miss, wt.Stats().Misses(), wt.Stats().ReadMissEvents,
						wb.Stats().Misses(), wb.Stats().ReadMissEvents)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestFig17PartialOrderProperty: the paper's Fig 17 fetch-traffic
// partial order holds on random traces for direct-mapped caches:
// misses(WV) <= misses(WI), misses(WA) <= misses(WI),
// misses(WI) <= misses(FOW).
func TestFig17PartialOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(seed, 3000)
		misses := map[WriteMissPolicy]uint64{}
		for _, p := range WriteMissPolicies() {
			hit := WriteBack
			if p == WriteAround || p == WriteInvalidate {
				hit = WriteThrough
			}
			c := MustNew(Config{Size: 512, LineSize: 16, Assoc: 1, WriteHit: hit, WriteMiss: p})
			c.AccessTrace(tr)
			misses[p] = c.Stats().Misses()
		}
		return misses[WriteValidate] <= misses[WriteInvalidate] &&
			misses[WriteAround] <= misses[WriteInvalidate] &&
			misses[WriteInvalidate] <= misses[FetchOnWrite]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteValidateNeverWorseOnWrites: write-validate never fetches on
// writes, so its fetch count is bounded by fetch-on-write's.
func TestWriteValidateFetchBound(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(seed, 2000)
		fow := MustNew(Config{Size: 1 << 10, LineSize: 16, Assoc: 2, WriteHit: WriteBack, WriteMiss: FetchOnWrite})
		wv := MustNew(Config{Size: 1 << 10, LineSize: 16, Assoc: 2, WriteHit: WriteBack, WriteMiss: WriteValidate})
		fow.AccessTrace(tr)
		wv.AccessTrace(tr)
		return wv.Stats().Fetches <= fow.Stats().Fetches
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestDirtyImpliesValid: a dirty byte is always a valid byte.
func TestDirtyImpliesValid(t *testing.T) {
	tr := randomTrace(7, 5000)
	for _, cfg := range propConfigs() {
		c := MustNew(cfg)
		for _, e := range tr.Events {
			c.Access(e)
		}
		for i := range c.lines {
			l := &c.lines[i]
			if l.dirty&^l.valid != 0 {
				t.Fatalf("%s: dirty bits %#x outside valid %#x", cfg, l.dirty, l.valid)
			}
		}
	}
}

// TestNoDuplicateTagsInSet: a tag appears at most once per set.
func TestNoDuplicateTagsInSet(t *testing.T) {
	tr := randomTrace(11, 5000)
	cfg := Config{Size: 1 << 10, LineSize: 16, Assoc: 4, WriteHit: WriteBack, WriteMiss: WriteValidate}
	c := MustNew(cfg)
	c.AccessTrace(tr)
	sets := cfg.Sets()
	for set := 0; set < sets; set++ {
		seen := map[uint32]bool{}
		for w := 0; w < cfg.Assoc; w++ {
			l := c.lines[set*cfg.Assoc+w]
			if l.valid == 0 {
				continue
			}
			if seen[l.tag] {
				t.Fatalf("set %d holds tag %#x twice", set, l.tag)
			}
			seen[l.tag] = true
		}
	}
}
