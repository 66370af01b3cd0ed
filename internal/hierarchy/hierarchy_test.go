package hierarchy

import (
	"math/rand"
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
	"cachewrite/internal/writecache"
)

func l1cfg(hit cache.WriteHitPolicy) cache.Config {
	return cache.Config{Size: 1 << 10, LineSize: 16, Assoc: 1,
		WriteHit: hit, WriteMiss: cache.FetchOnWrite}
}

func l2cfg() *cache.Config {
	return &cache.Config{Size: 16 << 10, LineSize: 32, Assoc: 2,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
}

func rd(addr uint32) trace.Event { return trace.Event{Addr: addr, Size: 4, Kind: trace.Read} }
func wr(addr uint32) trace.Event { return trace.Event{Addr: addr, Size: 4, Kind: trace.Write} }

// mustNew builds a hierarchy from a known-good test configuration.
func mustNew(t *testing.T, cfg Config) *Hierarchy {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestValidate(t *testing.T) {
	for _, good := range []Config{
		{L1: l1cfg(cache.WriteBack), L2: l2cfg()},
		{L1: l1cfg(cache.WriteThrough), L2: l2cfg(),
			WriteCache: &writecache.Config{Entries: 4, LineSize: cache.MaxLineSize}},
	} {
		if err := good.Validate(); err != nil {
			t.Fatalf("good config rejected: %v", err)
		}
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"bad L1", Config{L1: cache.Config{}}},
		{"write cache on write-back L1", Config{
			L1:         l1cfg(cache.WriteBack),
			WriteCache: &writecache.Config{Entries: 5, LineSize: 8},
		}},
		{"bad write cache", Config{
			L1:         l1cfg(cache.WriteThrough),
			WriteCache: &writecache.Config{Entries: -1, LineSize: 8},
		}},
		// An eviction reaches the L2 as one whole-line write event: a
		// 256B line's event size wraps to zero and the L2 never sees
		// the data the L1→L2 counters charged for.
		{"write-cache lines wider than a cache line", Config{
			L1:         l1cfg(cache.WriteThrough),
			WriteCache: &writecache.Config{Entries: 4, LineSize: 256},
			L2:         l2cfg(),
		}},
		{"bad L2", Config{L1: l1cfg(cache.WriteBack), L2: &cache.Config{}}},
		{"L2 line smaller than L1", Config{
			L1: l1cfg(cache.WriteBack),
			L2: &cache.Config{Size: 16 << 10, LineSize: 4, Assoc: 1,
				WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite},
		}},
		{"L2 smaller than L1", Config{
			L1: l1cfg(cache.WriteBack),
			L2: &cache.Config{Size: 512, LineSize: 16, Assoc: 1,
				WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite},
		}},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted", tc.name)
		}
	}
}

func TestNewPropagatesConfigError(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty (invalid) configuration")
	}
}

func TestBacksideCountsMatchL1(t *testing.T) {
	// Without a write cache, hierarchy transactions must equal the L1's
	// own back-side accounting (program execution only), for dirty
	// write-backs and write-through words alike.
	tr := &trace.Trace{}
	for i := 0; i < 500; i++ {
		tr.Append(rd(uint32(i*16) % 4096))
		tr.Append(wr(uint32(i*32) % 8192))
	}
	for _, hit := range []cache.WriteHitPolicy{cache.WriteBack, cache.WriteThrough} {
		h := mustNew(t, Config{L1: l1cfg(hit)})
		h.AccessTrace(tr)
		s1 := h.L1().Stats()
		if got, want := h.Stats().L1ToL2Transactions, s1.BacksideTransactions(); got != want {
			t.Errorf("%s: hierarchy counted %d transactions, L1 says %d", hit, got, want)
		}
		if got, want := h.Stats().L1ToL2Bytes, s1.BacksideBytes(false); got != want {
			t.Errorf("%s: hierarchy counted %d bytes, L1 says %d", hit, got, want)
		}
	}
}

// TestL1SideIndependentOfL2: with no write cache nothing flows back
// from the L2 into the L1, so under every write-hit x write-miss pair
// the L1's statistics and the L1ToL2 traffic are the same with and
// without an L2, before and after the final flush.
func TestL1SideIndependentOfL2(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := &trace.Trace{}
	for i := 0; i < 4000; i++ {
		size := uint8(1) << rng.Intn(4)
		addr := rng.Uint32() % (8 << 10) &^ uint32(size-1)
		tr.Append(trace.Event{Addr: addr, Size: size, Kind: trace.Kind(rng.Intn(2)), Gap: uint16(rng.Intn(4))})
	}
	for _, hit := range []cache.WriteHitPolicy{cache.WriteBack, cache.WriteThrough} {
		for _, miss := range cache.WriteMissPolicies() {
			l1 := l1cfg(hit)
			l1.WriteMiss = miss
			with := mustNew(t, Config{L1: l1, L2: l2cfg()})
			without := mustNew(t, Config{L1: l1})
			with.AccessTrace(tr)
			without.AccessTrace(tr)
			for _, stage := range []string{"run", "flush"} {
				if stage == "flush" {
					with.Flush()
					without.Flush()
				}
				if got, want := without.L1().Stats(), with.L1().Stats(); got != want {
					t.Errorf("%s/%s after %s: L1 stats without the L2 differ:\n got %+v\nwant %+v", hit, miss, stage, got, want)
				}
				g, w := without.Stats(), with.Stats()
				if g.L1ToL2Transactions != w.L1ToL2Transactions || g.L1ToL2Bytes != w.L1ToL2Bytes {
					t.Errorf("%s/%s after %s: L1ToL2 traffic without the L2 is %d/%dB, with it %d/%dB", hit, miss, stage,
						g.L1ToL2Transactions, g.L1ToL2Bytes, w.L1ToL2Transactions, w.L1ToL2Bytes)
				}
			}
		}
	}
}

func TestL2SeesL1Misses(t *testing.T) {
	h := mustNew(t, Config{L1: l1cfg(cache.WriteBack), L2: l2cfg()})
	h.Access(rd(0x100))
	h.Access(rd(0x100)) // L1 hit: L2 silent
	l2 := h.L2().Stats()
	if l2.Reads != 1 {
		t.Fatalf("L2 saw %d reads, want 1", l2.Reads)
	}
	if l2.ReadMissEvents != 1 {
		t.Errorf("L2 read misses = %d, want 1", l2.ReadMissEvents)
	}
	// L2-to-memory traffic counted.
	if h.Stats().L2ToMemTransactions != 1 {
		t.Errorf("L2->mem transactions = %d, want 1", h.Stats().L2ToMemTransactions)
	}
	// Second L1 miss to a nearby line hits in the L2's 32B line.
	h.Access(rd(0x110))
	l2 = h.L2().Stats()
	if l2.ReadMissEvents != 1 {
		t.Errorf("nearby L1 miss should hit the L2's longer line (misses=%d)", l2.ReadMissEvents)
	}
}

func TestWriteThroughWordsReachL2(t *testing.T) {
	h := mustNew(t, Config{L1: l1cfg(cache.WriteThrough), L2: l2cfg()})
	h.Access(rd(0x100))
	h.Access(wr(0x100))
	l2 := h.L2().Stats()
	if l2.Writes != 1 {
		t.Errorf("L2 saw %d writes, want 1 (the written-through word)", l2.Writes)
	}
}

func TestDirtyVictimWritebackReachesL2(t *testing.T) {
	h := mustNew(t, Config{L1: l1cfg(cache.WriteBack), L2: l2cfg()})
	h.Access(wr(0x100))         // dirty line in L1 (fetch-on-write)
	h.Access(rd(0x100 + 1<<10)) // conflicting line evicts it
	l2 := h.L2().Stats()
	if l2.Writes != 1 {
		t.Errorf("L2 saw %d writes, want 1 (the victim write-back)", l2.Writes)
	}
}

func TestWriteCachePath(t *testing.T) {
	h := mustNew(t, Config{
		L1:         l1cfg(cache.WriteThrough),
		WriteCache: &writecache.Config{Entries: 2, LineSize: 8},
		L2:         l2cfg(),
	})
	// Fill the line so writes hit in L1 and pass through to the write
	// cache.
	h.Access(rd(0x100))
	h.Access(wr(0x100))
	h.Access(wr(0x104)) // merges in the write cache
	// No write-cache eviction yet: the only L1->L2 traffic is the fetch.
	if got := h.Stats().L1ToL2Transactions; got != 1 {
		t.Fatalf("transactions = %d, want 1 (fetch only; writes merged)", got)
	}
	// Two more distinct lines force an eviction of line 0x100.
	h.Access(rd(0x200))
	h.Access(wr(0x200))
	h.Access(rd(0x300))
	h.Access(wr(0x300))
	st := h.Stats()
	// Fetches: 3 reads -> 3. Write-cache evictions: 1 (line 0x100).
	if st.L1ToL2Transactions != 4 {
		t.Errorf("transactions = %d, want 4 (3 fetches + 1 write-cache eviction)", st.L1ToL2Transactions)
	}
	if h.WriteCache() == nil {
		t.Error("WriteCache accessor nil")
	}
	// The evicted write's address (0x100) must have reached the L2 as a
	// write.
	if h.L2().Stats().Writes != 1 {
		t.Errorf("L2 writes = %d, want 1", h.L2().Stats().Writes)
	}
}

func TestFlushDrainsAllLevels(t *testing.T) {
	h := mustNew(t, Config{
		L1:         l1cfg(cache.WriteThrough),
		WriteCache: &writecache.Config{Entries: 8, LineSize: 8},
		L2:         l2cfg(),
	})
	h.Access(wr(0x100)) // write miss: fetch + write through into WC
	before := h.Stats().L1ToL2Transactions
	h.Flush()
	after := h.Stats().L1ToL2Transactions
	if after <= before {
		t.Error("flush did not drain the write cache")
	}
	if h.L1().ResidentLines() != 0 {
		t.Error("L1 not flushed")
	}
	if h.L2().ResidentLines() != 0 {
		t.Error("L2 not flushed")
	}
}

func TestNoL2IsLegal(t *testing.T) {
	h := mustNew(t, Config{L1: l1cfg(cache.WriteBack)})
	h.Access(rd(0x100))
	if h.L2() != nil {
		t.Error("L2 should be nil")
	}
	if h.Stats().L2ToMemTransactions != 0 {
		t.Error("phantom L2 traffic")
	}
	h.Flush() // must not panic
}

// TestL2SubblockWritebackAccounting is the regression test for the
// memSink accounting bug: L2 victim write-backs used to charge only
// the full line size, discarding the dirty-byte count, so sub-block
// write-back traffic could not be computed at the L2 backside. A
// partially dirty L2 victim must show dirty < size.
func TestL2SubblockWritebackAccounting(t *testing.T) {
	l2 := cache.Config{Size: 128, LineSize: 64, Assoc: 1,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
	h := mustNew(t, Config{
		L1: cache.Config{Size: 64, LineSize: 16, Assoc: 1,
			WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite},
		L2: &l2,
	})
	// Dirty L1 line 0x0, then evict it (0x40 shares L1 set 0): the
	// write-back dirties 16 of the 64 bytes of L2 line 0x0.
	h.Access(wr(0x0))
	h.Access(wr(0x40))
	// 0x80 shares L2 set 0 with line 0x0: the fetch evicts the
	// partially dirty L2 victim.
	h.Access(rd(0x80))
	hs := h.Stats()
	if hs.L2ToMemWritebacks != 1 {
		t.Fatalf("L2->mem writebacks = %d, want 1", hs.L2ToMemWritebacks)
	}
	if hs.L2ToMemWritebackBytes != 64 {
		t.Errorf("writeback bytes = %d, want full line 64", hs.L2ToMemWritebackBytes)
	}
	if hs.L2ToMemDirtyBytes != 16 {
		t.Errorf("dirty bytes = %d, want 16 (one L1 line of the victim)", hs.L2ToMemDirtyBytes)
	}
	if hs.L2ToMemDirtyBytes >= hs.L2ToMemWritebackBytes {
		t.Error("partially dirty victim should show dirty < size")
	}
}
