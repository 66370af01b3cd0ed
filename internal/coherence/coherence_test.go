package coherence

import (
	"encoding/json"
	"reflect"
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/hierarchy"
	"cachewrite/internal/trace"
)

func l1cfg(hit cache.WriteHitPolicy, miss cache.WriteMissPolicy) cache.Config {
	return cache.Config{Size: 1 << 10, LineSize: 16, Assoc: 1, WriteHit: hit, WriteMiss: miss}
}

func l2cfg() *cache.Config {
	return &cache.Config{Size: 8 << 10, LineSize: 64, Assoc: 2,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
}

func mustSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// hitMissCombos enumerates every write-hit × write-miss policy pair.
func hitMissCombos() []cache.Config {
	var out []cache.Config
	for _, hit := range []cache.WriteHitPolicy{cache.WriteThrough, cache.WriteBack} {
		for _, miss := range cache.WriteMissPolicies() {
			out = append(out, l1cfg(hit, miss))
		}
	}
	return out
}

// synthTrace generates a deterministic reference stream confined to a
// small footprint so cores contend heavily.
func synthTrace(n int, seed uint64, footprint uint32) *trace.Trace {
	rng := seed | 1
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	tr := &trace.Trace{Name: "synth"}
	for i := 0; i < n; i++ {
		r := next()
		e := trace.Event{
			Addr: uint32(r) % footprint &^ 7,
			Size: 4,
			Gap:  uint16(r >> 32 & 7),
			Kind: trace.Read,
		}
		if r>>40&3 == 0 {
			e.Size = 8
		}
		if r>>48&3 != 0 {
			e.Kind = trace.Write
		}
		tr.Append(e)
	}
	return tr
}

func TestConfigValidate(t *testing.T) {
	good := Config{Cores: 2, L1: l1cfg(cache.WriteBack, cache.FetchOnWrite), L2: l2cfg()}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{Cores: 0, L1: good.L1},
		{Cores: MaxCores + 1, L1: good.L1},
		{Cores: 2, L1: cache.Config{Size: 3}},
		{Cores: 2, L1: good.L1, Scheme: Scheme(9)},
		{Cores: 2, L1: good.L1, HybridK: -1},
		{Cores: 2, L1: good.L1, L2: &cache.Config{Size: 512, LineSize: 8, Assoc: 1,
			WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}}, // L2 line < L1 line
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestSingleCoreEquivalence: a 1-core coherent system is stat-identical
// to the existing single-core hierarchy, for every scheme and every
// write-hit × write-miss policy pair, with and without an L2.
func TestSingleCoreEquivalence(t *testing.T) {
	tr := synthTrace(20000, 42, 1<<15)
	for _, l1 := range hitMissCombos() {
		for _, scheme := range Schemes() {
			for _, withL2 := range []bool{true, false} {
				var sl2, hl2 *cache.Config
				if withL2 {
					sl2, hl2 = l2cfg(), l2cfg()
				}
				sys := mustSystem(t, Config{Cores: 1, L1: l1, L2: sl2, Scheme: scheme})
				h, err := hierarchy.New(hierarchy.Config{L1: l1, L2: hl2})
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range tr.Events {
					sys.Access(0, e)
					h.Access(e)
				}
				sys.Flush()
				h.Flush()
				name := l1.String() + "/" + scheme.String()
				if got, want := sys.cores[0].l1.Stats(), h.L1().Stats(); got != want {
					t.Fatalf("%s: L1 stats differ:\n got %+v\nwant %+v", name, got, want)
				}
				if withL2 {
					if got, want := sys.l2.Stats(), h.L2().Stats(); got != want {
						t.Fatalf("%s: L2 stats differ:\n got %+v\nwant %+v", name, got, want)
					}
				}
				ss, hs := sys.Stats(), h.Stats()
				mirror := [][2]uint64{
					{ss.L1ToL2Transactions, hs.L1ToL2Transactions},
					{ss.L1ToL2Bytes, hs.L1ToL2Bytes},
					{ss.L2ToMemTransactions, hs.L2ToMemTransactions},
					{ss.L2ToMemBytes, hs.L2ToMemBytes},
					{ss.L2ToMemWritebacks, hs.L2ToMemWritebacks},
					{ss.L2ToMemWritebackBytes, hs.L2ToMemWritebackBytes},
					{ss.L2ToMemDirtyBytes, hs.L2ToMemDirtyBytes},
				}
				for i, m := range mirror {
					if m[0] != m[1] {
						t.Fatalf("%s: mirrored field %d: system %d, hierarchy %d", name, i, m[0], m[1])
					}
				}
				if ss.InvalidationsSent+ss.UpdatesSent+ss.Interventions+ss.SharingMisses != 0 {
					t.Fatalf("%s: phantom coherence activity on one core: %+v", name, ss)
				}
			}
		}
	}
}

// TestSingleWriterInvariant: under heavy contention, no byte is ever
// dirty in more than one private cache — for every coherence scheme ×
// write-hit × write-miss policy combination, checked after every event.
func TestSingleWriterInvariant(t *testing.T) {
	const cores = 3
	traces := make([]*trace.Trace, cores)
	for c := range traces {
		// A tiny footprint shared by all cores: maximal contention.
		traces[c] = synthTrace(1500, uint64(c+1)*977, 512)
	}
	for _, l1 := range hitMissCombos() {
		for _, scheme := range Schemes() {
			sys := mustSystem(t, Config{Cores: cores, L1: l1, Scheme: scheme, HybridK: 2, L2: l2cfg()})
			name := l1.String() + "/" + scheme.String()
			for i := 0; i < 1500; i++ {
				for c := 0; c < cores; c++ {
					sys.Access(c, traces[c].Events[i])
					if err := sys.CheckSingleWriter(); err != nil {
						t.Fatalf("%s: event %d core %d: %v", name, i, c, err)
					}
				}
			}
		}
	}
}

// TestInvalidateSemantics pins the MSI-style protocol actions and
// counters on a directed two-core scenario.
func TestInvalidateSemantics(t *testing.T) {
	sys := mustSystem(t, Config{Cores: 2,
		L1: l1cfg(cache.WriteBack, cache.FetchOnWrite), L2: l2cfg(), Scheme: Invalidate})
	wr := trace.Event{Addr: 0x100, Size: 4, Kind: trace.Write}
	rd := trace.Event{Addr: 0x100, Size: 4, Kind: trace.Read}

	// Core 0 dirties the line; core 1's fetch must trigger an
	// intervention (core 0 flushes, keeps a clean copy).
	sys.Access(0, wr)
	sys.Access(1, rd)
	if st := sys.Stats(); st.Interventions != 1 || st.InterventionDirtyBytes != 4 {
		t.Fatalf("after remote read: %+v, want 1 intervention of 4 dirty bytes", st)
	}
	if st := sys.cores[0].l1.Probe(0x100); !st.Present || st.Dirty != 0 {
		t.Fatalf("owner after downgrade: %+v, want present and clean", st)
	}

	// Core 1 writes: core 0's copy is invalidated.
	sys.Access(1, wr)
	if st := sys.cores[0].l1.Probe(0x100); st.Present {
		t.Fatal("remote copy survived an invalidating write")
	}
	st := sys.Stats()
	if st.InvalidationsSent != 1 || st.InvalidationsReceived != 1 {
		t.Fatalf("invalidations = sent %d received %d, want 1/1", st.InvalidationsSent, st.InvalidationsReceived)
	}
	if c0, c1 := sys.CoreStats(0), sys.CoreStats(1); c0.InvalidationsReceived != 1 || c1.InvalidationsSent != 1 {
		t.Fatalf("per-core attribution wrong: core0 %+v core1 %+v", c0, c1)
	}

	// Core 0 re-reads the invalidated line: a sharing miss, counted once.
	sys.Access(0, rd)
	sys.Access(0, rd)
	if st := sys.Stats(); st.SharingMisses != 1 {
		t.Fatalf("sharing misses = %d, want 1", st.SharingMisses)
	}
	if err := sys.CheckSingleWriter(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateSemantics: a write-update broadcast refreshes remote
// copies in place and transfers the dirty claim to the writer.
func TestUpdateSemantics(t *testing.T) {
	sys := mustSystem(t, Config{Cores: 2,
		L1: l1cfg(cache.WriteBack, cache.FetchOnWrite), L2: l2cfg(), Scheme: Update})
	wr := trace.Event{Addr: 0x200, Size: 4, Kind: trace.Write}
	rd := trace.Event{Addr: 0x200, Size: 4, Kind: trace.Read}

	sys.Access(1, wr) // core 1 owns the line dirty
	sys.Access(0, rd) // core 0 fetches (intervention), both hold copies
	sys.Access(0, wr) // core 0's write updates core 1's copy
	st := sys.Stats()
	if st.UpdatesSent != 1 || st.UpdatesReceived != 1 || st.UpdateTrafficBytes != 4 {
		t.Fatalf("updates = sent %d received %d bytes %d, want 1/1/4", st.UpdatesSent, st.UpdatesReceived, st.UpdateTrafficBytes)
	}
	if st.InvalidationsSent != 0 || st.SharingMisses != 0 {
		t.Fatalf("update scheme produced invalidations or sharing misses: %+v", st)
	}
	p1 := sys.cores[1].l1.Probe(0x200)
	if !p1.Present {
		t.Fatal("updated copy vanished")
	}
	if p1.Dirty&0xf != 0 {
		t.Fatalf("remote dirty claim not released: %#x", p1.Dirty)
	}
	if p0 := sys.cores[0].l1.Probe(0x200); p0.Dirty&0xf == 0 {
		t.Fatal("writer does not own the written bytes")
	}
	if err := sys.CheckSingleWriter(); err != nil {
		t.Fatal(err)
	}
}

// TestHybridSemantics: a copy absorbs updates until HybridK arrive
// with no local reference, then self-invalidates; a local touch resets
// the countdown.
func TestHybridSemantics(t *testing.T) {
	sys := mustSystem(t, Config{Cores: 2,
		L1: l1cfg(cache.WriteBack, cache.FetchOnWrite), L2: l2cfg(), Scheme: Hybrid, HybridK: 2})
	wr := trace.Event{Addr: 0x300, Size: 4, Kind: trace.Write}
	rd := trace.Event{Addr: 0x300, Size: 4, Kind: trace.Read}

	sys.Access(1, rd) // core 1 caches the line
	sys.Access(0, wr) // update 1: tolerated
	if !sys.cores[1].l1.Probe(0x300).Present {
		t.Fatal("copy dropped before the competitive threshold")
	}
	sys.Access(1, rd) // local touch resets the countdown
	sys.Access(0, wr) // update 1 again
	if !sys.cores[1].l1.Probe(0x300).Present {
		t.Fatal("local touch did not reset the update countdown")
	}
	sys.Access(0, wr) // update 2: threshold reached, self-invalidate
	if sys.cores[1].l1.Probe(0x300).Present {
		t.Fatal("copy survived past the competitive threshold")
	}
	st := sys.Stats()
	if st.HybridInvalidations != 1 {
		t.Fatalf("hybrid invalidations = %d, want 1", st.HybridInvalidations)
	}
	if st.UpdatesReceived != 2 {
		t.Fatalf("updates received = %d, want 2 (the tolerated ones)", st.UpdatesReceived)
	}
	sys.Access(1, rd)
	if sys.Stats().SharingMisses != 1 {
		t.Fatalf("re-access after self-invalidation not counted as sharing miss: %+v", sys.Stats())
	}
}

// TestRunDeterminism: building and replaying the same workload twice
// yields byte-identical statistics, per core and system-wide.
func TestRunDeterminism(t *testing.T) {
	base := synthTrace(4000, 7, 1<<14)
	run := func() []byte {
		w, err := BuildWorkload(base, WorkloadConfig{Cores: 4, SharedFraction: 0.3, Stagger: 100})
		if err != nil {
			t.Fatal(err)
		}
		sys := mustSystem(t, Config{Cores: 4,
			L1: l1cfg(cache.WriteBack, cache.WriteValidate), L2: l2cfg(), Scheme: Hybrid})
		if err := sys.Run(w); err != nil {
			t.Fatal(err)
		}
		sys.Flush()
		if err := sys.CheckSingleWriter(); err != nil {
			t.Fatal(err)
		}
		blob := struct {
			Sys   Stats
			Cores []CoreStats
			L1s   []cache.Stats
			L2    cache.Stats
		}{Sys: sys.Stats(), L2: sys.l2.Stats()}
		for i := 0; i < len(sys.cores); i++ {
			blob.Cores = append(blob.Cores, sys.CoreStats(i))
			blob.L1s = append(blob.L1s, sys.cores[i].l1.Stats())
		}
		b, err := json.Marshal(blob)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated runs differ:\n%s\n%s", a, b)
	}
}

// TestCoreStatsSumToSystem: with 4 cores under every scheme and
// policy pair, the system-wide L1→L2 traffic and coherence counters are
// exactly the sums of the per-core ones, and each core's L1→L2 port
// saw exactly the back-side transactions and bytes its L1 reports
// (flush write-backs included).
func TestCoreStatsSumToSystem(t *testing.T) {
	base := synthTrace(4000, 11, 1<<13)
	w, err := BuildWorkload(base, WorkloadConfig{Cores: 4, SharedFraction: 0.5, Stagger: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, l1 := range hitMissCombos() {
		for _, scheme := range Schemes() {
			name := l1.String() + "/" + scheme.String()
			sys := mustSystem(t, Config{Cores: 4, L1: l1, L2: l2cfg(), Scheme: scheme})
			if err := sys.Run(w); err != nil {
				t.Fatal(err)
			}
			sys.Flush()
			var sum CoreStats
			for i := 0; i < len(sys.cores); i++ {
				c := sys.CoreStats(i)
				ls := sys.cores[i].l1.Stats()
				if got := ls.BacksideTransactions() + ls.FlushWritebacks; c.L1ToL2Transactions != got {
					t.Errorf("%s core %d: port counted %d transactions, L1 issued %d", name, i, c.L1ToL2Transactions, got)
				}
				flushBytes := ls.FlushWritebacks * uint64(l1.LineSize)
				if got := ls.BacksideBytes(false) + flushBytes; c.L1ToL2Bytes != got {
					t.Errorf("%s core %d: port counted %d bytes, L1 issued %d", name, i, c.L1ToL2Bytes, got)
				}
				sum.L1ToL2Transactions += c.L1ToL2Transactions
				sum.L1ToL2Bytes += c.L1ToL2Bytes
				sum.InvalidationsSent += c.InvalidationsSent
				sum.InvalidationsReceived += c.InvalidationsReceived
				sum.UpdatesSent += c.UpdatesSent
				sum.UpdatesReceived += c.UpdatesReceived
				sum.Interventions += c.Interventions
				sum.HybridInvalidations += c.HybridInvalidations
				sum.SharingMisses += c.SharingMisses
			}
			st := sys.Stats()
			want := CoreStats{
				L1ToL2Transactions:    st.L1ToL2Transactions,
				L1ToL2Bytes:           st.L1ToL2Bytes,
				InvalidationsSent:     st.InvalidationsSent,
				InvalidationsReceived: st.InvalidationsReceived,
				UpdatesSent:           st.UpdatesSent,
				UpdatesReceived:       st.UpdatesReceived,
				Interventions:         st.Interventions,
				HybridInvalidations:   st.HybridInvalidations,
				SharingMisses:         st.SharingMisses,
			}
			if sum != want {
				t.Errorf("%s: per-core sums differ from system stats:\n sum %+v\n sys %+v", name, sum, want)
			}
			if sum.L1ToL2Transactions == 0 || sum.InvalidationsSent+sum.UpdatesSent == 0 {
				t.Errorf("%s: workload produced no traffic or no broadcasts: %+v", name, sum)
			}
		}
	}
}

// TestRunRejectsMismatchedWorkload: core-count mismatches are errors,
// not silent truncation.
func TestRunRejectsMismatchedWorkload(t *testing.T) {
	sys := mustSystem(t, Config{Cores: 2, L1: l1cfg(cache.WriteBack, cache.FetchOnWrite)})
	w, err := BuildWorkload(synthTrace(10, 1, 256), WorkloadConfig{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(w); err == nil {
		t.Fatal("4-core workload accepted by 2-core system")
	}
	if err := sys.Run(nil); err == nil {
		t.Fatal("nil workload accepted")
	}
}

// TestSchemeTrafficTradeoff pins the qualitative contract of the
// protocol family on a producer/consumer pattern: invalidate pays
// sharing misses, update pays broadcast bytes instead, hybrid bounds
// the broadcast tail.
func TestSchemeTrafficTradeoff(t *testing.T) {
	results := map[Scheme]Stats{}
	for _, scheme := range Schemes() {
		sys := mustSystem(t, Config{Cores: 2,
			L1: l1cfg(cache.WriteBack, cache.FetchOnWrite), L2: l2cfg(), Scheme: scheme, HybridK: 4})
		// Core 1 reads the line once, then core 0 streams writes to it
		// while core 1 periodically re-reads.
		sys.Access(1, trace.Event{Addr: 0x40, Size: 4, Kind: trace.Read})
		for i := 0; i < 64; i++ {
			sys.Access(0, trace.Event{Addr: 0x40, Size: 4, Kind: trace.Write})
			if i%8 == 7 {
				sys.Access(1, trace.Event{Addr: 0x40, Size: 4, Kind: trace.Read})
			}
		}
		results[scheme] = sys.Stats()
	}
	if results[Invalidate].SharingMisses == 0 {
		t.Error("invalidate: producer/consumer produced no sharing misses")
	}
	if results[Update].SharingMisses != 0 {
		t.Error("update: copies should never be lost to coherence")
	}
	if results[Update].UpdateTrafficBytes == 0 {
		t.Error("update: no broadcast traffic recorded")
	}
	if h, u := results[Hybrid].UpdateTrafficBytes, results[Update].UpdateTrafficBytes; h >= u {
		t.Errorf("hybrid broadcast bytes (%d) not below pure update (%d)", h, u)
	}
	if results[Hybrid].HybridInvalidations == 0 {
		t.Error("hybrid: competitive threshold never fired")
	}
}
