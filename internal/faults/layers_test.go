package faults

import (
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/hierarchy"
	"cachewrite/internal/synth"
	"cachewrite/internal/trace"
	"cachewrite/internal/writebuffer"
	"cachewrite/internal/writecache"
)

func testTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := synth.HotCold(3, 30000, 16, 16, 1<<16, 80, 40)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// wtConfig is the paper's Fig 6 write-through pipeline with every
// layer present: L1 + write cache + write buffer + write-through L2.
func wtConfig(scheme Scheme) HierarchyConfig {
	cfg := HierarchyConfig{
		Hierarchy: hierarchy.Config{
			L1: cache.Config{Size: 4 << 10, LineSize: 16, Assoc: 1,
				WriteHit: cache.WriteThrough, WriteMiss: cache.FetchOnWrite},
			WriteCache: &writecache.Config{Entries: 5, LineSize: 8},
			L2: &cache.Config{Size: 32 << 10, LineSize: 32, Assoc: 2,
				WriteHit: cache.WriteThrough, WriteMiss: cache.FetchOnWrite},
		},
		Buffer:     &writebuffer.Config{Entries: 8, LineSize: 16, RetireInterval: 8},
		Layers:     AllLayers(),
		ErrorEvery: 50,
		Seed:       7,
	}
	for l := range cfg.Schemes {
		cfg.Schemes[l] = scheme
	}
	return cfg
}

func wbConfig(scheme Scheme) HierarchyConfig {
	cfg := HierarchyConfig{
		Hierarchy: hierarchy.Config{
			L1: cache.Config{Size: 4 << 10, LineSize: 16, Assoc: 1,
				WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite},
			L2: &cache.Config{Size: 32 << 10, LineSize: 32, Assoc: 2,
				WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite},
		},
		Layers:     AllLayers(),
		ErrorEvery: 50,
		Seed:       7,
	}
	for l := range cfg.Schemes {
		cfg.Schemes[l] = scheme
	}
	return cfg
}

// TestInjectHierarchyInvariants checks the taxonomy is total: every
// injected upset is classified exactly once, in every layer, under
// every scheme and both topologies.
func TestInjectHierarchyInvariants(t *testing.T) {
	tr := testTrace(t)
	for _, scheme := range []Scheme{ByteParity, WordSECECC, None} {
		for name, cfg := range map[string]HierarchyConfig{"wt": wtConfig(scheme), "wb": wbConfig(scheme)} {
			rep, err := InjectHierarchy(cfg, tr)
			if err != nil {
				t.Fatalf("%s %s: %v", name, scheme, err)
			}
			if rep.Accesses != uint64(len(tr.Events)) {
				t.Errorf("%s %s: accesses %d != %d events", name, scheme, rep.Accesses, len(tr.Events))
			}
			struck := uint64(0)
			for _, l := range AllLayers() {
				lr := rep.Layer(l)
				struck += lr.Injected
				if lr.Corrected+lr.DUE+lr.SDC != lr.Injected {
					t.Errorf("%s %s %s: corrected %d + due %d + sdc %d != injected %d",
						name, scheme, l, lr.Corrected, lr.DUE, lr.SDC, lr.Injected)
				}
				if lr.CorrectedInPlace+lr.RecoveredByRefetch+lr.RecoveredByReplay != lr.Corrected {
					t.Errorf("%s %s %s: recovery mechanisms do not sum to corrected", name, scheme, l)
				}
			}
			if struck == 0 {
				t.Errorf("%s %s: no upsets landed anywhere", name, scheme)
			}
		}
	}
}

// TestInjectHierarchyWTParityClean checks the paper's central §3
// claim: with parity, a write-through pipeline never loses clean data
// — every upset in the L1 and (write-through) L2 data arrays recovers
// by refetch, because a good copy always exists below.
func TestInjectHierarchyWTParityClean(t *testing.T) {
	rep, err := InjectHierarchy(wtConfig(ByteParity), testTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []Layer{LayerL1, LayerL2} {
		lr := rep.Layer(l)
		if lr.Injected == 0 {
			t.Fatalf("%s: no upsets injected", l)
		}
		if lr.DUE != 0 || lr.SDC != 0 {
			t.Errorf("%s: clean write-through array lost data under parity: %+v", l, lr)
		}
		if lr.RecoveredByRefetch != lr.Injected {
			t.Errorf("%s: want all %d upsets refetched, got %d", l, lr.Injected, lr.RecoveredByRefetch)
		}
	}
	// Buffered stores (write buffer, write cache) are the only
	// at-risk data, and most recover by replaying the resident L1 line.
	for _, l := range []Layer{LayerWriteBuffer, LayerWriteCache} {
		lr := rep.Layer(l)
		if lr.Injected == 0 {
			t.Fatalf("%s: no upsets injected", l)
		}
		if lr.RecoveredByReplay == 0 {
			t.Errorf("%s: no replay recoveries recorded", l)
		}
	}
}

// TestInjectHierarchyWBParityDirtyLoss checks the §3 converse: under
// parity alone, a write-back cache turns every dirty-line upset into a
// detected-unrecoverable error.
func TestInjectHierarchyWBParityDirtyLoss(t *testing.T) {
	rep, err := InjectHierarchy(wbConfig(ByteParity), testTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []Layer{LayerL1, LayerL2} {
		lr := rep.Layer(l)
		if lr.DUE == 0 {
			t.Errorf("%s: write-back + parity-only reported no dirty-line losses: %+v", l, lr)
		}
	}
	ecc, err := InjectHierarchy(wbConfig(WordSECECC), testTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if ecc.Total().DUE >= rep.Total().DUE {
		t.Errorf("ECC DUE %d should be below parity-only DUE %d", ecc.Total().DUE, rep.Total().DUE)
	}
	none, err := InjectHierarchy(wbConfig(None), testTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	tot := none.Total()
	if tot.SDC != tot.Injected || tot.Corrected != 0 || tot.DUE != 0 {
		t.Errorf("unprotected arrays should be all-SDC: %+v", tot)
	}
}

// TestInjectHierarchyScrub checks that scrubbing clears accumulated
// single-bit ECC upsets and thereby reduces double-bit DUEs.
func TestInjectHierarchyScrub(t *testing.T) {
	tr := testTrace(t)
	base := wbConfig(WordSECECC)
	noScrub, err := InjectHierarchy(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	base.ScrubInterval = 500
	scrubbed, err := InjectHierarchy(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	if scrubbed.Total().Scrubbed == 0 {
		t.Fatal("scrubbing interval set but nothing scrubbed")
	}
	if scrubbed.Total().DUE >= noScrub.Total().DUE {
		t.Errorf("scrubbing should reduce double-bit DUEs: %d (scrubbed) vs %d (unscrubbed)",
			scrubbed.Total().DUE, noScrub.Total().DUE)
	}
}

// TestInjectHierarchyXactRetry checks transient back-side transaction
// faults are injected, retried, and fully accounted.
func TestInjectHierarchyXactRetry(t *testing.T) {
	cfg := wbConfig(WordSECECC)
	cfg.XactFaultEvery = 1 // every transaction faults, so 3 retries at 90% still exhaust
	rep, err := InjectHierarchy(cfg, testTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	x := rep.Xact
	if x.Transactions == 0 || x.Faults == 0 {
		t.Fatalf("no transaction faults injected: %+v", x)
	}
	if x.Corrected+x.DUE != x.Faults {
		t.Errorf("xact outcomes %d+%d != faults %d", x.Corrected, x.DUE, x.Faults)
	}
	if x.Retries < x.Faults {
		t.Errorf("every fault should retry at least once: %d retries, %d faults", x.Retries, x.Faults)
	}
	if x.DUE == 0 {
		t.Errorf("every transaction faulting should exhaust the retries sometimes: %+v", x)
	}
}

// TestInjectHierarchyDeterminism checks the whole engine is a pure
// function of (config, trace).
func TestInjectHierarchyDeterminism(t *testing.T) {
	tr := testTrace(t)
	cfg := wtConfig(WordSECECC)
	cfg.ScrubInterval = 1000
	cfg.XactFaultEvery = 150
	a, err := InjectHierarchy(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := InjectHierarchy(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same config + trace produced different reports:\n%+v\n%+v", a, b)
	}
}

// TestInjectHierarchySkipsAbsentLayers checks layers missing from the
// topology report zeroes rather than failing.
func TestInjectHierarchySkipsAbsentLayers(t *testing.T) {
	cfg := wbConfig(ByteParity) // no write cache, no write buffer
	rep, err := InjectHierarchy(cfg, testTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []Layer{LayerWriteBuffer, LayerWriteCache} {
		if lr := rep.Layer(l); lr != (LayerReport{}) {
			t.Errorf("%s absent from topology but reported %+v", l, lr)
		}
	}
}

// TestBufferNeedsWriteThroughL1: a write buffer behind a write-back
// L1 would see no store stream, so the configuration is rejected
// rather than reported as a layer of zeroes.
func TestBufferNeedsWriteThroughL1(t *testing.T) {
	cfg := wbConfig(ByteParity)
	cfg.Buffer = &writebuffer.Config{Entries: 8, LineSize: 16, RetireInterval: 8}
	if cfg.Validate() == nil {
		t.Error("write buffer behind a write-back L1 accepted")
	}
	if _, err := InjectHierarchy(cfg, testTrace(t)); err == nil {
		t.Error("InjectHierarchy ran a write buffer behind a write-back L1")
	}
}

func TestParseLayers(t *testing.T) {
	ls, err := ParseLayers("l2, wb,l1")
	if err != nil {
		t.Fatal(err)
	}
	want := []Layer{LayerL1, LayerWriteBuffer, LayerL2}
	if len(ls) != len(want) {
		t.Fatalf("got %v, want %v", ls, want)
	}
	for i := range want {
		if ls[i] != want[i] {
			t.Fatalf("got %v, want %v (hierarchy order)", ls, want)
		}
	}
	if _, err := ParseLayers("l1,tlb"); err == nil {
		t.Error("unknown layer accepted")
	}
	if _, err := ParseLayers(""); err == nil {
		t.Error("empty layer list accepted")
	}
}
