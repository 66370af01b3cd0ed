package sweep

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
)

// testTrace builds a deterministic LCG-driven mixed trace with hot and
// cold regions, both kinds, several sizes, and (for small line sizes)
// line-crossing accesses.
func testTrace(n int) *trace.Trace {
	tr := &trace.Trace{Name: "sweeptest"}
	state := uint32(99991)
	next := func() uint32 { state = state*1664525 + 1013904223; return state }
	for i := 0; i < n; i++ {
		r := next()
		addr := (r % (1 << 15)) &^ 3
		size := uint8(4)
		switch r % 4 {
		case 0:
			size = 8
		case 1:
			size = 3 // odd size: exercises the line-crossing slow path
		}
		k := trace.Read
		if r%3 == 0 {
			k = trace.Write
		}
		tr.Append(trace.Event{Addr: addr, Size: size, Gap: uint16(r % 5), Kind: k})
	}
	return tr
}

// policyConfigs enumerates every write-hit x write-miss combination at
// a fixed geometry, plus sub-block and sector variants.
func policyConfigs() []cache.Config {
	var cfgs []cache.Config
	for _, hit := range []cache.WriteHitPolicy{cache.WriteThrough, cache.WriteBack} {
		for _, miss := range cache.WriteMissPolicies() {
			for _, line := range []int{4, 16, 64} {
				c := cache.Config{Size: 4 << 10, LineSize: line, Assoc: 1, WriteHit: hit, WriteMiss: miss}
				if c.Validate() == nil {
					cfgs = append(cfgs, c)
				}
				c.Assoc = 2
				if c.Validate() == nil {
					cfgs = append(cfgs, c)
				}
				c.Assoc = 1
				c.ValidGranularity = 4
				c.SectorFetch = line >= 16
				if c.Validate() == nil {
					cfgs = append(cfgs, c)
				}
			}
		}
	}
	return cfgs
}

// sequential is the baseline the gang engine must match bit-for-bit:
// one full pass over the trace per configuration.
func sequential(t *testing.T, tr *trace.Trace, cfgs []cache.Config) []cache.Stats {
	t.Helper()
	out := make([]cache.Stats, len(cfgs))
	for i, cfg := range cfgs {
		c, err := cache.New(cfg)
		if err != nil {
			t.Fatalf("cache.New(%s): %v", cfg, err)
		}
		c.AccessTrace(tr)
		c.Flush()
		out[i] = c.Stats()
	}
	return out
}

// TestGangMatchesSequential pins the tentpole guarantee: gang-pass
// stats are identical to per-config sequential stats for every
// write-hit/write-miss policy combination (and sub-block variants).
func TestGangMatchesSequential(t *testing.T) {
	tr := testTrace(30000)
	cfgs := policyConfigs()
	if len(cfgs) < 8 {
		t.Fatalf("want at least the 2x4 policy matrix, got %d configs", len(cfgs))
	}
	want := sequential(t, tr, cfgs)
	got, err := Gang(tr, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: gang stats differ from sequential:\n gang %+v\n seq  %+v", cfgs[i], got[i], want[i])
		}
	}
}

func TestGangBadConfig(t *testing.T) {
	tr := testTrace(10)
	if _, err := Gang(tr, []cache.Config{{}}); err == nil {
		t.Fatal("Gang accepted an invalid configuration")
	}
}

func TestShardPartitions(t *testing.T) {
	tr := testTrace(1)
	cfgs := policyConfigs()
	units := Shard(3, tr, cfgs)
	n := 0
	for i, u := range units {
		if u.TraceIndex != 3 || u.Trace != tr {
			t.Fatalf("unit %d has wrong trace identity", i)
		}
		if u.Base != n {
			t.Fatalf("unit %d: base %d, want %d", i, u.Base, n)
		}
		if len(u.Cfgs) > DefaultShard || len(u.Cfgs) == 0 {
			t.Fatalf("unit %d: shard of %d configs", i, len(u.Cfgs))
		}
		for j, cfg := range u.Cfgs {
			if cfg != cfgs[n+j] {
				t.Fatalf("unit %d config %d out of order", i, j)
			}
		}
		n += len(u.Cfgs)
	}
	if n != len(cfgs) {
		t.Fatalf("shards cover %d configs, want %d", n, len(cfgs))
	}
	if len(units) != (len(cfgs)+DefaultShard-1)/DefaultShard {
		t.Fatalf("%d configs sharded into %d units", len(cfgs), len(units))
	}
}

// TestSweepMatchesSequential checks the full scheduler path assembles
// results in the right [trace][config] slots.
func TestSweepMatchesSequential(t *testing.T) {
	traces := []*trace.Trace{testTrace(5000), testTrace(8000).Slice(1000, 8000)}
	traces[1].Name = "sweeptest2"
	cfgs := policyConfigs()[:20] // three units, the last one short
	got, err := Sweep(context.Background(), traces, cfgs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for ti, tr := range traces {
		want := sequential(t, tr, cfgs)
		for i := range cfgs {
			if !reflect.DeepEqual(got[ti][i], want[i]) {
				t.Errorf("trace %d %s: sweep stats differ from sequential", ti, cfgs[i])
			}
		}
	}
}

// TestRunErrorNoDeadlock is the regression test for the figure-sweep
// precompute deadlock: with a single worker hitting an error on the
// first unit and many units still queued, RunUnits must return the
// error promptly instead of blocking on an abandoned work queue.
func TestRunErrorNoDeadlock(t *testing.T) {
	tr := testTrace(100)
	bad := Unit{Trace: tr, Cfgs: []cache.Config{{}}} // invalid: fails in cache.New
	units := []Unit{bad}
	for i := 0; i < 256; i++ {
		units = append(units, Shard(0, tr, policyConfigs()[:2])...)
	}
	done := make(chan error, 1)
	go func() {
		done <- RunUnits(context.Background(), units, Options{Workers: 1}, nil)
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RunUnits returned nil for a failing unit")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunUnits deadlocked after a unit error")
	}
}

func TestRunFirstErrorWins(t *testing.T) {
	tr := testTrace(100)
	units := []Unit{
		{Trace: tr, Cfgs: []cache.Config{{Size: 3}}},
		{Trace: tr, Cfgs: []cache.Config{{Size: 5}}},
	}
	err := RunUnits(context.Background(), units, Options{Workers: 2}, nil)
	if err == nil {
		t.Fatal("RunUnits returned nil for failing units")
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := testTrace(100)
	err := RunUnits(ctx, Shard(0, tr, policyConfigs()), Options{Workers: 2}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunUnits on cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestRunEmptyAndNilCollect(t *testing.T) {
	if err := RunUnits(context.Background(), nil, Options{Workers: 4}, nil); err != nil {
		t.Fatalf("RunUnits with no units: %v", err)
	}
	tr := testTrace(100)
	if err := RunUnits(context.Background(), Shard(0, tr, policyConfigs()[:12]), Options{}, nil); err != nil {
		t.Fatalf("RunUnits with default workers and nil collect: %v", err)
	}
}

// TestRunUnitsReusedCachesMatchGang: one RunUnits worker runs units
// of two traces that share configurations, so every unit after the
// first runs on caches an earlier one left behind, Reset. In either
// order of the traces, each unit's results equal a fresh Gang's,
// including a unit that names one configuration twice and FIFO and
// Random replacement, whose state Reset must restore.
func TestRunUnitsReusedCachesMatchGang(t *testing.T) {
	a, b := testTrace(6000), testTrace(9000).Slice(2500, 9000)
	b.Name = "sweeptest2"
	cfgs := policyConfigs()[:12]
	for _, repl := range []cache.Replacement{cache.FIFO, cache.Random} {
		cfgs = append(cfgs, cache.Config{Size: 2 << 10, LineSize: 16, Assoc: 4,
			WriteHit: cache.WriteBack, WriteMiss: cache.WriteValidate, Replacement: repl})
	}
	twice := Unit{TraceIndex: 0, Trace: a, Cfgs: []cache.Config{cfgs[12], cfgs[3], cfgs[12]}, Base: len(cfgs)}
	for _, order := range [][]*trace.Trace{{a, b}, {b, a}} {
		var units []Unit
		for ti, tr := range order {
			units = append(units, Shard(ti, tr, cfgs)...)
		}
		units = append(units, twice)
		got := map[string][]cache.Stats{}
		err := RunUnits(context.Background(), units, Options{Workers: 1}, func(u Unit, st []cache.Stats) {
			got[u.Key()] = st
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range units {
			want, err := Gang(u.Trace, u.Cfgs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[u.Key()], want) {
				t.Errorf("%s then %s: unit %s differs from a fresh Gang", order[0].Name, order[1].Name, u.Key())
			}
		}
	}
}

// bigLines is the line count of a bigConfigs cache: 64 KB of 16B
// lines, 160 KB of line state.
const bigLines = 4096

// bigConfigs returns n distinct 64 KB configurations (n <= 32): every
// write-hit x write-miss pair at 1, 2, 4 and 8 ways.
func bigConfigs(n int) []cache.Config {
	var cfgs []cache.Config
	for _, assoc := range []int{1, 2, 4, 8} {
		for _, hit := range []cache.WriteHitPolicy{cache.WriteThrough, cache.WriteBack} {
			for _, miss := range cache.WriteMissPolicies() {
				cfgs = append(cfgs, cache.Config{Size: bigLines * 16, LineSize: 16, Assoc: assoc, WriteHit: hit, WriteMiss: miss})
			}
		}
	}
	return cfgs[:n]
}

// TestRunUnitsBytesFlat: units that repeat the same configurations run
// on the caches and decode window the first unit allocated, so the
// bytes RunUnits allocates grow by far less than one cache's lines for
// each unit added.
func TestRunUnitsBytesFlat(t *testing.T) {
	tr := testTrace(3000)
	cfgs := bigConfigs(DefaultShard)
	allocated := func(n int) uint64 {
		var units []Unit
		for i := 0; i < n; i++ {
			units = append(units, Shard(i, tr, cfgs)...)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := RunUnits(context.Background(), units, Options{Workers: 1}, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const limit = 16 << 10
	few, many := allocated(2), allocated(10)
	if perUnit := (int64(many) - int64(few)) / 8; perUnit > limit {
		t.Errorf("RunUnits allocates %d B for 2 units and %d B for 10: %d B a unit, over %d", few, many, perUnit, limit)
	}
}

// TestRunUnitsKeepsNoSingleUseCache: a sweep over one trace names each
// configuration once, so its workers keep no finished unit's caches:
// by the last unit, the live heap holds less than one unit's line
// state, not every earlier unit's.
func TestRunUnitsKeepsNoSingleUseCache(t *testing.T) {
	tr := testTrace(3000)
	units := Shard(0, tr, bigConfigs(4*DefaultShard))
	var before, last runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	done := 0
	err := RunUnits(context.Background(), units, Options{Workers: 1}, func(Unit, []cache.Stats) {
		if done++; done == len(units) {
			runtime.GC()
			runtime.ReadMemStats(&last)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	const unitBytes = DefaultShard * bigLines * 40 // 40 B of tag, masks and stamps a line
	if live := int64(last.HeapAlloc) - int64(before.HeapAlloc); live > unitBytes {
		t.Errorf("after %d single-use units the live heap grew by %d B, over one unit's %d B of line state", len(units), live, unitBytes)
	}
}
