package sweep

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
)

// TestRunUnitsNoStarvation pins the liveness of the shared unit
// cursor: with uneven unit lengths and with more workers than units,
// every unit reaches collect exactly once and every UnitDone names a
// worker inside the pool.
func TestRunUnitsNoStarvation(t *testing.T) {
	for _, tc := range []struct {
		workers, units int
		lens           []int
		cfgs           []cache.Config
	}{
		{workers: 3, units: 3 * ((len(policyConfigs()) + DefaultShard - 1) / DefaultShard), lens: []int{100, 50000, 200}, cfgs: policyConfigs()},
		{workers: 4, units: 2, lens: []int{300}, cfgs: policyConfigs()[:12]},
	} {
		var units []Unit
		for ti, n := range tc.lens {
			tr := testTrace(n)
			tr.Name = string(rune('a' + ti))
			units = append(units, Shard(ti, tr, tc.cfgs)...)
		}
		if len(units) != tc.units {
			t.Fatalf("workers=%d: sharded %d units, want %d", tc.workers, len(units), tc.units)
		}

		collected := map[string]int{}
		var mu sync.Mutex
		var badWorkers []int
		opt := Options{
			Workers: tc.workers,
			OnEvent: func(e Event) {
				if e.Kind == UnitDone && (e.Worker < 0 || e.Worker >= tc.workers) {
					mu.Lock()
					badWorkers = append(badWorkers, e.Worker)
					mu.Unlock()
				}
			},
		}
		err := RunUnits(context.Background(), units, opt, func(u Unit, _ []cache.Stats) {
			collected[u.Key()]++ // collect is called serially
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(collected) != len(units) {
			t.Errorf("workers=%d: %d of %d units collected", tc.workers, len(collected), len(units))
		}
		for key, n := range collected {
			if n != 1 {
				t.Errorf("workers=%d: unit %s collected %d times", tc.workers, key, n)
			}
		}
		if len(badWorkers) > 0 {
			t.Errorf("workers=%d: UnitDone reported out-of-range workers %v", tc.workers, badWorkers)
		}
	}
}

// TestUnevenDurationsByteIdentical injects wildly uneven unit
// durations (one 60k-event trace next to 300-event traces) and
// asserts the scheduler finishes every unit exactly once, reports a
// valid worker index for each, and produces results byte-identical to
// the sequential baseline — the end-to-end guarantee that stealing
// never corrupts or drops work.
func TestUnevenDurationsByteIdentical(t *testing.T) {
	traces := []*trace.Trace{testTrace(60000), testTrace(300), testTrace(300), testTrace(300)}
	for i, tr := range traces {
		tr.Name = string(rune('a' + i))
	}
	cfgs := policyConfigs()[:60] // per trace: seven full units and a short one

	var mu sync.Mutex
	done := map[string]int{}
	workersSeen := map[int]bool{}
	opt := Options{
		Workers: 4,
		OnEvent: func(e Event) {
			if e.Kind == UnitDone {
				mu.Lock()
				done[e.Unit]++
				workersSeen[e.Worker] = true
				mu.Unlock()
			}
		},
	}
	got, err := Sweep(context.Background(), traces, cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for ti, tr := range traces {
		want := sequential(t, tr, cfgs)
		for i := range cfgs {
			if !reflect.DeepEqual(got[ti][i], want[i]) {
				t.Errorf("trace %d %s: stolen-work results differ from sequential", ti, cfgs[i])
			}
		}
	}
	wantUnits := 0
	for range traces {
		wantUnits += (len(cfgs) + DefaultShard - 1) / DefaultShard
	}
	if len(done) != wantUnits {
		t.Errorf("%d distinct units completed, want %d", len(done), wantUnits)
	}
	for key, n := range done {
		if n != 1 {
			t.Errorf("unit %s completed %d times", key, n)
		}
	}
	for w := range workersSeen {
		if w < 0 || w >= 4 {
			t.Errorf("UnitDone reported out-of-range worker %d", w)
		}
	}
}

// TestFanoutZeroAlloc pins the batched gang inner loop at zero
// allocations per window, covering decode + every kernel class in one
// mixed gang — the fanout-level companion of TestAccessZeroAlloc.
func TestFanoutZeroAlloc(t *testing.T) {
	tr := testTrace(4000)
	cfgs := []cache.Config{
		// Direct-mapped kernel.
		{Size: 8 << 10, LineSize: 16, Assoc: 1, WriteHit: cache.WriteBack, WriteMiss: cache.WriteValidate},
		{Size: 8 << 10, LineSize: 16, Assoc: 1, WriteHit: cache.WriteThrough, WriteMiss: cache.WriteAround},
		// Set-associative kernel (same geometry as the 4KB direct one).
		{Size: 16 << 10, LineSize: 16, Assoc: 2, WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite},
		// Generic fallback (sub-block granularity).
		{Size: 8 << 10, LineSize: 16, Assoc: 1, WriteHit: cache.WriteBack, WriteMiss: cache.WriteValidate, ValidGranularity: 4},
	}
	caches := make([]*cache.Cache, len(cfgs))
	for i, cfg := range cfgs {
		caches[i] = cache.MustNew(cfg)
	}
	groups := groupByGeometry(caches)
	dec := make([]cache.Decoded, tr.Len())
	// Warm once so steady state is measured.
	fanout(tr.Events, groups, dec)
	if av := testing.AllocsPerRun(10, func() { fanout(tr.Events, groups, dec) }); av != 0 {
		t.Fatalf("fanout allocates: %v allocs/run", av)
	}
}

// TestGroupByGeometry pins the grouping: same-geometry caches share a
// group in input order, distinct geometries get their own groups in
// first-appearance order.
func TestGroupByGeometry(t *testing.T) {
	mk := func(size, line, assoc int) *cache.Cache {
		return cache.MustNew(cache.Config{Size: size, LineSize: line, Assoc: assoc,
			WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite})
	}
	a := mk(4<<10, 16, 1)  // 256 sets × 16B
	b := mk(8<<10, 16, 2)  // 256 sets × 16B — same geometry as a
	c := mk(8<<10, 16, 1)  // 512 sets × 16B
	d := mk(4<<10, 32, 1)  // 128 sets × 32B
	e := mk(16<<10, 16, 4) // 256 sets × 16B — same geometry as a
	groups := groupByGeometry([]*cache.Cache{a, b, c, d, e})
	want := [][]*cache.Cache{{a, b, e}, {c}, {d}}
	if len(groups) != len(want) {
		t.Fatalf("got %d groups, want %d", len(groups), len(want))
	}
	for i, g := range groups {
		if !reflect.DeepEqual(g.caches, want[i]) {
			t.Errorf("group %d holds wrong members", i)
		}
	}
}
