package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/sweep"
	"cachewrite/internal/workload"
)

// TestCacheStatsComputeOnceConcurrent hammers the memo from many
// goroutines (run under -race by `make check`) and asserts the
// misses-once contract: every distinct key is simulated exactly once,
// no matter how many callers race on it, and every caller sees the
// identical result.
func TestCacheStatsComputeOnceConcurrent(t *testing.T) {
	env := syntheticEnv()
	keys := []struct {
		ti  int
		cfg cache.Config
	}{
		{0, stdConfig(1<<10, StdLineSize)},
		{0, stdConfig(2<<10, StdLineSize)},
		{1, stdConfig(1<<10, StdLineSize)},
		{1, stdConfig(StdCacheSize, 32)},
	}
	want := make([]cache.Stats, len(keys))
	fresh := syntheticEnv()
	for i, k := range keys {
		s, err := fresh.CacheStats(k.ti, k.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				k := keys[(g+i)%len(keys)]
				s, err := env.CacheStats(k.ti, k.cfg)
				if err != nil {
					errs <- err
					return
				}
				if s != want[(g+i)%len(keys)] {
					t.Errorf("concurrent CacheStats returned a divergent result for %s", k.cfg)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := env.Computes(); got != uint64(len(keys)) {
		t.Fatalf("memo computed %d simulations for %d distinct keys (misses-once violated)", got, len(keys))
	}
}

// TestCacheStatsMemoizedErrors: a failing key is also computed once and
// every caller sees the same error.
func TestCacheStatsMemoizedErrors(t *testing.T) {
	env := syntheticEnv()
	bad := cache.Config{Size: 7}
	if _, err := env.CacheStats(0, bad); err == nil {
		t.Fatal("invalid config succeeded")
	}
	if _, err := env.CacheStats(0, bad); err == nil {
		t.Fatal("memoized invalid config succeeded")
	}
	if got := env.Computes(); got != 1 {
		t.Fatalf("failing key computed %d times, want 1", got)
	}
}

// TestPrecomputeGangGoldenEquality is the golden-equality gate for the
// gang engine through the Env path: after a gang-driven PrecomputeSweep,
// every sweep key must be memoized bit-identically to what a fresh
// sequential simulation produces, for every write-hit/write-miss combo
// in the paper sweep — and the precomputed env must not simulate again
// when the figures read those keys back.
func TestPrecomputeGangGoldenEquality(t *testing.T) {
	env := syntheticEnv()
	if err := env.PrecomputeSweep(context.Background(), sweep.Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	preComputes := env.Computes()
	if preComputes != 0 {
		t.Fatalf("gang precompute used the sequential path %d times", preComputes)
	}
	fresh := syntheticEnv()
	for ti := range env.Traces {
		for _, cfg := range SweepConfigs() {
			a, err := env.CacheStats(ti, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fresh.CacheStats(ti, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("gang-precomputed stats differ from sequential for %s on trace %d", cfg, ti)
			}
		}
	}
	if got := env.Computes(); got != 0 {
		t.Fatalf("CacheStats re-simulated %d precomputed keys", got)
	}
}

// TestPrecomputeCancelled: a cancelled context aborts the warmup with
// its error instead of hanging (the old channel-fed pool could strand
// its producer forever).
func TestPrecomputeCancelled(t *testing.T) {
	env := syntheticEnv()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := env.PrecomputeSweep(ctx, sweep.Options{Workers: 2}); err == nil {
		t.Fatal("PrecomputeSweep(cancelled) returned nil")
	}
}

// TestL1PassRecordedOncePerTrace pins the work count of the ids that
// put a model behind the standard L1 (ext-cpi, ext-burst, ext-victim,
// ext-perf, ext-l2policy): per trace, exactly one recorded pass of the
// 8KB/16B write-back fetch-on-write L1 and one of its write-through
// twin, none more on a second run, and the same when the ids race
// (make check runs this under -race). Before the passes were shared,
// the write-back L1 ran 8 times per trace and its twin 3 times.
func TestL1PassRecordedOncePerTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("real workloads in -short mode")
	}
	ts, err := workload.GenerateAllCached("", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range ts {
		ts[i] = tr.Slice(0, min(tr.Len(), 20_000))
	}
	ids := []string{"ext-cpi", "ext-burst", "ext-victim", "ext-perf", "ext-l2policy"}
	wb := stdConfig(StdCacheSize, StdLineSize)
	wt := wb
	wt.WriteHit = cache.WriteThrough
	check := func(env *Env, when string) {
		t.Helper()
		if got, want := env.recordings.Load(), uint64(2*len(ts)); got != want {
			t.Errorf("%s: %d L1 passes recorded, want %d (two per trace)", when, got, want)
		}
		for ti := range ts {
			for _, cfg := range []cache.Config{wb, wt} {
				if env.logs.m[memoKey{ti, cfg}] == nil {
					t.Errorf("%s: trace %d has no recorded pass of %s", when, ti, cfg)
				}
			}
		}
	}

	env := NewEnvFromTraces(ts)
	for run := 1; run <= 2; run++ {
		for _, id := range ids {
			if _, err := Run(env, id); err != nil {
				t.Fatal(err)
			}
		}
		check(env, fmt.Sprintf("run %d", run))
	}

	raced := NewEnvFromTraces(ts)
	var wg sync.WaitGroup
	errs := make(chan error, len(ids))
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if _, err := Run(raced, id); err != nil {
				errs <- err
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	check(raced, "racing ids")
}

// TestMemo pins the memo's contract: racing gets compute a key once and
// all see its value, an error is remembered like a value, and put
// stores a value only for a key that has none (the gang precompute
// seeds CacheStats this way, and so does an L1 recording, possibly
// after the key was simulated).
func TestMemo(t *testing.T) {
	t.Run("racing gets compute once", func(t *testing.T) {
		var m memo[int, int]
		var computes atomic.Int32
		const goroutines = 16
		got := make([]int, goroutines)
		var wg, arrived sync.WaitGroup
		arrived.Add(goroutines)
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				arrived.Done()
				got[g], _ = m.get(7, func() (int, error) {
					// A compute starts only once every get is under way.
					arrived.Wait()
					computes.Add(1)
					return 42, nil
				})
			}()
		}
		wg.Wait()
		if n := computes.Load(); n != 1 {
			t.Errorf("%d racing gets computed %d times, want 1", goroutines, n)
		}
		for g, v := range got {
			if v != 42 {
				t.Errorf("get %d returned %d, want 42", g, v)
			}
		}
	})
	t.Run("error memoized", func(t *testing.T) {
		var m memo[string, int]
		bad := errors.New("bad")
		if _, err := m.get("k", func() (int, error) { return 0, bad }); err != bad {
			t.Fatalf("first get = %v, want %v", err, bad)
		}
		v, err := m.get("k", func() (int, error) { return 1, nil })
		if err != bad || v != 0 {
			t.Errorf("second get = %d, %v; want the memoized error", v, err)
		}
	})
	t.Run("put before get skips the compute", func(t *testing.T) {
		var m memo[int, int]
		m.put(1, 5)
		v, err := m.get(1, func() (int, error) {
			t.Error("get computed a key that put had set")
			return 9, nil
		})
		if v != 5 || err != nil {
			t.Errorf("get = %d, %v; want 5, nil", v, err)
		}
	})
	t.Run("put after get keeps the computed value", func(t *testing.T) {
		var m memo[int, int]
		if _, err := m.get(1, func() (int, error) { return 3, nil }); err != nil {
			t.Fatal(err)
		}
		m.put(1, 8)
		if v, _ := m.get(1, nil); v != 3 {
			t.Errorf("get after put = %d, want the computed 3", v)
		}
	})
}

// TestBufferRunsShared: ext-cpi's write-through rows read Fig 5's
// interval-8 write-buffer runs, one per trace, so after fig5 (13
// retire intervals per trace) ext-cpi runs no buffer of its own, and
// renders as it does alone.
func TestBufferRunsShared(t *testing.T) {
	alone := syntheticEnv()
	want := renderID(t, alone, "ext-cpi")
	n := uint64(len(alone.Traces))
	if got := alone.bufferRuns.Load(); got != n {
		t.Errorf("ext-cpi alone: %d buffer runs, want %d", got, n)
	}
	env := syntheticEnv()
	renderID(t, env, "fig5")
	if got := renderID(t, env, "ext-cpi"); got != want {
		t.Error("ext-cpi after fig5 renders differently from ext-cpi alone")
	}
	if got := env.bufferRuns.Load(); got != 13*n {
		t.Errorf("fig5 then ext-cpi: %d buffer runs, want %d", got, 13*n)
	}
}
