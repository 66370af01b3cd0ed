// Package experiments contains one runner per figure and table of the
// paper's evaluation. Each runner takes an Env (the six benchmark
// traces plus a memoized simulation cache) and produces a stats.Chart
// or stats.Table whose series correspond one-to-one with the paper's
// plot.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"cachewrite/internal/cache"
	"cachewrite/internal/sweep"
	"cachewrite/internal/trace"
	"cachewrite/internal/workload"
)

// Paper sweep axes.
var (
	// CacheSizes is the paper's cache-capacity sweep: 1KB to 128KB.
	CacheSizes = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}
	// LineSizes is the paper's line-size sweep: 4B to 64B.
	LineSizes = []int{4, 8, 16, 32, 64}
)

const (
	// StdCacheSize is the fixed capacity for line-size sweeps (8KB).
	StdCacheSize = 8 << 10
	// StdLineSize is the fixed line size for capacity sweeps (16B).
	StdLineSize = 16
)

// memoKey identifies one memoized simulation. cache.Config is a flat
// comparable struct, so the key works directly as a map key — no
// fmt.Sprintf string building on the lookup path.
type memoKey struct {
	ti  int
	cfg cache.Config
}

// shard spreads keys across the memo's lock shards.
func (k memoKey) shard() int {
	h := uint64(k.ti)
	h = h<<7 ^ uint64(k.cfg.Size)
	h = h<<7 ^ uint64(k.cfg.LineSize)
	h = h<<7 ^ uint64(k.cfg.Assoc)
	h = h<<3 ^ uint64(k.cfg.WriteHit)
	h = h<<3 ^ uint64(k.cfg.WriteMiss)
	h = h<<3 ^ uint64(k.cfg.Replacement)
	h = h<<7 ^ uint64(k.cfg.ValidGranularity)
	if k.cfg.SectorFetch {
		h ^= 1 << 40
	}
	if k.cfg.WVMissWriteThrough {
		h ^= 1 << 41
	}
	h *= 0x9e3779b97f4a7c15 // Fibonacci hash: mix all bits into the top
	return int(h >> (64 - memoShardBits))
}

const (
	memoShardBits = 6
	memoShards    = 1 << memoShardBits
)

// memoEntry is one simulation result. The once gate gives exact
// compute-once semantics under concurrent CacheStats calls for the
// same key without holding any shard lock during the simulation.
type memoEntry struct {
	once  sync.Once
	stats cache.Stats
	err   error
}

// memoShard is one lock stripe of the memo.
type memoShard struct {
	mu sync.Mutex
	m  map[memoKey]*memoEntry
}

// Env holds the benchmark traces and memoizes cache simulations so the
// many figures sharing a configuration pay for it once. The memo is
// sharded so parallel figure runners do not serialize on a single
// lock, and each key is computed exactly once even when raced. The
// multi-core experiments and the write-cache curves keep their own
// memos beside it (see cohMemo and curveMemo).
type Env struct {
	Traces []*trace.Trace

	shards   [memoShards]memoShard
	computes atomic.Uint64
	coh      cohMemo
	curves   curveMemo
}

// NewEnvCached generates the six paper benchmarks at the given scale,
// backed by the on-disk trace cache at cacheDir (see
// workload.GenerateCached); an empty dir generates from scratch.
func NewEnvCached(scale int, cacheDir string) (*Env, error) {
	ts, err := workload.GenerateAllCached(cacheDir, scale)
	if err != nil {
		return nil, err
	}
	return NewEnvFromTraces(ts), nil
}

// NewEnvFromTraces wraps pre-generated traces (tests use this with
// truncated traces).
func NewEnvFromTraces(ts []*trace.Trace) *Env {
	return &Env{Traces: ts}
}

// entry returns the memo entry for k, creating it if needed. The shard
// lock is held only for the map access, never for a simulation.
func (e *Env) entry(k memoKey) *memoEntry {
	s := &e.shards[k.shard()]
	return lazyEntry(&s.mu, &s.m, k)
}

// lazyEntry returns (*m)[k], creating the map and the entry if needed,
// under mu.
func lazyEntry[K comparable, V any](mu *sync.Mutex, m *map[K]*V, k K) *V {
	mu.Lock()
	defer mu.Unlock()
	if *m == nil {
		*m = make(map[K]*V)
	}
	v := (*m)[k]
	if v == nil {
		v = new(V)
		(*m)[k] = v
	}
	return v
}

// CacheStats runs trace index ti through the configuration (with a
// final flush) and memoizes the result. Concurrent callers asking for
// the same key compute it exactly once; callers with different keys
// never serialize on each other's simulations.
func (e *Env) CacheStats(ti int, cfg cache.Config) (cache.Stats, error) {
	ent := e.entry(memoKey{ti, cfg})
	ent.once.Do(func() {
		ent.stats, ent.err = e.compute(ti, cfg)
	})
	return ent.stats, ent.err
}

// compute performs one uncached simulation.
func (e *Env) compute(ti int, cfg cache.Config) (cache.Stats, error) {
	e.computes.Add(1)
	c, err := cache.New(cfg)
	if err != nil {
		return cache.Stats{}, fmt.Errorf("experiments: %s on %s: %w", cfg, e.Traces[ti].Name, err)
	}
	c.AccessTrace(e.Traces[ti])
	c.Flush()
	return c.Stats(), nil
}

// store seeds the memo with an externally computed result (the gang
// precompute path). If the key was already computed the existing value
// wins; gang and sequential results are bit-identical, so the outcome
// is the same either way.
func (e *Env) store(k memoKey, s cache.Stats) {
	ent := e.entry(k)
	ent.once.Do(func() { ent.stats = s })
}

// Computes reports how many simulations the environment has actually
// run (memo misses). Tests use it to assert compute-once semantics.
func (e *Env) Computes() uint64 { return e.computes.Load() }

// stdConfig returns the baseline write-back fetch-on-write cache used
// throughout §3 and §5.
func stdConfig(size, lineSize int) cache.Config {
	return cache.Config{
		Size: size, LineSize: lineSize, Assoc: 1,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite,
	}
}

// SweepConfigs enumerates every cache configuration the paper figures
// consult: the capacity sweep at 16B lines and the line-size sweep at
// 8KB, each under all four write-miss policies (no-allocate policies
// paired with write-through, as in §4).
func SweepConfigs() []cache.Config {
	var cfgs []cache.Config
	add := func(size, line int) {
		for _, p := range cache.WriteMissPolicies() {
			cfg := stdConfig(size, line)
			cfg.WriteMiss = p
			if p == cache.WriteAround || p == cache.WriteInvalidate {
				cfg.WriteHit = cache.WriteThrough
			}
			cfgs = append(cfgs, cfg)
		}
	}
	for _, size := range CacheSizes {
		add(size, StdLineSize)
	}
	for _, line := range LineSizes {
		if line != StdLineSize {
			add(StdCacheSize, line)
		}
	}
	return cfgs
}

// PrecomputeSweep warms the simulation memo for the full figure sweep,
// turning the figure runners into pure lookups. It is safe to skip:
// every runner computes what it needs on demand. The sweep is run by
// the gang engine — each trace's event slice is streamed once for a
// whole shard of configurations — on a bounded worker pool
// (opt.Workers < 1 means GOMAXPROCS) that abandons remaining work on
// the first error or cancellation. A non-empty opt.Checkpoint makes
// the sweep crash-safe (completed units are journaled and a re-run
// resumes instead of recomputing), opt.SoftDeadline arms the worker
// watchdog, and opt.Retries bounds re-attempts of failed units.
// paperfigs uses this to survive SIGKILL mid-sweep.
func (e *Env) PrecomputeSweep(ctx context.Context, opt sweep.Options) error {
	cfgs := SweepConfigs()
	var units []sweep.Unit
	for ti, t := range e.Traces {
		units = append(units, sweep.Shard(ti, t, cfgs, opt.Shard)...)
	}
	return sweep.RunUnits(ctx, units, opt, func(u sweep.Unit, stats []cache.Stats) {
		for i, s := range stats {
			e.store(memoKey{u.TraceIndex, u.Cfgs[i]}, s)
		}
	})
}
