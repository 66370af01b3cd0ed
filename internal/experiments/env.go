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

// memoEntry is one simulation result. The once gate gives exact
// compute-once semantics under concurrent CacheStats calls for the
// same key without holding the memo lock during the simulation.
type memoEntry struct {
	once  sync.Once
	stats cache.Stats
	err   error
}

// logEntry is one recorded L1 pass, gated like memoEntry.
type logEntry struct {
	once sync.Once
	log  *cache.Log
	err  error
}

// Env holds the benchmark traces and memoizes cache simulations so the
// many figures sharing a configuration pay for it once. One mutex
// guards the memo map and the log map, held only for the lookup, never
// for a simulation; each key is computed exactly once even when raced.
// The multi-core experiments and the write-cache curves keep their own
// memos beside it (see cohMemo and curveMemo), built the same way.
type Env struct {
	Traces []*trace.Trace

	mu         sync.Mutex
	memo       map[memoKey]*memoEntry
	computes   atomic.Uint64
	logs       map[memoKey]*logEntry
	recordings atomic.Uint64
	coh        cohMemo
	curves     curveMemo
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

// entry returns the memo entry for k, creating it if needed.
func (e *Env) entry(k memoKey) *memoEntry {
	return lazyEntry(&e.mu, &e.memo, k)
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

// l1Log returns the recorded pass of trace ti through cfg, then a
// flush (see cache.Log), recording it on first use. The extension ids
// that put a model behind the standard L1 (ext-cpi, ext-burst,
// ext-victim, ext-perf, ext-l2policy) replay these logs instead of
// simulating the L1 again. Like CacheStats, concurrent callers for one
// key record it once. The recording's flushed statistics also answer
// CacheStats for the key.
func (e *Env) l1Log(ti int, cfg cache.Config) (*cache.Log, error) {
	ent := lazyEntry(&e.mu, &e.logs, memoKey{ti, cfg})
	ent.once.Do(func() {
		e.recordings.Add(1)
		ent.log, ent.err = cache.NewLog(cfg, e.Traces[ti])
		if ent.err != nil {
			ent.err = fmt.Errorf("experiments: %s on %s: %w", cfg, e.Traces[ti].Name, ent.err)
			return
		}
		e.store(memoKey{ti, cfg}, ent.log.FlushedStats())
	})
	return ent.log, ent.err
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

// policyConfig is stdConfig under write-miss policy p, run with the
// write-hit policy §4 pairs with it.
func policyConfig(size, lineSize int, p cache.WriteMissPolicy) cache.Config {
	cfg := stdConfig(size, lineSize)
	cfg.WriteMiss = p
	cfg.WriteHit = p.PairedWriteHit()
	return cfg
}

// geom is one (capacity, line size) point of the paper's sweeps.
type geom struct{ size, line int }

// sweepGeoms enumerates the geometries the paper figures sweep: the
// capacity sweep at 16B lines, then the line-size sweep at 8KB.
func sweepGeoms() []geom {
	var geoms []geom
	for _, size := range CacheSizes {
		geoms = append(geoms, geom{size, StdLineSize})
	}
	for _, line := range LineSizes {
		if line != StdLineSize {
			geoms = append(geoms, geom{StdCacheSize, line})
		}
	}
	return geoms
}

// SweepConfigs enumerates every cache configuration the paper figures
// consult: every sweep geometry under all four write-miss policies
// (see policyConfig).
func SweepConfigs() []cache.Config {
	var cfgs []cache.Config
	for _, g := range sweepGeoms() {
		for _, p := range cache.WriteMissPolicies() {
			cfgs = append(cfgs, policyConfig(g.size, g.line, p))
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
		units = append(units, sweep.Shard(ti, t, cfgs)...)
	}
	return sweep.RunUnits(ctx, units, opt, func(u sweep.Unit, stats []cache.Stats) {
		for i, s := range stats {
			e.store(memoKey{u.TraceIndex, u.Cfgs[i]}, s)
		}
	})
}
