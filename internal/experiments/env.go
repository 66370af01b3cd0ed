// Package experiments contains one runner per figure and table of the
// paper's evaluation. Each runner takes an Env (the six benchmark
// traces plus the simulations the figures share) and produces a
// stats.Chart or stats.Table whose series correspond one-to-one with
// the paper's plot. The Env keeps each shared result in a memo, one
// generic compute-once map per kind of result: cache statistics per
// (trace, config), recorded L1 passes, Fig 5's write-buffer runs,
// write-cache curves, dense trace prefixes and coherent runs.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"cachewrite/internal/cache"
	"cachewrite/internal/reuse"
	"cachewrite/internal/sweep"
	"cachewrite/internal/trace"
	"cachewrite/internal/workload"
	"cachewrite/internal/writebuffer"
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

// memo computes each key's value once, however many callers race on
// it, and remembers an error as it would a value. The lock guards only
// the map, never a computation: callers of one key wait on its cell's
// once gate while callers of other keys go on.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoCell[V]
}

// memoCell is one key's value or error, set once under its gate.
type memoCell[V any] struct {
	once sync.Once
	v    V
	err  error
}

// cell returns k's cell, creating the map and the cell if needed.
func (m *memo[K, V]) cell(k K) *memoCell[V] {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.m == nil {
		m.m = make(map[K]*memoCell[V])
	}
	c := m.m[k]
	if c == nil {
		c = new(memoCell[V])
		m.m[k] = c
	}
	return c
}

// get returns k's value, running compute for it if no caller has.
func (m *memo[K, V]) get(k K, compute func() (V, error)) (V, error) {
	c := m.cell(k)
	c.once.Do(func() { c.v, c.err = compute() })
	return c.v, c.err
}

// put stores v for k unless k already has a value, set or computed,
// which then wins.
func (m *memo[K, V]) put(k K, v V) {
	c := m.cell(k)
	c.once.Do(func() { c.v = v })
}

// Env holds the benchmark traces and memoizes the simulations the
// figures share, so each is paid for once however many figures race on
// it. The counters beside the memos count the work actually done, for
// the compute-once tests.
type Env struct {
	Traces []*trace.Trace

	stats  memo[memoKey, cache.Stats]
	logs   memo[memoKey, *cache.Log]
	bufs   memo[bufKey, writebuffer.Stats]
	curves memo[curveKey, *reuse.Curve]
	dense  memo[int, *trace.Trace]
	coh    memo[cohKey, cohRun]

	computes       atomic.Uint64 // cache simulations (stats misses)
	recordings     atomic.Uint64 // L1 passes recorded
	bufferRuns     atomic.Uint64 // write-buffer runs
	curvesComputed atomic.Uint64 // write-cache curves
	compactions    atomic.Uint64 // CompactRegions calls
	simulations    atomic.Uint64 // coherent runs
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

// CacheStats runs trace index ti through the configuration (with a
// final flush) and memoizes the result. Concurrent callers asking for
// the same key compute it exactly once; callers with different keys
// never serialize on each other's simulations.
func (e *Env) CacheStats(ti int, cfg cache.Config) (cache.Stats, error) {
	return e.stats.get(memoKey{ti, cfg}, func() (cache.Stats, error) {
		e.computes.Add(1)
		c, err := cache.New(cfg)
		if err != nil {
			return cache.Stats{}, fmt.Errorf("experiments: %s on %s: %w", cfg, e.Traces[ti].Name, err)
		}
		c.AccessEvents(e.Traces[ti].Events)
		c.Flush()
		return c.Stats(), nil
	})
}

// l1Log returns the recorded pass of trace ti through cfg, then a
// flush (see cache.Log), recording it on first use. The extension ids
// that put a model behind the standard L1 (ext-cpi, ext-burst,
// ext-victim, ext-perf, ext-l2policy) replay these logs instead of
// simulating the L1 again. The recording's flushed statistics also
// answer CacheStats for the key.
func (e *Env) l1Log(ti int, cfg cache.Config) (*cache.Log, error) {
	return e.logs.get(memoKey{ti, cfg}, func() (*cache.Log, error) {
		e.recordings.Add(1)
		log, err := cache.NewLog(cfg, e.Traces[ti])
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on %s: %w", cfg, e.Traces[ti].Name, err)
		}
		e.stats.put(memoKey{ti, cfg}, log.FlushedStats())
		return log, nil
	})
}

// bufKey identifies one write-buffer run: a trace at a retire interval.
type bufKey struct{ ti, interval int }

// bufferRun returns Fig 5's coalescing write buffer, 8 entries of 16B
// retiring one entry every interval cycles, run on trace ti. ext-cpi
// reads Fig 5's interval-8 runs from here.
func (e *Env) bufferRun(ti, interval int) (writebuffer.Stats, error) {
	return e.bufs.get(bufKey{ti, interval}, func() (writebuffer.Stats, error) {
		e.bufferRuns.Add(1)
		b, err := writebuffer.New(writebuffer.Config{Entries: 8, LineSize: 16, RetireInterval: interval})
		if err != nil {
			return writebuffer.Stats{}, err
		}
		b.Run(e.Traces[ti])
		return b.Stats(), nil
	})
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
// resumes instead of recomputing) and opt.SoftDeadline arms the worker
// watchdog.
// paperfigs uses this to survive SIGKILL mid-sweep.
func (e *Env) PrecomputeSweep(ctx context.Context, opt sweep.Options) error {
	cfgs := SweepConfigs()
	var units []sweep.Unit
	for ti, t := range e.Traces {
		units = append(units, sweep.Shard(ti, t, cfgs)...)
	}
	return sweep.RunUnits(ctx, units, opt, func(u sweep.Unit, stats []cache.Stats) {
		for i, s := range stats {
			e.stats.put(memoKey{u.TraceIndex, u.Cfgs[i]}, s)
		}
	})
}
