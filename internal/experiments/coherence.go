package experiments

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"cachewrite/internal/cache"
	"cachewrite/internal/coherence"
	"cachewrite/internal/hierarchy"
	"cachewrite/internal/stats"
	"cachewrite/internal/trace"
)

func init() {
	register("ext-coh-miss", "EXTENSION: multi-core miss rate vs sharing degree per write-miss policy (MSI snooping, shared L2)", 400, extCohMiss)
	register("ext-coh-traffic", "EXTENSION: L1-side bus traffic vs sharing degree per write-miss policy (MSI snooping, shared L2)", 410, extCohTraffic)
	register("ext-coh-schemes", "EXTENSION: invalidate vs update vs competitive-hybrid coherence at 4 cores", 420, extCohSchemes)
}

// Coherence sweep parameters: each benchmark is replicated across the
// sharing degree with a quarter of its 64B address granules shared,
// cores staggered to break lockstep, and a prefix sample per core to
// bound simulation cost (each added core multiplies both the event
// count and the snoop work).
const (
	cohSharedFraction = 0.25
	cohStagger        = 2500
	cohMaxEvents      = 100000
)

// cohDegrees is the sharing-degree sweep: 1 core (the paper's world)
// through 8 cores contending on the shared granules.
var cohDegrees = []int{1, 2, 4, 8}

// cohL2 is the shared second level behind the snooping bus, matching
// the ext-l2policy geometry.
func cohL2() cache.Config {
	return cache.Config{Size: 64 << 10, LineSize: 64, Assoc: 4,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
}

// cohRun is one coherent simulation's output: the summed per-core L1
// counters plus the system-level coherence/traffic counters.
type cohRun struct {
	l1  cache.Stats
	sys coherence.Stats
}

// cohKey identifies one coherent simulation: a trace replicated across
// a sharing degree, under one L1 write-miss policy and one coherence
// scheme.
type cohKey struct {
	ti     int
	cores  int
	policy cache.WriteMissPolicy
	scheme coherence.Scheme
}

// cohEntry is one memoized coherent run; like memoEntry, the once gate
// computes it exactly once however many callers race on the key.
type cohEntry struct {
	once sync.Once
	run  cohRun
	err  error
}

// densePrefix is one trace's compacted prefix (see Env.cohDense).
type densePrefix struct {
	once  sync.Once
	trace *trace.Trace
	err   error
}

// cohMemo memoizes the ext-coh-* work on an Env: each trace is
// compacted once, and each cohKey is simulated once, so ext-coh-traffic
// reads the runs ext-coh-miss made and ext-coh-schemes adds only the
// schemes the sweeps do not run. The lock guards only the maps, never
// a computation.
type cohMemo struct {
	mu    sync.Mutex
	dense map[int]*densePrefix
	runs  map[cohKey]*cohEntry

	compactions atomic.Uint64 // CompactRegions calls, for the compute-once tests
	simulations atomic.Uint64 // coherent runs, for the compute-once tests
}

func (m *cohMemo) prefix(ti int) *densePrefix { return lazyEntry(&m.mu, &m.dense, ti) }
func (m *cohMemo) entry(k cohKey) *cohEntry   { return lazyEntry(&m.mu, &m.runs, k) }

// cohDense returns trace ti region-compacted and cut to its first
// cohMaxEvents events, computed once per trace. The paper traces have
// sparse footprints (yacc touches superblocks near 0x0, 0x10000000 and
// 0x7f000000, spanning 2GB), so no window stride could keep their raw
// images disjoint; compacting occupied 16MB superblocks first (cache
// index/offset bits untouched) shrinks every footprint below 64MB and
// the default 128MB stride fits all degrees. The prefix is copied so
// the multi-megabyte compacted image can be collected.
func (e *Env) cohDense(ti int) (*trace.Trace, error) {
	ent := e.coh.prefix(ti)
	ent.once.Do(func() {
		e.coh.compactions.Add(1)
		t := e.Traces[ti]
		// Compact the full trace, never just the prefix: a superblock's
		// slot is its rank among every superblock the trace touches, so
		// one first touched after the prefix can still shift the slots
		// (and with them the shared-granule choices) of the prefix.
		dense, err := trace.CompactRegions(t, 24)
		if err != nil {
			ent.err = fmt.Errorf("experiments: %s: %w", t.Name, err)
			return
		}
		n := min(dense.Len(), cohMaxEvents)
		ent.trace = &trace.Trace{Name: t.Name, Events: slices.Clone(dense.Events[:n])}
	})
	return ent.trace, ent.err
}

// cohWorkload builds the N-core workload of trace ti from its dense
// prefix.
func (e *Env) cohWorkload(ti, cores int) (*coherence.Workload, error) {
	dense, err := e.cohDense(ti)
	if err != nil {
		return nil, err
	}
	w, err := coherence.BuildWorkload(dense, coherence.WorkloadConfig{
		Cores:          cores,
		SharedFraction: cohSharedFraction,
		Stagger:        cohStagger,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s x%d: %w", dense.Name, cores, err)
	}
	return w, nil
}

// cohSimulate replays trace name's workload w under k's write-miss
// policy and coherence scheme.
func cohSimulate(name string, w *coherence.Workload, k cohKey) (cohRun, error) {
	l2 := cohL2()
	sys, err := coherence.New(coherence.Config{Cores: k.cores, L1: policyConfig(StdCacheSize, StdLineSize, k.policy), L2: &l2, Scheme: k.scheme})
	if err != nil {
		return cohRun{}, fmt.Errorf("experiments: %s x%d: %w", name, k.cores, err)
	}
	if err := sys.Run(w); err != nil {
		return cohRun{}, err
	}
	sys.Flush()
	return cohRun{l1: sys.AggregateL1(), sys: sys.Stats()}, nil
}

// cohGroup is the keys sharing one (trace, cores) workload.
type cohGroup struct {
	ti, cores int
	keys      []cohKey
}

// cohRuns returns the run of every key. Keys are grouped by (trace,
// cores) and the groups fanned out over GOMAXPROCS workers, largest
// sharing degree (the costliest replay) first; a group builds its
// workload only if one of its keys is still missing, simulates every
// missing key on it and drops it. Every key is computed once even when
// callers race, and the error returned is that of the first failing
// key in keys order, so it does not depend on scheduling.
func (e *Env) cohRuns(keys []cohKey) (map[cohKey]cohRun, error) {
	var groups []*cohGroup
	index := make(map[[2]int]*cohGroup)
	for _, k := range keys {
		gk := [2]int{k.ti, k.cores}
		g := index[gk]
		if g == nil {
			g = &cohGroup{ti: k.ti, cores: k.cores}
			index[gk] = g
			groups = append(groups, g)
		}
		g.keys = append(g.keys, k)
	}
	sort.SliceStable(groups, func(i, j int) bool { return groups[i].cores > groups[j].cores })

	// Errors are memoized per key, not returned by the jobs, so that
	// the one reported follows keys order.
	_, _ = fanOut(len(groups), func(i int) (struct{}, error) {
		e.cohGroupRun(groups[i])
		return struct{}{}, nil
	})

	runs := make(map[cohKey]cohRun, len(keys))
	for _, k := range keys {
		// Every entry's once has returned in a job, which fanOut
		// orders before these reads.
		ent := e.coh.entry(k)
		if ent.err != nil {
			return nil, ent.err
		}
		runs[k] = ent.run
	}
	return runs, nil
}

// cohGroupRun computes g's missing keys on one shared workload. A
// workload error is memoized for every key that needed it.
func (e *Env) cohGroupRun(g *cohGroup) {
	var (
		w     *coherence.Workload
		werr  error
		built bool
	)
	for _, k := range g.keys {
		ent := e.coh.entry(k)
		ent.once.Do(func() {
			if !built {
				w, werr = e.cohWorkload(g.ti, g.cores)
				built = true
			}
			if werr != nil {
				ent.err = werr
				return
			}
			e.coh.simulations.Add(1)
			ent.run, ent.err = cohSimulate(e.Traces[g.ti].Name, w, k)
		})
	}
}

// cohSweepChart renders one metric of the sharing-degree sweep (MSI
// snooping) as a chart in the paper's per-benchmark + average style.
func cohSweepChart(e *Env, id, title, ylabel string, metric func(cohRun) float64) (Result, error) {
	key := func(ti int, p cache.WriteMissPolicy, cores int) cohKey {
		return cohKey{ti: ti, cores: cores, policy: p, scheme: coherence.Invalidate}
	}
	var keys []cohKey
	for _, p := range cache.WriteMissPolicies() {
		for ti := range e.Traces {
			for _, cores := range cohDegrees {
				keys = append(keys, key(ti, p, cores))
			}
		}
	}
	runs, err := e.cohRuns(keys)
	if err != nil {
		return Result{}, err
	}
	chart := &stats.Chart{ID: id, Title: title,
		XLabel: "sharing degree (cores)", YLabel: ylabel, XScale: stats.Log2}
	for _, p := range cache.WriteMissPolicies() {
		var perBench []stats.Series
		for ti, t := range e.Traces {
			s := stats.Series{Label: fmt.Sprintf("%s/%s", t.Name, p)}
			for _, cores := range cohDegrees {
				s.Point(float64(cores), metric(runs[key(ti, p, cores)]))
			}
			perBench = append(perBench, s)
			chart.Add(s)
		}
		avg, err := stats.MeanSeries("average/"+p.String(), perBench)
		if err != nil {
			return Result{}, err
		}
		chart.Add(avg)
	}
	return Result{Chart: chart}, nil
}

// extCohMiss: aggregate L1 miss rate vs sharing degree. Sharing misses
// (lines lost to remote writes) push every policy's miss rate up with
// degree; the no-allocate policies additionally forgo the prefetch
// effect of fetch-on-write on shared granules.
func extCohMiss(e *Env) (Result, error) {
	return cohSweepChart(e, "ext-coh-miss",
		"BEYOND THE PAPER: multi-core miss rate vs sharing degree (8KB/16B private L1s, MSI snooping, 64KB shared L2, 25% shared granules)",
		"aggregate L1 miss rate (%)",
		func(r cohRun) float64 { return stats.Pct(r.l1.MissRate()) })
}

// extCohTraffic: L1-side bus bytes (fills, write-backs and coherence
// flushes, plus update broadcasts — zero under MSI) per 1000
// references vs sharing degree — the multi-core version of the paper's
// back-side traffic question.
func extCohTraffic(e *Env) (Result, error) {
	return cohSweepChart(e, "ext-coh-traffic",
		"BEYOND THE PAPER: L1-side bus traffic vs sharing degree (8KB/16B private L1s, MSI snooping, 64KB shared L2, 25% shared granules)",
		"bus bytes per 1000 references",
		func(r cohRun) float64 {
			if refs := r.l1.Refs(); refs > 0 {
				return float64(r.sys.BusBytes()) / float64(refs) * 1000
			}
			return 0
		})
}

// extCohSchemes compares the three coherence schemes at 4 cores (plus
// a no-coherence baseline: the same interleaved reference stream
// through one shared single-core hierarchy) under the standard
// write-back fetch-on-write policy.
func extCohSchemes(e *Env) (Result, error) {
	tbl := &stats.Table{ID: "ext-coh-schemes",
		Title: "Coherence schemes at 4 cores (8KB/16B WB+FOW private L1s, 64KB/64B shared L2, 25% shared granules; per 1000 references)",
		Columns: []string{"benchmark", "scheme", "miss rate", "sharing misses/1k",
			"invalidations/1k", "updates/1k", "bus bytes/1k"},
	}
	const cores = 4
	key := func(ti int, scheme coherence.Scheme) cohKey {
		return cohKey{ti: ti, cores: cores, policy: cache.FetchOnWrite, scheme: scheme}
	}
	var keys []cohKey
	for ti := range e.Traces {
		for _, scheme := range coherence.Schemes() {
			keys = append(keys, key(ti, scheme))
		}
	}
	runs, err := e.cohRuns(keys)
	if err != nil {
		return Result{}, err
	}
	for ti, t := range e.Traces {
		for _, scheme := range coherence.Schemes() {
			r := runs[key(ti, scheme)]
			k := float64(r.l1.Refs()) / 1000
			tbl.AddRow(t.Name, scheme.String(),
				stats.FmtPct(r.l1.MissRate()),
				fmt.Sprintf("%.2f", float64(r.sys.SharingMisses)/k),
				fmt.Sprintf("%.2f", float64(r.sys.InvalidationsReceived+r.sys.HybridInvalidations)/k),
				fmt.Sprintf("%.2f", float64(r.sys.UpdatesReceived)/k),
				fmt.Sprintf("%.1f", float64(r.sys.BusBytes())/k))
		}
		// Baseline: the identical reference schedule through one
		// shared cache — what coherence overhead is measured against.
		w, err := e.cohWorkload(ti, cores)
		if err != nil {
			return Result{}, err
		}
		merged, _ := w.Interleaved()
		l2 := cohL2()
		h, err := hierarchy.New(hierarchy.Config{L1: stdConfig(StdCacheSize, StdLineSize), L2: &l2})
		if err != nil {
			return Result{}, err
		}
		h.AccessTrace(merged)
		h.Flush()
		ls, hs := h.L1().Stats(), h.Stats()
		k := float64(ls.Refs()) / 1000
		tbl.AddRow(t.Name, "shared-L1 (no coherence)",
			stats.FmtPct(ls.MissRate()), "-", "-", "-",
			fmt.Sprintf("%.1f", float64(hs.L1ToL2Bytes)/k))
	}
	return Result{Table: tbl}, nil
}
