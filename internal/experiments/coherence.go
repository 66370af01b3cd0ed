package experiments

import (
	"fmt"
	"sort"
	"sync"

	"cachewrite/internal/cache"
	"cachewrite/internal/coherence"
	"cachewrite/internal/fanout"
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

// cohRun is one coherent simulation's output: the summed per-core L1
// counters plus the system-level coherence/traffic counters (only the
// traffic ones for the shared baseline).
type cohRun struct {
	l1  cache.Stats
	sys coherence.Stats
}

// cohKey identifies one coherent simulation: a trace replicated across
// a sharing degree, under one L1 write-miss policy and one coherence
// scheme. The Env simulates each key once, so ext-coh-traffic reads the
// runs ext-coh-miss made and ext-coh-schemes adds only the schemes the
// sweeps do not run, plus its baseline.
type cohKey struct {
	ti     int
	cores  int
	policy cache.WriteMissPolicy
	scheme coherence.Scheme
	// shared replaces the private L1s and their protocol (scheme is
	// ignored) with one L1 that sees the whole merged schedule: the
	// no-coherence baseline.
	shared bool
}

// cohDense returns trace ti region-compacted and cut to its first
// cohMaxEvents events, computed once per trace. The paper traces have
// sparse footprints (yacc touches superblocks near 0x0, 0x10000000 and
// 0x7f000000, spanning 2GB), so no window stride could keep their raw
// images disjoint; compacting occupied 16MB superblocks first (cache
// index/offset bits untouched) shrinks every footprint below 64MB and
// the default 128MB stride fits all degrees.
func (e *Env) cohDense(ti int) (*trace.Trace, error) {
	return e.dense.get(ti, func() (*trace.Trace, error) {
		e.compactions.Add(1)
		t := e.Traces[ti]
		// Only the prefix is written, but its slots are ranked among
		// every superblock the whole trace touches: one first touched
		// after the prefix can still shift the slots (and with them
		// the shared-granule choices) of the prefix.
		dense, err := trace.CompactRegionsPrefix(t, 24, min(t.Len(), cohMaxEvents))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", t.Name, err)
		}
		return dense, nil
	})
}

// cohWorkload builds the N-core workload of trace ti from its dense
// prefix.
func (e *Env) cohWorkload(ti, cores int) (*coherence.Workload, error) {
	dense, err := e.cohDense(ti)
	if err != nil {
		return nil, err
	}
	e.workloads.Add(1)
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
// policy and coherence scheme. The shared L2 the experiment titles name
// is not simulated: nothing flows back from it into an L1, and no
// printed number reads its counters.
func cohSimulate(name string, w *coherence.Workload, k cohKey) (cohRun, error) {
	l1 := policyConfig(StdCacheSize, StdLineSize, k.policy)
	if k.shared {
		h, err := hierarchy.New(hierarchy.Config{L1: l1})
		if err != nil {
			return cohRun{}, fmt.Errorf("experiments: %s x%d baseline: %w", name, k.cores, err)
		}
		w.Each(func(_ int, e trace.Event) { h.Access(e) })
		h.Flush()
		return cohRun{l1: h.L1().Stats(), sys: coherence.Stats{Traffic: h.Stats().Traffic}}, nil
	}
	sys, err := coherence.New(coherence.Config{Cores: k.cores, L1: l1, Scheme: k.scheme})
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
	_, _ = fanout.Run(len(groups), func(i int) (struct{}, error) {
		e.cohGroupRun(groups[i])
		return struct{}{}, nil
	})

	runs := make(map[cohKey]cohRun, len(keys))
	for _, k := range keys {
		// Every key was computed in a job, which fanout.Run orders
		// before these reads, so no workload is built here.
		r, err := e.cohRun(k, func() (*coherence.Workload, error) { return e.cohWorkload(k.ti, k.cores) })
		if err != nil {
			return nil, err
		}
		runs[k] = r
	}
	return runs, nil
}

// cohGroupRun computes g's missing keys on one shared workload, built
// only if a key is missing. A workload error is memoized for every key
// that needed it. Callers racing on the same (trace, cores) take turns,
// so the second finds the first's keys done and builds no second
// workload for them.
func (e *Env) cohGroupRun(g *cohGroup) {
	v, _ := e.cohGroups.LoadOrStore([2]int{g.ti, g.cores}, new(sync.Mutex))
	mu := v.(*sync.Mutex)
	mu.Lock()
	defer mu.Unlock()
	var (
		w     *coherence.Workload
		err   error
		built bool
	)
	workload := func() (*coherence.Workload, error) {
		if !built {
			w, err = e.cohWorkload(g.ti, g.cores)
			built = true
		}
		return w, err
	}
	for _, k := range g.keys {
		e.cohRun(k, workload)
	}
}

// cohRun returns k's run, simulating it on the workload that workload
// returns if it is missing.
func (e *Env) cohRun(k cohKey, workload func() (*coherence.Workload, error)) (cohRun, error) {
	return e.coh.get(k, func() (cohRun, error) {
		w, err := workload()
		if err != nil {
			return cohRun{}, err
		}
		e.simulations.Add(1)
		return cohSimulate(e.Traces[k.ti].Name, w, k)
	})
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
	// Baseline: the identical reference schedule through one shared
	// cache — what coherence overhead is measured against. It shares
	// its trace's 4-core workload with the scheme runs.
	baseKey := func(ti int) cohKey {
		return cohKey{ti: ti, cores: cores, policy: cache.FetchOnWrite, shared: true}
	}
	var keys []cohKey
	for ti := range e.Traces {
		for _, scheme := range coherence.Schemes() {
			keys = append(keys, key(ti, scheme))
		}
		keys = append(keys, baseKey(ti))
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
		b := runs[baseKey(ti)]
		k := float64(b.l1.Refs()) / 1000
		tbl.AddRow(t.Name, "shared-L1 (no coherence)",
			stats.FmtPct(b.l1.MissRate()), "-", "-", "-",
			fmt.Sprintf("%.1f", float64(b.sys.L1ToL2Bytes)/k))
	}
	return Result{Table: tbl}, nil
}
