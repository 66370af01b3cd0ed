// Package core is the public façade of the cachewrite library: one
// import that surfaces the paper's contribution — the write-hit /
// write-miss policy taxonomy, the write cache, and the measurement
// machinery — as a small API over the underlying subsystem packages.
//
// Typical use:
//
//	t, _ := workload.Generate("ccom", 1)
//	res, _ := core.Run(core.Config{L1: cache.Config{
//	    Size: 8192, LineSize: 16, Assoc: 1,
//	    WriteHit: cache.WriteBack, WriteMiss: cache.WriteValidate,
//	}}, t)
//	fmt.Println(res.L1.MissRate())
//
// or, for the paper's headline comparison:
//
//	cmp, _ := core.ComparePolicies(baseCfg, t)
//	fmt.Println(cmp.TotalMissReduction(cache.WriteValidate))
//
// LoadConfig reads the same configuration from a JSON document (the
// cachesim -config format). Its policy names go through
// cache.ParseWriteHit, cache.ParseWriteMiss and cache.ParseReplacement,
// the parsers every command shares.
package core

import (
	"fmt"

	"cachewrite/internal/cache"
	"cachewrite/internal/hierarchy"
	"cachewrite/internal/trace"
)

// Config is the simulated memory system configuration; it aliases
// hierarchy.Config so the façade and the subsystem speak the same
// language.
type Config = hierarchy.Config

// Result bundles everything one simulation produces.
type Result struct {
	// Trace summarises the input reference stream.
	Trace trace.Stats
	// L1 holds the first-level cache counters (the paper's primary
	// subject).
	L1 cache.Stats
	// L2 holds the second-level counters when an L2 was configured.
	L2 cache.Stats
	// Hierarchy holds the between-level traffic counters.
	Hierarchy hierarchy.Stats
}

// Run simulates the trace through the configured hierarchy, flushes
// dirty state (flush-stop accounting; cold-stop numbers remain
// available in the non-Flush counters), and returns all statistics.
func Run(cfg Config, t *trace.Trace) (Result, error) {
	h, err := hierarchy.New(cfg)
	if err != nil {
		return Result{}, err
	}
	h.AccessTrace(t)
	h.Flush()
	res := Result{
		Trace:     t.Stats(),
		L1:        h.L1().Stats(),
		Hierarchy: h.Stats(),
	}
	if h.L2() != nil {
		res.L2 = h.L2().Stats()
	}
	return res, nil
}

// PolicyComparison holds the four write-miss policies' results on one
// trace and one base cache geometry — the paper's §4 experiment.
type PolicyComparison struct {
	// Base is the shared geometry; its WriteMiss field is ignored.
	Base cache.Config
	// ByPolicy maps each policy to its L1 statistics.
	ByPolicy map[cache.WriteMissPolicy]cache.Stats
}

// ComparePolicies runs the trace under all four write-miss policies
// with the given geometry and write-hit policy.
func ComparePolicies(base cache.Config, t *trace.Trace) (PolicyComparison, error) {
	cmp := PolicyComparison{Base: base, ByPolicy: map[cache.WriteMissPolicy]cache.Stats{}}
	for _, p := range cache.WriteMissPolicies() {
		cfg := base
		cfg.WriteMiss = p
		c, err := cache.New(cfg)
		if err != nil {
			return PolicyComparison{}, fmt.Errorf("core: policy %s: %w", p, err)
		}
		c.AccessTrace(t)
		c.Flush()
		cmp.ByPolicy[p] = c.Stats()
	}
	return cmp, nil
}

// TotalMissReduction returns the paper's Figs 14/16 metric: the
// reduction in all fetch-triggering misses relative to fetch-on-write,
// as a fraction of fetch-on-write's total misses.
func (c PolicyComparison) TotalMissReduction(p cache.WriteMissPolicy) float64 {
	fow := c.ByPolicy[cache.FetchOnWrite]
	if fow.Misses() == 0 {
		return 0
	}
	saved := float64(fow.Misses()) - float64(c.ByPolicy[p].Misses())
	return saved / float64(fow.Misses())
}
