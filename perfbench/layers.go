package main

import (
	"fmt"
	"time"

	"cachewrite/internal/cache"
	"cachewrite/internal/coherence"
	"cachewrite/internal/trace"
)

// Per-layer pass sizes: each trace is cut to its first layerEvents
// events (the serve job mix's own cap) and decoded in windows of
// batchWindow events, the gang engine's window.
const (
	layerEvents = 100_000
	batchWindow = 8192
)

// The ext-coh grid the coherence pass measures: four cores (the
// ext-coh-schemes sharing degree) with the experiments' sharing,
// stagger, per-core prefix and L2 geometry.
const (
	cohCores          = 4
	cohSharedFraction = 0.25
	cohStagger        = 2500
	cohMaxEvents      = 100_000
	cohCompactBits    = 24
)

func cohL2() cache.Config {
	return cache.Config{Size: 64 << 10, LineSize: 64, Assoc: 4,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
}

// cohL1 is the coherence experiments' private L1: 8KB/16B
// direct-mapped under policy p, the no-allocate policies paired with
// write-through.
func cohL1(p cache.WriteMissPolicy) cache.Config {
	cfg := cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1, WriteHit: cache.WriteBack, WriteMiss: p}
	if p == cache.WriteAround || p == cache.WriteInvalidate {
		cfg.WriteHit = cache.WriteThrough
	}
	return cfg
}

// cohL1Configs is cohL1 under every write-miss policy.
func cohL1Configs() []cache.Config {
	var cfgs []cache.Config
	for _, p := range cache.WriteMissPolicies() {
		cfgs = append(cfgs, cohL1(p))
	}
	return cfgs
}

// timed runs fn inside a span and returns its duration; with a nil
// recorder it still times fn.
func timed(rec *Recorder, name string, parent int, fn func()) time.Duration {
	id := rec.Start(name, parent, mainRun)
	start := time.Now()
	fn()
	d := time.Since(start)
	rec.End(id)
	return d
}

func prefix(t *trace.Trace, n int) *trace.Trace {
	if t.Len() > n {
		return t.Slice(0, n)
	}
	return t
}

// cachePass measures the direct-mapped batch kernel and the per-event
// Access path on the workload's own traces and configurations, the
// way the gang engine drives them: per window, one DecodeBatch per
// geometry, then AccessBatch on every cache of that geometry. The
// batch and per-event paths must produce identical statistics.
func cachePass(rec *Recorder, root int, out *outcome, ts []*trace.Trace, all []cache.Config) error {
	var cfgs []cache.Config
	for _, c := range all {
		if c.Assoc == 1 {
			cfgs = append(cfgs, c)
		}
	}
	pass := rec.Start("bench.cache_pass", root, mainRun)
	defer rec.End(pass)
	var (
		decodeT, kernelT, accessT          time.Duration
		decoded, cfgEvents, accessedEvents float64
	)
	dec := make([]cache.Decoded, batchWindow)
	for _, full := range ts {
		t := prefix(full, layerEvents)
		batch := make([]*cache.Cache, len(cfgs))
		for i, cfg := range cfgs {
			c, err := cache.New(cfg)
			if err != nil {
				return fmt.Errorf("cache pass: %w", err)
			}
			batch[i] = c
		}
		groups := groupByGeometry(batch)
		for lo := 0; lo < t.Len(); lo += batchWindow {
			window := t.Events[lo:min(lo+batchWindow, t.Len())]
			for _, g := range groups {
				decodeT += timed(rec, "cache.DecodeBatch", pass, func() { g[0].DecodeBatch(window, dec) })
				kernelT += timed(rec, "cache.AccessBatch", pass, func() {
					for _, c := range g {
						c.AccessBatch(window, dec)
					}
				})
				decoded += float64(len(window))
				cfgEvents += float64(len(window) * len(g))
			}
		}
		for i, cfg := range cfgs {
			c, err := cache.New(cfg)
			if err != nil {
				return fmt.Errorf("cache pass: %w", err)
			}
			accessT += timed(rec, "cache.Access", pass, func() {
				for _, e := range t.Events {
					c.Access(e)
				}
			})
			accessedEvents += float64(t.Len())
			if c.Stats() != batch[i].Stats() {
				out.fail(1, "cache pass: %s on %s: batch and per-event statistics differ", cfg, t.Name)
			}
			out.attempted++
		}
	}
	out.metrics["cache.decode_ns_per_event"] = float64(decodeT) / decoded
	out.metrics["cache.kernel_direct_ns_per_cfg_event"] = float64(kernelT) / cfgEvents
	out.metrics["cache.access_ns_per_event"] = float64(accessT) / accessedEvents
	return nil
}

// groupByGeometry buckets caches by cache.Geometry so each window is
// decoded once per geometry, as the sweep engine does.
func groupByGeometry(caches []*cache.Cache) [][]*cache.Cache {
	var groups [][]*cache.Cache
	index := map[uint64]int{}
	for _, c := range caches {
		key := c.Geometry()
		i, ok := index[key]
		if !ok {
			i = len(groups)
			index[key] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], c)
	}
	return groups
}

// coherencePass times each stage of one coherent simulation on every
// trace: region compaction, N-core workload construction, the merged
// schedule, and per scheme the system's construction, replay and
// flush. The replay of the same workload under every scheme must see
// the same number of references.
func coherencePass(rec *Recorder, root int, out *outcome, ts []*trace.Trace) error {
	pass := rec.Start("bench.coherence_pass", root, mainRun)
	defer rec.End(pass)
	var (
		compactT, interleaveT, buildT time.Duration
		calls                         int
		runT                          = map[coherence.Scheme]time.Duration{}
		coreEvents                    = map[coherence.Scheme]float64{}
		fow                           = cohL1(cache.FetchOnWrite)
	)
	for _, t := range ts {
		var (
			dense *trace.Trace
			w     *coherence.Workload
			err   error
		)
		compactT += timed(rec, "trace.CompactRegions", pass, func() { dense, err = trace.CompactRegions(t, cohCompactBits) })
		calls++
		if err != nil {
			return fmt.Errorf("coherence pass: %s: %w", t.Name, err)
		}
		buildT += timed(rec, "coherence.BuildWorkload", pass, func() {
			w, err = coherence.BuildWorkload(dense, coherence.WorkloadConfig{
				Cores: cohCores, SharedFraction: cohSharedFraction,
				Stagger: cohStagger, MaxEventsPerCore: cohMaxEvents,
			})
		})
		if err != nil {
			return fmt.Errorf("coherence pass: %s: %w", t.Name, err)
		}
		var merged *trace.Trace
		interleaveT += timed(rec, "trace.InterleaveOffset", pass, func() {
			merged, _ = trace.InterleaveOffset(w.Name, w.Offsets, w.PerCore...)
		})
		events := 0
		for _, pc := range w.PerCore {
			events += pc.Len()
		}
		if merged.Len() != events {
			out.fail(1, "coherence pass: %s: merged schedule has %d events, cores have %d", t.Name, merged.Len(), events)
		}
		l2 := cohL2()
		for _, scheme := range coherence.Schemes() {
			var sys *coherence.System
			buildT += timed(rec, "coherence.New", pass, func() {
				sys, err = coherence.New(coherence.Config{Cores: cohCores, L1: fow, L2: &l2, Scheme: scheme})
			})
			if err != nil {
				return fmt.Errorf("coherence pass: %s: %w", t.Name, err)
			}
			runT[scheme] += timed(rec, "coherence.Run."+scheme.String(), pass, func() { err = sys.Run(w) })
			if err != nil {
				return fmt.Errorf("coherence pass: %s %s: %w", t.Name, scheme, err)
			}
			runT[scheme] += timed(rec, "coherence.Flush", pass, sys.Flush)
			coreEvents[scheme] += float64(events)
			if refs := sys.AggregateL1().Refs(); refs != uint64(events) {
				out.fail(1, "coherence pass: %s %s: L1s saw %d references, workload has %d", t.Name, scheme, refs, events)
			}
			out.attempted++
		}
	}
	out.metrics["trace.compact_s"] = compactT.Seconds()
	out.metrics["trace.compact_calls"] = float64(calls)
	out.metrics["trace.interleave_s"] = interleaveT.Seconds()
	out.metrics["coherence.build_s"] = buildT.Seconds()
	for _, s := range coherence.Schemes() {
		out.metrics["coherence.run_ns_per_core_event."+s.String()] = float64(runT[s]) / coreEvents[s]
	}
	return nil
}
