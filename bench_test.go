package cachewrite

// The benchmark harness: one testing.B benchmark per table and figure
// of the paper. Each iteration re-runs the experiment from scratch on a
// fresh memoization environment (the traces themselves are generated
// once and shared), so -bench output reflects genuine simulation cost.
//
//	go test -bench=. -benchmem
//
// The traces are truncated to a fixed prefix per benchmark so a full
// -bench=. sweep stays in the minutes range; cmd/paperfigs runs the
// untruncated experiments.

import (
	"sync"
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/experiments"
	"cachewrite/internal/trace"
	"cachewrite/internal/workload"
	"cachewrite/internal/writebuffer"
	"cachewrite/internal/writecache"
)

const benchEventCap = 250_000

var (
	benchOnce   sync.Once
	benchTraces []*trace.Trace
	benchErr    error
)

// benchEnvTraces generates the six paper traces once and truncates each
// to benchEventCap events. A generation failure is remembered and fails
// every benchmark that needs the traces instead of crashing the run.
func benchEnvTraces(b *testing.B) []*trace.Trace {
	b.Helper()
	benchOnce.Do(func() {
		ts, err := workload.GenerateAllCached("", 1)
		if err != nil {
			benchErr = err
			return
		}
		for i, t := range ts {
			if t.Len() > benchEventCap {
				ts[i] = t.Slice(0, benchEventCap)
			}
		}
		benchTraces = ts
	})
	if benchErr != nil {
		b.Fatalf("generating benchmark traces: %v", benchErr)
	}
	return benchTraces
}

// benchExperiment runs one figure/table experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	ts := benchEnvTraces(b)
	var refs uint64
	for _, t := range ts {
		refs += uint64(t.Len())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnvFromTraces(ts)
		if _, err := experiments.Run(env, id); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(refs), "trace-events")
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)  { benchExperiment(b, "fig20") }
func BenchmarkFig21(b *testing.B)  { benchExperiment(b, "fig21") }
func BenchmarkFig22(b *testing.B)  { benchExperiment(b, "fig22") }
func BenchmarkFig23(b *testing.B)  { benchExperiment(b, "fig23") }
func BenchmarkFig24(b *testing.B)  { benchExperiment(b, "fig24") }
func BenchmarkFig25(b *testing.B)  { benchExperiment(b, "fig25") }

// --- Ablation benchmarks for the design choices DESIGN.md calls out ---

// BenchmarkAblationAssociativity re-runs the Fig 14 headline point
// (8KB/16B, write-validate vs fetch-on-write) at associativities 1, 2
// and 4, reporting the total-miss reduction as a metric.
func BenchmarkAblationAssociativity(b *testing.B) {
	ts := benchEnvTraces(b)
	for _, assoc := range []int{1, 2, 4} {
		assoc := assoc
		b.Run(map[int]string{1: "direct", 2: "2way", 4: "4way"}[assoc], func(b *testing.B) {
			var reduction float64
			for i := 0; i < b.N; i++ {
				var fowMisses, wvMisses uint64
				for _, t := range ts {
					for _, p := range []cache.WriteMissPolicy{cache.FetchOnWrite, cache.WriteValidate} {
						c := cache.MustNew(cache.Config{Size: 8 << 10, LineSize: 16,
							Assoc: assoc, WriteHit: cache.WriteBack, WriteMiss: p})
						c.AccessTrace(t)
						if p == cache.FetchOnWrite {
							fowMisses += c.Stats().Misses()
						} else {
							wvMisses += c.Stats().Misses()
						}
					}
				}
				reduction = 1 - float64(wvMisses)/float64(fowMisses)
			}
			b.ReportMetric(100*reduction, "%miss-reduction")
		})
	}
}

// BenchmarkAblationSubblockWriteback compares whole-line vs
// dirty-bytes-only write-back traffic (the §5.2 question).
func BenchmarkAblationSubblockWriteback(b *testing.B) {
	ts := benchEnvTraces(b)
	for _, line := range []int{16, 32, 64} {
		line := line
		b.Run(map[int]string{16: "16B", 32: "32B", 64: "64B"}[line], func(b *testing.B) {
			var saved float64
			for i := 0; i < b.N; i++ {
				var full, dirty uint64
				for _, t := range ts {
					c := cache.MustNew(cache.Config{Size: 8 << 10, LineSize: line,
						Assoc: 1, WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite})
					c.AccessTrace(t)
					c.Flush()
					full += c.Stats().WritebackBytesFull
					dirty += c.Stats().WritebackBytesDirty
				}
				saved = 1 - float64(dirty)/float64(full)
			}
			b.ReportMetric(100*saved, "%wb-bytes-saved")
		})
	}
}

// BenchmarkAblationWriteCacheEviction compares the shipped LRU write
// cache against FIFO-like behaviour approximated by a 1-entry cache, at
// the paper's 5-entry size.
func BenchmarkAblationWriteCacheEviction(b *testing.B) {
	ts := benchEnvTraces(b)
	for _, entries := range []int{1, 5, 15} {
		entries := entries
		b.Run(map[int]string{1: "1entry", 5: "5entry", 15: "15entry"}[entries], func(b *testing.B) {
			var removed float64
			for i := 0; i < b.N; i++ {
				var sum float64
				for _, t := range ts {
					wc, err := writecache.New(writecache.Config{Entries: entries, LineSize: 8})
					if err != nil {
						b.Fatal(err)
					}
					wc.Run(t)
					sum += wc.Stats().RemovedFraction()
				}
				removed = sum / float64(len(ts))
			}
			b.ReportMetric(100*removed, "%writes-removed")
		})
	}
}

// --- Micro-benchmarks for the simulator itself ---

// BenchmarkCacheAccess measures raw simulation throughput.
func BenchmarkCacheAccess(b *testing.B) {
	ts := benchEnvTraces(b)
	t := ts[0]
	c := cache.MustNew(cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(t.Events[i%t.Len()])
	}
}

// BenchmarkWriteBufferRun measures the Fig 5 timing model.
func BenchmarkWriteBufferRun(b *testing.B) {
	ts := benchEnvTraces(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := writebuffer.New(writebuffer.Config{Entries: 8, LineSize: 16, RetireInterval: 16})
		if err != nil {
			b.Fatal(err)
		}
		buf.Run(ts[i%len(ts)])
	}
}

// BenchmarkWorkloadGen measures trace generation (the cheapest
// workload, liver).
func BenchmarkWorkloadGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate("liver", 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationReplacement compares LRU, FIFO and random
// replacement at 4-way associativity on the benchmark mix.
func BenchmarkAblationReplacement(b *testing.B) {
	ts := benchEnvTraces(b)
	for _, repl := range []cache.Replacement{cache.LRU, cache.FIFO, cache.Random} {
		repl := repl
		b.Run(repl.String(), func(b *testing.B) {
			var missRate float64
			for i := 0; i < b.N; i++ {
				var misses, refs uint64
				for _, t := range ts {
					c := cache.MustNew(cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 4,
						WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite, Replacement: repl})
					c.AccessTrace(t)
					misses += c.Stats().Misses()
					refs += c.Stats().Refs()
				}
				missRate = float64(misses) / float64(refs)
			}
			b.ReportMetric(100*missRate, "%missrate")
		})
	}
}

// BenchmarkAblationValidGranularity measures how coarser valid bits
// (cheaper hardware: 12.5% overhead per-byte, 3.1% per-word, 1.6% per
// double) erode write-validate's miss elimination — §4's tradeoff.
func BenchmarkAblationValidGranularity(b *testing.B) {
	ts := benchEnvTraces(b)
	for _, g := range []int{1, 4, 8, 16} {
		g := g
		b.Run(map[int]string{1: "byte", 4: "word", 8: "double", 16: "line"}[g], func(b *testing.B) {
			var reduction float64
			for i := 0; i < b.N; i++ {
				var fow, wv uint64
				for _, t := range ts {
					base := cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1,
						WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
					c := cache.MustNew(base)
					c.AccessTrace(t)
					fow += c.Stats().Misses()

					base.WriteMiss = cache.WriteValidate
					base.ValidGranularity = g
					c = cache.MustNew(base)
					c.AccessTrace(t)
					wv += c.Stats().Misses()
				}
				reduction = 1 - float64(wv)/float64(fow)
			}
			b.ReportMetric(100*reduction, "%miss-reduction")
		})
	}
}

// BenchmarkAblationSectorFetch compares full-line fills against sector
// (sub-block) fills at 64B lines: traffic saved vs misses added.
func BenchmarkAblationSectorFetch(b *testing.B) {
	ts := benchEnvTraces(b)
	for _, sector := range []bool{false, true} {
		sector := sector
		name := "full-line"
		if sector {
			name = "sector-16B"
		}
		b.Run(name, func(b *testing.B) {
			var missRate, bytesPerRef float64
			for i := 0; i < b.N; i++ {
				var misses, refs, fetchBytes uint64
				for _, t := range ts {
					cfg := cache.Config{Size: 8 << 10, LineSize: 64, Assoc: 1,
						WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
					if sector {
						cfg.ValidGranularity = 16
						cfg.SectorFetch = true
					}
					c := cache.MustNew(cfg)
					c.AccessTrace(t)
					misses += c.Stats().Misses()
					refs += c.Stats().Refs()
					fetchBytes += c.Stats().FetchBytes
				}
				missRate = float64(misses) / float64(refs)
				bytesPerRef = float64(fetchBytes) / float64(refs)
			}
			b.ReportMetric(100*missRate, "%missrate")
			b.ReportMetric(bytesPerRef, "fetchB/ref")
		})
	}
}

// BenchmarkExtensions runs each extension experiment once per iteration
// (same harness as the per-figure benchmarks).
func BenchmarkExtCPI(b *testing.B)      { benchExperiment(b, "ext-cpi") }
func BenchmarkExtBurst(b *testing.B)    { benchExperiment(b, "ext-burst") }
func BenchmarkExtVictim(b *testing.B)   { benchExperiment(b, "ext-victim") }
func BenchmarkExtPerf(b *testing.B)     { benchExperiment(b, "ext-perf") }
func BenchmarkExtReuse(b *testing.B)    { benchExperiment(b, "ext-reuse") }
func BenchmarkExtBus(b *testing.B)      { benchExperiment(b, "ext-bus") }
func BenchmarkExtFaults(b *testing.B)   { benchExperiment(b, "ext-faults") }
func BenchmarkExtSwitch(b *testing.B)   { benchExperiment(b, "ext-switch") }
func BenchmarkExtWarm(b *testing.B)     { benchExperiment(b, "ext-warm") }
func BenchmarkExtL2Policy(b *testing.B) { benchExperiment(b, "ext-l2policy") }

// The multi-core extensions; each iteration's fresh Env computes every
// coherent run the experiment reads, so all three pay for their runs.
func BenchmarkExtCohMiss(b *testing.B)    { benchExperiment(b, "ext-coh-miss") }
func BenchmarkExtCohTraffic(b *testing.B) { benchExperiment(b, "ext-coh-traffic") }
func BenchmarkExtCohSchemes(b *testing.B) { benchExperiment(b, "ext-coh-schemes") }
