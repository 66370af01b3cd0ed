package experiments

import (
	"cachewrite/internal/cache"
	"cachewrite/internal/stats"
)

func init() {
	register("fig18", "components of back-side traffic (transactions/instruction) vs cache size", 180, fig18)
	register("fig19", "components of back-side traffic (transactions/instruction) vs line size", 190, fig19)
	register("fig20", "% of victims with dirty bytes vs cache size (cold stop and flush stop)", 200, fig20)
	register("fig21", "% of bytes dirty in a dirty victim vs cache size", 210, fig21)
	register("fig22", "% of bytes dirty per victim vs cache size (flush stop)", 220, fig22)
	register("fig23", "% of victims with dirty bytes vs line size", 230, fig23)
	register("fig24", "% of bytes dirty in a dirty victim vs line size", 240, fig24)
	register("fig25", "% of bytes dirty per victim vs line size", 250, fig25)
}

// trafficComponents computes the four Fig 18/19 series at one geometry,
// averaged over the benchmarks: read-miss, write-miss, write-back-total
// and write-through-total transactions per instruction. Flush-stop
// write-back traffic is included, as §5 prescribes.
func trafficComponents(e *Env, size, line int) (readMiss, writeMiss, wbTotal, wtTotal float64, err error) {
	for ti := range e.Traces {
		cs, err2 := e.CacheStats(ti, stdConfig(size, line))
		if err2 != nil {
			return 0, 0, 0, 0, err2
		}
		inst := float64(cs.Instructions)
		rm := float64(cs.ReadMissEvents) / inst
		wm := float64(cs.FetchedWriteMisses) / inst
		wb := (float64(cs.Misses()) + float64(cs.Writebacks) + float64(cs.FlushWritebacks)) / inst
		wt := (float64(cs.Misses()) + float64(cs.Writes)) / inst
		readMiss += rm
		writeMiss += wm
		wbTotal += wb
		wtTotal += wt
	}
	n := float64(len(e.Traces))
	return readMiss / n, writeMiss / n, wbTotal / n, wtTotal / n, nil
}

func trafficSweep(e *Env, id, title, xlabel string, xs []int, cfgOf func(x int) (size, line int)) (Result, error) {
	chart := &stats.Chart{ID: id, Title: title, XLabel: xlabel,
		YLabel: "back-end transactions per instruction", XScale: stats.Log2}
	wt := stats.Series{Label: "write-through"}
	wb := stats.Series{Label: "write-back"}
	wm := stats.Series{Label: "write misses"}
	rm := stats.Series{Label: "read misses"}
	for _, x := range xs {
		size, line := cfgOf(x)
		r, w, b, t, err := trafficComponents(e, size, line)
		if err != nil {
			return Result{}, err
		}
		rm.Point(float64(x), r)
		wm.Point(float64(x), w)
		wb.Point(float64(x), b)
		wt.Point(float64(x), t)
	}
	chart.Add(wt)
	chart.Add(wb)
	chart.Add(wm)
	chart.Add(rm)
	return Result{Chart: chart}, nil
}

func fig18(e *Env) (Result, error) {
	return trafficSweep(e, "fig18", "Components of traffic vs cache size",
		"cache size (B)", CacheSizes,
		func(x int) (int, int) { return x, StdLineSize })
}

func fig19(e *Env) (Result, error) {
	return trafficSweep(e, "fig19", "Components of traffic vs cache line size",
		"line size (B)", LineSizes,
		func(x int) (int, int) { return StdCacheSize, x })
}

// victimMetric sweeps a victim statistic over the benchmarks, plus the
// average.
func victimMetric(e *Env, id, title, xlabel, ylabel string, xs []int,
	cfgOf func(x int) (size, line int),
	metric func(cs cache.Stats, line int) float64) (Result, error) {
	chart := &stats.Chart{ID: id, Title: title, XLabel: xlabel, YLabel: ylabel, XScale: stats.Log2}
	var perBench []stats.Series
	for ti, t := range e.Traces {
		s := stats.Series{Label: t.Name}
		for _, x := range xs {
			size, line := cfgOf(x)
			cs, err := e.CacheStats(ti, stdConfig(size, line))
			if err != nil {
				return Result{}, err
			}
			s.Point(float64(x), stats.Pct(metric(cs, line)))
		}
		perBench = append(perBench, s)
		chart.Add(s)
	}
	avg, err := stats.MeanSeries("average", perBench)
	if err != nil {
		return Result{}, err
	}
	chart.Add(avg)
	return Result{Chart: chart}, nil
}

// fig20 plots the fraction of victims that are dirty, under both
// cold-stop (program victims only) and flush-stop (cache flushed after
// execution) accounting.
func fig20(e *Env) (Result, error) {
	chart := &stats.Chart{ID: "fig20", Title: "Percent of victims with dirty bytes vs cache size for 16B lines",
		XLabel: "cache size (B)", YLabel: "% of victims dirty", XScale: stats.Log2}
	var cold, flush []stats.Series
	for ti, t := range e.Traces {
		sc := stats.Series{Label: t.Name + " (cold stop)"}
		sf := stats.Series{Label: t.Name + " (flush stop)"}
		for _, size := range CacheSizes {
			cs, err := e.CacheStats(ti, stdConfig(size, StdLineSize))
			if err != nil {
				return Result{}, err
			}
			sc.Point(float64(size), stats.Pct(cs.DirtyVictimFraction()))
			sf.Point(float64(size), stats.Pct(cs.DirtyVictimFractionFlushed()))
		}
		cold = append(cold, sc)
		flush = append(flush, sf)
		chart.Add(sc)
		chart.Add(sf)
	}
	avgC, err := stats.MeanSeries("average (cold stop)", cold)
	if err != nil {
		return Result{}, err
	}
	avgF, err := stats.MeanSeries("average (flush stop)", flush)
	if err != nil {
		return Result{}, err
	}
	chart.Add(avgC)
	chart.Add(avgF)
	return Result{Chart: chart}, nil
}

func fig21(e *Env) (Result, error) {
	return victimMetric(e, "fig21", "Percent of bytes dirty in a dirty victim vs cache size for 16B lines",
		"cache size (B)", "% of bytes dirty in dirty victims", CacheSizes,
		func(x int) (int, int) { return x, StdLineSize },
		func(cs cache.Stats, line int) float64 { return cs.DirtyBytesPerDirtyVictim(line) })
}

func fig22(e *Env) (Result, error) {
	return victimMetric(e, "fig22", "Percent of bytes dirty per victim vs cache size for 16B lines",
		"cache size (B)", "% of bytes dirty per victim (flush stop)", CacheSizes,
		func(x int) (int, int) { return x, StdLineSize },
		func(cs cache.Stats, line int) float64 { return cs.DirtyBytesPerVictim() })
}

func fig23(e *Env) (Result, error) {
	return victimMetric(e, "fig23", "Percent of victims with dirty bytes vs line size for 8KB caches",
		"line size (B)", "% of victims dirty (flush stop)", LineSizes,
		func(x int) (int, int) { return StdCacheSize, x },
		func(cs cache.Stats, line int) float64 { return cs.DirtyVictimFractionFlushed() })
}

func fig24(e *Env) (Result, error) {
	return victimMetric(e, "fig24", "Percent of bytes dirty in a dirty victim vs line size for 8KB caches",
		"line size (B)", "% of bytes dirty in dirty victims", LineSizes,
		func(x int) (int, int) { return StdCacheSize, x },
		func(cs cache.Stats, line int) float64 { return cs.DirtyBytesPerDirtyVictim(line) })
}

func fig25(e *Env) (Result, error) {
	return victimMetric(e, "fig25", "Percent of bytes dirty per victim vs line size for 8KB caches",
		"line size (B)", "% of bytes dirty per victim (flush stop)", LineSizes,
		func(x int) (int, int) { return StdCacheSize, x },
		func(cs cache.Stats, line int) float64 { return cs.DirtyBytesPerVictim() })
}
