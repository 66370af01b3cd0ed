package experiments

import (
	"fmt"

	"cachewrite/internal/fanout"
	"cachewrite/internal/reuse"
	"cachewrite/internal/stats"
	"cachewrite/internal/writebuffer"
)

func init() {
	register("fig1", "write-back vs write-through: % writes to already dirty lines vs line size (8KB)", 10, fig1)
	register("fig2", "write-back vs write-through: % writes to already dirty lines vs cache size (16B lines)", 20, fig2)
	register("fig5", "coalescing write buffer: % writes merged and stall CPI vs retire interval", 50, fig5)
	register("fig7", "write cache: absolute % of writes removed vs entries", 70, fig7)
	register("fig8", "write cache: % of writes removed relative to a 4KB write-back cache", 80, fig8)
	register("fig9", "write cache: relative traffic reduction vs write-back cache size", 90, fig9)
}

// fig1 plots the fraction of writes to already-dirty lines against line
// size for 8KB direct-mapped caches — the write-traffic reduction a
// write-back cache achieves over write-through.
func fig1(e *Env) (Result, error) {
	return writesToDirtySweep(e, "fig1",
		"Write-back vs write-through cache behavior for 8KB caches",
		"line size (B)", LineSizes,
		func(x int) (int, int) { return StdCacheSize, x })
}

// fig2 plots the same metric against cache size for 16B lines.
func fig2(e *Env) (Result, error) {
	return writesToDirtySweep(e, "fig2",
		"Write-back vs write-through cache behavior for 16B lines",
		"cache size (B)", CacheSizes,
		func(x int) (int, int) { return x, StdLineSize })
}

func writesToDirtySweep(e *Env, id, title, xlabel string, xs []int, cfgOf func(x int) (size, line int)) (Result, error) {
	chart := &stats.Chart{ID: id, Title: title, XLabel: xlabel,
		YLabel: "% of writes to already dirty lines", XScale: stats.Log2}
	var perBench []stats.Series
	for ti, t := range e.Traces {
		s := stats.Series{Label: t.Name}
		for _, x := range xs {
			size, line := cfgOf(x)
			cs, err := e.CacheStats(ti, stdConfig(size, line))
			if err != nil {
				return Result{}, err
			}
			s.Point(float64(x), stats.Pct(cs.WritesToDirtyFraction()))
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

// wcMaxEntries is the largest write cache the figures consult: the
// right end of Figs 7-8.
const wcMaxEntries = 16

// curveKey identifies one write-cache curve: a trace at a line size.
// The Env computes each curve once, so Figs 7-9 share the 8B curves and
// Fig 5 computes only the 16B ones.
type curveKey struct{ ti, lineSize int }

// writeCacheCurves returns every trace's 0..wcMaxEntries write-cache
// curve at lineSize, in trace order, each computed once per Env.
func (e *Env) writeCacheCurves(lineSize int) ([]*reuse.Curve, error) {
	return fanout.Run(len(e.Traces), func(ti int) (*reuse.Curve, error) {
		return e.curves.get(curveKey{ti, lineSize}, func() (*reuse.Curve, error) {
			e.curvesComputed.Add(1)
			return reuse.WriteCacheCurve(e.Traces[ti], lineSize, wcMaxEntries)
		})
	})
}

// fig5 reproduces the coalescing-write-buffer study: an 8-entry buffer
// of 16B entries retiring one entry every n cycles, n swept from 0 to
// 48. Results are averaged over the six benchmarks, as in the paper.
// The reference line is the merge rate of a 6-entry write cache with
// the same 16B entries.
func fig5(e *Env) (Result, error) {
	chart := &stats.Chart{ID: "fig5", Title: "Coalescing write buffer merges vs CPI",
		XLabel: "cycles per write retire", YLabel: "% merged / stall CPI", XScale: stats.Linear}
	merged := stats.Series{Label: "% merged by 8-entry write-buffer"}
	cpi := stats.Series{Label: "write buffer full stall CPI"}
	var intervals []int
	for n := 0; n <= 48; n += 4 {
		intervals = append(intervals, n)
	}
	nt := len(e.Traces)
	runs, err := fanout.Run(len(intervals)*nt, func(i int) (writebuffer.Stats, error) {
		return e.bufferRun(i%nt, intervals[i/nt])
	})
	if err != nil {
		return Result{}, err
	}
	for ni, n := range intervals {
		var mfrac, stall float64
		for _, s := range runs[ni*nt : (ni+1)*nt] {
			mfrac += s.MergedFraction()
			stall += s.StallCPI()
		}
		merged.Point(float64(n), stats.Pct(mfrac/float64(nt)))
		cpi.Point(float64(n), stall/float64(nt))
	}
	// Reference: a 6-entry write cache with 16B lines never stalls and
	// merges this fraction regardless of retire interval.
	ref := stats.Series{Label: "% merged by 6-entry write cache"}
	curves, err := e.writeCacheCurves(16)
	if err != nil {
		return Result{}, err
	}
	var wcFrac float64
	for _, c := range curves {
		wcFrac += c.RemovedFraction(6)
	}
	wcFrac /= float64(nt)
	for _, n := range intervals {
		ref.Point(float64(n), stats.Pct(wcFrac))
	}
	chart.Add(merged)
	chart.Add(ref)
	chart.Add(cpi)
	return Result{Chart: chart}, nil
}

// fig7 plots the absolute write-traffic reduction of a write cache with
// 0..16 8B entries, per benchmark and averaged.
func fig7(e *Env) (Result, error) {
	chart := &stats.Chart{ID: "fig7", Title: "Write cache absolute traffic reduction",
		XLabel: "write-cache entries", YLabel: "% of all writes removed", XScale: stats.Linear}
	curves, err := e.writeCacheCurves(8)
	if err != nil {
		return Result{}, err
	}
	var perBench []stats.Series
	for ti, t := range e.Traces {
		s := stats.Series{Label: t.Name}
		for n := 0; n <= wcMaxEntries; n++ {
			s.Point(float64(n), stats.Pct(curves[ti].RemovedFraction(n)))
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

// fig8 plots the write cache's reduction relative to what a 4KB
// direct-mapped write-back cache removes on the same trace.
func fig8(e *Env) (Result, error) {
	chart := &stats.Chart{ID: "fig8", Title: "Write cache traffic reduction relative to a 4KB write-back cache",
		XLabel: "write-cache entries", YLabel: "% of writes removed relative to write-back cache", XScale: stats.Linear}
	curves, err := e.writeCacheCurves(8)
	if err != nil {
		return Result{}, err
	}
	var perBench []stats.Series
	for ti, t := range e.Traces {
		wb, err := e.CacheStats(ti, stdConfig(4<<10, StdLineSize))
		if err != nil {
			return Result{}, err
		}
		wbFrac := wb.WritesToDirtyFraction()
		s := stats.Series{Label: t.Name}
		for n := 0; n <= wcMaxEntries; n++ {
			rel := 0.0
			if wbFrac > 0 {
				rel = curves[ti].RemovedFraction(n) / wbFrac
			}
			s.Point(float64(n), stats.Pct(rel))
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

// fig9 plots, for 1-, 5- and 15-entry write caches, the average
// reduction relative to direct-mapped write-back caches of 1KB to 64KB.
func fig9(e *Env) (Result, error) {
	chart := &stats.Chart{ID: "fig9", Title: "Relative traffic reduction of a write cache vs write-back cache size",
		XLabel: "write-back cache size (B)", YLabel: "relative % of all writes removed", XScale: stats.Log2}
	curves, err := e.writeCacheCurves(8)
	if err != nil {
		return Result{}, err
	}
	sizes := CacheSizes[:7] // 1KB..64KB
	for _, entries := range []int{15, 5, 1} {
		s := stats.Series{Label: fmt.Sprintf("%d entry write cache", entries)}
		for _, size := range sizes {
			var rel float64
			for ti := range e.Traces {
				wb, err := e.CacheStats(ti, stdConfig(size, StdLineSize))
				if err != nil {
					return Result{}, err
				}
				if wbFrac := wb.WritesToDirtyFraction(); wbFrac > 0 {
					rel += curves[ti].RemovedFraction(entries) / wbFrac
				}
			}
			s.Point(float64(size), stats.Pct(rel/float64(len(e.Traces))))
		}
		chart.Add(s)
	}
	return Result{Chart: chart}, nil
}
