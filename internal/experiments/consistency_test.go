package experiments

import (
	"math"
	"testing"

	"cachewrite/internal/stats"
)

// These tests pin the figure runners to the underlying simulator: every
// plotted point must equal the value computed directly from CacheStats,
// so a refactor of a runner cannot silently change what a figure means.

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestFig2PointsMatchDirectComputation(t *testing.T) {
	env := syntheticEnv()
	res, err := Run(env, "fig2")
	if err != nil {
		t.Fatal(err)
	}
	for ti, tr := range env.Traces {
		series := findSeries(res.Chart, tr.Name)
		for _, size := range CacheSizes {
			cs, err := env.CacheStats(ti, stdConfig(size, StdLineSize))
			if err != nil {
				t.Fatal(err)
			}
			want := stats.Pct(cs.WritesToDirtyFraction())
			if got := series.YAt(float64(size)); !almost(got, want) {
				t.Errorf("%s fig2 @%d: plotted %v, direct %v", tr.Name, size, got, want)
			}
		}
	}
}

func TestFig10PointsMatchDirectComputation(t *testing.T) {
	env := syntheticEnv()
	res, err := Run(env, "fig10")
	if err != nil {
		t.Fatal(err)
	}
	for ti, tr := range env.Traces {
		series := findSeries(res.Chart, tr.Name)
		for _, size := range CacheSizes {
			cs, err := env.CacheStats(ti, stdConfig(size, StdLineSize))
			if err != nil {
				t.Fatal(err)
			}
			want := stats.Pct(cs.WriteMissFraction())
			if got := series.YAt(float64(size)); !almost(got, want) {
				t.Errorf("%s fig10 @%d: plotted %v, direct %v", tr.Name, size, got, want)
			}
		}
	}
}

func TestFig18PointsMatchDirectComputation(t *testing.T) {
	env := syntheticEnv()
	res, err := Run(env, "fig18")
	if err != nil {
		t.Fatal(err)
	}
	wb := findSeries(res.Chart, "write-back")
	wt := findSeries(res.Chart, "write-through")
	for _, size := range CacheSizes {
		var wbWant, wtWant float64
		for ti := range env.Traces {
			cs, err := env.CacheStats(ti, stdConfig(size, StdLineSize))
			if err != nil {
				t.Fatal(err)
			}
			inst := float64(cs.Instructions)
			wbWant += (float64(cs.Misses()) + float64(cs.Writebacks) + float64(cs.FlushWritebacks)) / inst
			wtWant += (float64(cs.Misses()) + float64(cs.Writes)) / inst
		}
		n := float64(len(env.Traces))
		if got := wb.YAt(float64(size)); !almost(got, wbWant/n) {
			t.Errorf("fig18 write-back @%d: plotted %v, direct %v", size, got, wbWant/n)
		}
		if got := wt.YAt(float64(size)); !almost(got, wtWant/n) {
			t.Errorf("fig18 write-through @%d: plotted %v, direct %v", size, got, wtWant/n)
		}
	}
}

func TestFig14AverageIsMeanOfBenchmarks(t *testing.T) {
	env := syntheticEnv()
	res, err := Run(env, "fig14")
	if err != nil {
		t.Fatal(err)
	}
	avg := findSeries(res.Chart, "average/write-validate")
	for _, size := range CacheSizes {
		var sum float64
		for _, tr := range env.Traces {
			sum += findSeries(res.Chart, tr.Name+"/write-validate").YAt(float64(size))
		}
		if got := avg.YAt(float64(size)); !almost(got, sum/float64(len(env.Traces))) {
			t.Errorf("fig14 average @%d: %v vs mean %v", size, got, sum/float64(len(env.Traces)))
		}
	}
}

func TestFig22IsFlushStopProduct(t *testing.T) {
	// Fig 22 is defined as dirty bytes over all victim bytes (flush
	// included); cross-check against fig20/fig21-style components for
	// one benchmark and size.
	env := syntheticEnv()
	cs, err := env.CacheStats(0, stdConfig(8<<10, StdLineSize))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(env, "fig22")
	if err != nil {
		t.Fatal(err)
	}
	got := findSeries(res.Chart, env.Traces[0].Name).YAt(8 << 10)
	want := stats.Pct(cs.DirtyBytesPerVictim())
	if !almost(got, want) {
		t.Errorf("fig22 = %v, direct %v", got, want)
	}
}
