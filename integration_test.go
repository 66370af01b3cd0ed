package cachewrite

// Integration tests: the paper's headline shape claims, asserted
// against the real (scale-1) workloads end to end. These are the
// regression suite for "does the repository still reproduce the
// paper"; unit tests guard mechanisms, these guard conclusions.
//
// Run with -short to skip (they simulate several hundred megabytes of
// references).

import (
	"sync"
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/experiments"
	"cachewrite/internal/stats"
	"cachewrite/internal/workload"
)

var (
	intOnce sync.Once
	intEnv  *experiments.Env
)

func integrationEnv(t *testing.T) *experiments.Env {
	t.Helper()
	if testing.Short() {
		t.Skip("integration suite skipped in -short mode")
	}
	intOnce.Do(func() {
		ts, err := workload.GenerateAllCached("", 1)
		if err != nil {
			panic(err)
		}
		intEnv = experiments.NewEnvFromTraces(ts)
	})
	return intEnv
}

func chartOf(t *testing.T, env *experiments.Env, id string) *stats.Chart {
	t.Helper()
	res, err := experiments.Run(env, id)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.Chart == nil {
		t.Fatalf("%s produced no chart", id)
	}
	return res.Chart
}

// findSeries returns the chart's series with the given label, or nil.
func findSeries(c *stats.Chart, label string) *stats.Series {
	for i := range c.Series {
		if c.Series[i].Label == label {
			return &c.Series[i]
		}
	}
	return nil
}

// TestPaperFig1Fig2Shapes: write-back's traffic reduction rises with
// both line size and cache size, removes the majority of writes at the
// standard point, and linpack/liver are the worst programs at short
// lines.
func TestPaperFig1Fig2Shapes(t *testing.T) {
	env := integrationEnv(t)
	for _, id := range []string{"fig1", "fig2"} {
		avg := findSeries(chartOf(t, env, id), "average")
		if avg == nil {
			t.Fatalf("%s: no average series", id)
		}
		for i := 1; i < len(avg.Y); i++ {
			if avg.Y[i] < avg.Y[i-1]-2 { // allow tiny non-monotonic jitter
				t.Errorf("%s average not rising: %v", id, avg.Y)
			}
		}
	}
	fig1 := chartOf(t, env, "fig1")
	for _, name := range []string{"linpack", "liver"} {
		s := findSeries(fig1, name)
		if s.Y[0] > 15 {
			t.Errorf("%s at 4B lines = %v%%, want <15%% (paper: numeric codes worst)", name, s.Y[0])
		}
	}
	if avg := findSeries(fig1, "average"); avg.YAt(16) < 60 || avg.YAt(16) > 85 {
		t.Errorf("fig1 average at 16B = %v, want the paper's majority-removed band", avg.YAt(16))
	}
}

// TestPaperFig10Band: write misses are about a third of all misses at
// small-to-standard sizes.
func TestPaperFig10Band(t *testing.T) {
	env := integrationEnv(t)
	avg := findSeries(chartOf(t, env, "fig10"), "average")
	for _, size := range []float64{1024, 2048, 4096, 8192} {
		if v := avg.YAt(size); v < 15 || v > 45 {
			t.Errorf("fig10 average at %v = %v%%, want ~one third", size, v)
		}
	}
}

// TestPaperFig14Headline: write-validate removes ~30% of all misses at
// the paper's reference geometry, and the three policies order
// WV > WA > WI on average there.
func TestPaperFig14Headline(t *testing.T) {
	env := integrationEnv(t)
	c := chartOf(t, env, "fig14")
	wv := findSeries(c, "average/write-validate").YAt(8192)
	wa := findSeries(c, "average/write-around").YAt(8192)
	wi := findSeries(c, "average/write-invalidate").YAt(8192)
	if wv < 20 || wv > 45 {
		t.Errorf("write-validate @8KB = %v%%, paper reports ~31%%", wv)
	}
	if !(wv > wa && wa > wi && wi > 0) {
		t.Errorf("policy ordering broken: WV %v, WA %v, WI %v", wv, wa, wi)
	}
}

// TestPaperFig17NoViolations: the fetch-traffic partial order holds on
// every benchmark and geometry.
func TestPaperFig17NoViolations(t *testing.T) {
	env := integrationEnv(t)
	res, err := experiments.Run(env, "fig17")
	if err != nil {
		t.Fatal(err)
	}
	last := res.Table.Rows[len(res.Table.Rows)-1]
	if got := last[len(last)-1]; got != "0 violations" {
		t.Errorf("fig17: %s", got)
	}
}

// TestPaperFig18Claims: write-through traffic varies less than ~2x over
// the full size range and dominates write-back everywhere; write-back
// exceeds the miss total by the dirty-victim share.
func TestPaperFig18Claims(t *testing.T) {
	env := integrationEnv(t)
	c := chartOf(t, env, "fig18")
	wt := findSeries(c, "write-through")
	wb := findSeries(c, "write-back")
	maxWT, minWT := wt.Y[0], wt.Y[0]
	for i := range wt.Y {
		if wt.Y[i] > maxWT {
			maxWT = wt.Y[i]
		}
		if wt.Y[i] < minWT {
			minWT = wt.Y[i]
		}
		if wb.Y[i] >= wt.Y[i] {
			t.Errorf("write-back traffic above write-through at %v", wt.X[i])
		}
	}
	if ratio := maxWT / minWT; ratio > 2.5 {
		t.Errorf("write-through traffic varies %vx, paper says <2x", ratio)
	}
}

// TestPaperFig20Fig24Claims: ~half of victims are dirty at the standard
// geometry, and dirty-victim byte density is 100% at 4B lines and falls
// with line size.
func TestPaperFig20Fig24Claims(t *testing.T) {
	env := integrationEnv(t)
	f20 := findSeries(chartOf(t, env, "fig20"), "average (flush stop)")
	if v := f20.YAt(8192); v < 35 || v > 75 {
		t.Errorf("victims dirty @8KB = %v%%, paper reports ~50%%", v)
	}
	f24 := findSeries(chartOf(t, env, "fig24"), "average")
	if f24.YAt(4) != 100 {
		t.Errorf("dirty bytes per dirty victim at 4B lines = %v%%, want exactly 100%% (word machine)", f24.YAt(4))
	}
	if !(f24.YAt(64) < f24.YAt(16) && f24.YAt(16) < f24.YAt(8)) {
		t.Error("dirty-byte density does not fall with line size")
	}
}

// TestPaperWriteCacheClaims: the 5-entry write cache sits at the knee
// (most of the 16-entry cache's benefit) and removes a substantial
// share of writes, while numeric codes get almost nothing.
func TestPaperWriteCacheClaims(t *testing.T) {
	env := integrationEnv(t)
	c := chartOf(t, env, "fig7")
	avg := findSeries(c, "average")
	five, sixteen := avg.YAt(5), avg.YAt(16)
	if five < 20 {
		t.Errorf("5-entry write cache removes %v%%, want a substantial share", five)
	}
	if five < 0.8*sixteen {
		t.Errorf("5 entries (%v%%) should capture most of 16 entries' benefit (%v%%)", five, sixteen)
	}
	if lin := findSeries(c, "linpack").YAt(5); lin > 5 {
		t.Errorf("linpack write-cache benefit = %v%%, want ~0 (sequential writes)", lin)
	}
}

// TestPolicyMissInvariantOnRealWorkloads: for every benchmark at the
// standard geometry, the four policies' fetch-triggering misses honor
// the Fig 17 order.
func TestPolicyMissInvariantOnRealWorkloads(t *testing.T) {
	env := integrationEnv(t)
	for ti, tr := range env.Traces {
		misses := map[cache.WriteMissPolicy]uint64{}
		for _, p := range cache.WriteMissPolicies() {
			cfg := cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1,
				WriteHit: cache.WriteBack, WriteMiss: p}
			if p == cache.WriteAround || p == cache.WriteInvalidate {
				cfg.WriteHit = cache.WriteThrough
			}
			cs, err := env.CacheStats(ti, cfg)
			if err != nil {
				t.Fatal(err)
			}
			misses[p] = cs.Misses()
		}
		if misses[cache.WriteValidate] > misses[cache.WriteInvalidate] ||
			misses[cache.WriteAround] > misses[cache.WriteInvalidate] ||
			misses[cache.WriteInvalidate] > misses[cache.FetchOnWrite] {
			t.Errorf("%s: partial order violated: %v", tr.Name, misses)
		}
	}
}

// TestTracesAreWellFormed: every generated trace validates and stays in
// the low 2GB (the invariant SeedDirty relies on).
func TestTracesAreWellFormed(t *testing.T) {
	env := integrationEnv(t)
	for _, tr := range env.Traces {
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", tr.Name, err)
		}
		for _, e := range tr.Events {
			if e.Addr>>31 != 0 {
				t.Errorf("%s: address %#x above 2GB", tr.Name, e.Addr)
				break
			}
		}
	}
}
