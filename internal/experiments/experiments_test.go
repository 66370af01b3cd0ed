package experiments

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/stats"
	"cachewrite/internal/sweep"
	"cachewrite/internal/trace"
	"cachewrite/internal/workload"
)

// syntheticEnv builds an Env from six small synthetic traces with mixed
// locality, so every experiment runs in milliseconds.
func syntheticEnv() *Env {
	names := workload.PaperOrder()
	ts := make([]*trace.Trace, len(names))
	for i, name := range names {
		r := rand.New(rand.NewSource(int64(i + 1)))
		tr := &trace.Trace{Name: name}
		hot := make([]uint32, 24)
		for j := range hot {
			hot[j] = uint32(r.Intn(1<<13)) &^ 7
		}
		for j := 0; j < 5000; j++ {
			addr := hot[r.Intn(len(hot))]
			if r.Intn(4) == 0 {
				addr = uint32(r.Intn(1<<19)) &^ 7
			}
			k := trace.Read
			if r.Intn(3) == 0 {
				k = trace.Write
			}
			size := uint8(4)
			if r.Intn(2) == 0 {
				size = 8
				addr &^= 7
			}
			tr.Append(trace.Event{Addr: addr, Size: size, Gap: uint16(r.Intn(6)), Kind: k})
		}
		ts[i] = tr
	}
	return NewEnvFromTraces(ts)
}

func TestIDsCompleteAndOrdered(t *testing.T) {
	ids := IDs()
	want := []string{"table1", "fig1", "fig2", "table2", "fig5", "fig7", "fig8", "fig9",
		"table3", "fig10", "fig11", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24", "fig25",
		"ext-cpi", "ext-burst", "ext-victim", "ext-perf", "ext-reuse", "ext-bus", "ext-faults", "ext-switch", "ext-warm", "ext-l2policy",
		"ext-coh-miss", "ext-coh-traffic", "ext-coh-schemes"}
	if len(ids) != len(want) {
		t.Fatalf("have %d experiments, want %d: %v", len(ids), len(want), ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids[%d] = %s, want %s (full: %v)", i, ids[i], want[i], ids)
		}
	}
}

func TestDescribe(t *testing.T) {
	for _, id := range IDs() {
		desc, err := Describe(id)
		if err != nil || desc == "" {
			t.Errorf("Describe(%s) = %q, %v", id, desc, err)
		}
	}
	if _, err := Describe("nope"); err == nil {
		t.Error("unknown id described")
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run(syntheticEnv(), "nope"); err == nil {
		t.Fatal("unknown experiment ran")
	}
}

func TestAllExperimentsRun(t *testing.T) {
	env := syntheticEnv()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Run(env, id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if res.Chart == nil && res.Table == nil {
				t.Fatalf("%s produced nothing", id)
			}
			if res.Chart != nil {
				if len(res.Chart.Series) == 0 {
					t.Fatalf("%s chart has no series", id)
				}
				for _, s := range res.Chart.Series {
					if len(s.X) == 0 || len(s.X) != len(s.Y) {
						t.Fatalf("%s series %q malformed: %d/%d points",
							id, s.Label, len(s.X), len(s.Y))
					}
				}
			}
			if res.Table != nil && len(res.Table.Rows) == 0 {
				t.Fatalf("%s table has no rows", id)
			}
		})
	}
}

func TestPerBenchmarkChartsHaveAverage(t *testing.T) {
	env := syntheticEnv()
	for _, id := range []string{"fig1", "fig2", "fig7", "fig8", "fig10", "fig11",
		"fig21", "fig22", "fig23", "fig24", "fig25"} {
		res, err := Run(env, id)
		if err != nil {
			t.Fatal(err)
		}
		if findSeries(res.Chart, "average") == nil {
			t.Errorf("%s missing average series", id)
		}
		// 6 benchmarks + average.
		if len(res.Chart.Series) != 7 {
			t.Errorf("%s has %d series, want 7", id, len(res.Chart.Series))
		}
	}
}

func TestFig5SeriesShape(t *testing.T) {
	res, err := Run(syntheticEnv(), "fig5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chart.Series) != 3 {
		t.Fatalf("fig5 has %d series, want 3", len(res.Chart.Series))
	}
	merged := findSeries(res.Chart, "% merged by 8-entry write-buffer")
	if merged == nil {
		t.Fatal("missing merged series")
	}
	// Retire interval 0 merges nothing; merging is monotone.
	if merged.Y[0] != 0 {
		t.Errorf("merging at interval 0 = %v, want 0", merged.Y[0])
	}
	for i := 1; i < len(merged.Y); i++ {
		if merged.Y[i] < merged.Y[i-1]-1e-9 {
			t.Errorf("merging not monotone at %v", merged.X[i])
		}
	}
	cpi := findSeries(res.Chart, "write buffer full stall CPI")
	if cpi == nil || cpi.Y[0] != 0 {
		t.Error("stall CPI series wrong")
	}
}

func TestFig13SeriesCount(t *testing.T) {
	res, err := Run(syntheticEnv(), "fig13")
	if err != nil {
		t.Fatal(err)
	}
	// 3 policies x (6 benchmarks + average) = 21 series.
	if len(res.Chart.Series) != 21 {
		t.Fatalf("fig13 has %d series, want 21", len(res.Chart.Series))
	}
	for _, p := range []string{"write-validate", "write-around", "write-invalidate"} {
		if findSeries(res.Chart, "average/"+p) == nil {
			t.Errorf("missing average/%s", p)
		}
	}
}

func TestFig17NoViolationsOnSynthetic(t *testing.T) {
	res, err := Run(syntheticEnv(), "fig17")
	if err != nil {
		t.Fatal(err)
	}
	last := res.Table.Rows[len(res.Table.Rows)-1]
	if !strings.Contains(last[len(last)-1], "0 violations") {
		t.Errorf("partial order violated: %v", last)
	}
}

func TestFig18SeriesOrdering(t *testing.T) {
	res, err := Run(syntheticEnv(), "fig18")
	if err != nil {
		t.Fatal(err)
	}
	wt := findSeries(res.Chart, "write-through")
	wb := findSeries(res.Chart, "write-back")
	rm := findSeries(res.Chart, "read misses")
	wm := findSeries(res.Chart, "write misses")
	if wt == nil || wb == nil || rm == nil || wm == nil {
		t.Fatal("missing series")
	}
	for i := range wt.X {
		// Totals dominate their components.
		if wb.Y[i] < rm.Y[i] || wb.Y[i] < wm.Y[i] {
			t.Errorf("write-back total below a component at %v", wt.X[i])
		}
		if wt.Y[i] < rm.Y[i]+wm.Y[i] {
			t.Errorf("write-through below miss total at %v", wt.X[i])
		}
	}
}

func TestTable1Shape(t *testing.T) {
	res, err := Run(syntheticEnv(), "table1")
	if err != nil {
		t.Fatal(err)
	}
	// 6 benchmarks + total.
	if len(res.Table.Rows) != 7 {
		t.Fatalf("table1 has %d rows", len(res.Table.Rows))
	}
	if res.Table.Rows[6][0] != "total" {
		t.Errorf("last row %v", res.Table.Rows[6])
	}
}

func TestStaticTables(t *testing.T) {
	for _, id := range []string{"table2", "table3"} {
		res, err := Run(nil, id) // static tables need no env
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Table.Rows) == 0 {
			t.Errorf("%s empty", id)
		}
	}
}

func TestDiagrams(t *testing.T) {
	for _, id := range []string{"fig3", "fig4", "fig6", "fig12"} {
		if Diagram(id) == "" {
			t.Errorf("no diagram for %s", id)
		}
	}
	if Diagram("fig13") != "" {
		t.Error("data figure returned a diagram")
	}
}

func TestCacheStatsMemoized(t *testing.T) {
	env := syntheticEnv()
	cfg := stdConfig(1<<10, 16)
	a, err := env.CacheStats(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.CacheStats(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("memoized result differs")
	}
}

func TestCacheStatsBadConfig(t *testing.T) {
	env := syntheticEnv()
	if _, err := env.CacheStats(0, cache.Config{}); err == nil {
		t.Fatal("bad config accepted")
	}
}

// TestFig14AverageBand runs the headline experiment on the real (but
// truncated) workloads and checks the paper's central quantitative
// claim: at 8KB/16B, write-validate removes on the order of 30% of all
// misses.
func TestFig14AverageBand(t *testing.T) {
	if testing.Short() {
		t.Skip("real workloads in -short mode")
	}
	ts, err := workload.GenerateAll(1)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnvFromTraces(ts)
	var sum float64
	for ti := range env.Traces {
		red, err := missReductions(env, ti, StdCacheSize, StdLineSize)
		if err != nil {
			t.Fatal(err)
		}
		sum += red[cache.WriteValidate][1]
	}
	avg := sum / float64(len(env.Traces))
	if avg < 0.15 || avg > 0.55 {
		t.Errorf("write-validate total miss reduction at 8KB/16B = %.1f%%; paper reports ~31%%", avg*100)
	}
}

func TestPrecomputeWarmsMemo(t *testing.T) {
	env := syntheticEnv()
	if err := env.PrecomputeSweep(context.Background(), sweep.Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	// Every sweep config must now be memoized: CacheStats returns
	// without re-simulating. (Indirect check: results agree with a fresh
	// env's computation.)
	fresh := syntheticEnv()
	for ti := range env.Traces {
		for _, cfg := range SweepConfigs() {
			a, err := env.CacheStats(ti, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fresh.CacheStats(ti, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("precomputed stats differ for %s on trace %d", cfg, ti)
			}
		}
	}
}

func TestPrecomputeWorkerClamp(t *testing.T) {
	env := syntheticEnv()
	if err := env.PrecomputeSweep(context.Background(), sweep.Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheStatsConcurrent: the memoized environment is safe under
// concurrent figure runners (Precompute's contract).
func TestCacheStatsConcurrent(t *testing.T) {
	env := syntheticEnv()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				cfg := stdConfig(CacheSizes[i%len(CacheSizes)], StdLineSize)
				if _, err := env.CacheStats((w+i)%len(env.Traces), cfg); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
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
