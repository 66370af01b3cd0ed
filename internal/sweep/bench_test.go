package sweep

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
)

// paperConfigs mirrors the experiments package's figure sweep: the
// capacity sweep at 16B lines plus the line-size sweep at 8KB, each
// under all four write-miss policies.
func paperConfigs() []cache.Config {
	var cfgs []cache.Config
	add := func(size, line int) {
		for _, p := range cache.WriteMissPolicies() {
			cfgs = append(cfgs, cache.Config{Size: size, LineSize: line, Assoc: 1,
				WriteHit: p.PairedWriteHit(), WriteMiss: p})
		}
	}
	for _, size := range []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10} {
		add(size, 16)
	}
	for _, line := range []int{4, 8, 32, 64} {
		add(8<<10, line)
	}
	return cfgs
}

const benchEvents = 100_000

func benchTraces() []*trace.Trace {
	ts := make([]*trace.Trace, 6)
	for i := range ts {
		ts[i] = testTrace(benchEvents)
	}
	return ts
}

// reportPerEvent attaches ns/event and allocs/event metrics, where an
// "event" is one trace event applied to one cache configuration.
func reportPerEvent(b *testing.B, configEvents int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(configEvents), "ns/event")
}

// sequentialSweep is the pre-gang baseline: one full pass over every
// trace per configuration, single-threaded.
func sequentialSweep(tb testing.TB, ts []*trace.Trace, cfgs []cache.Config) {
	for _, t := range ts {
		for _, cfg := range cfgs {
			c, err := cache.New(cfg)
			if err != nil {
				tb.Fatal(err)
			}
			c.AccessTrace(t)
			c.Flush()
			_ = c.Stats()
		}
	}
}

// BenchmarkSweepSequential times sequentialSweep over the paper sweep.
func BenchmarkSweepSequential(b *testing.B) {
	ts := benchTraces()
	cfgs := paperConfigs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sequentialSweep(b, ts, cfgs)
	}
	b.StopTimer()
	reportPerEvent(b, len(ts)*len(cfgs)*benchEvents)
}

// BenchmarkSweepGang runs the same matrix through the gang engine and
// the parallel scheduler (GOMAXPROCS workers).
func BenchmarkSweepGang(b *testing.B) {
	ts := benchTraces()
	cfgs := paperConfigs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(context.Background(), ts, cfgs, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPerEvent(b, len(ts)*len(cfgs)*benchEvents)
}

// BenchmarkSweepGangSingle isolates the single-pass win from the
// parallelism win: gang engine, one worker.
func BenchmarkSweepGangSingle(b *testing.B) {
	ts := benchTraces()
	cfgs := paperConfigs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(context.Background(), ts, cfgs, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPerEvent(b, len(ts)*len(cfgs)*benchEvents)
}

// BenchmarkGangAccess measures the steady-state access loop alone:
// pre-built gang, allocation-free event fan-out.
func BenchmarkGangAccess(b *testing.B) {
	t := testTrace(benchEvents)
	cfgs := paperConfigs()[:DefaultShard]
	caches := make([]*cache.Cache, len(cfgs))
	for i, cfg := range cfgs {
		caches[i] = cache.MustNew(cfg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range t.Events {
			for _, c := range caches {
				c.Access(e)
			}
		}
	}
	b.StopTimer()
	reportPerEvent(b, len(cfgs)*benchEvents)
}

// TestAccessZeroAlloc pins the acceptance criterion that the
// steady-state access loop performs zero allocations per event, under
// each write-miss policy with its paired write-hit policy.
func TestAccessZeroAlloc(t *testing.T) {
	tr := testTrace(5000)
	for _, p := range cache.WriteMissPolicies() {
		c := cache.MustNew(cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1,
			WriteHit: p.PairedWriteHit(), WriteMiss: p})
		// Warm once so steady state (not cold-map growth) is measured.
		c.AccessTrace(tr)
		if av := testing.AllocsPerRun(10, func() { c.AccessTrace(tr) }); av != 0 {
			t.Errorf("%v: steady-state access loop allocates: %v allocs/run", p, av)
		}
	}
}

// minSpeedup is the least speedup over sequentialSweep that
// TestGangSpeedupFloor accepts from the gang engine, at one worker and
// at GOMAXPROCS workers.
const minSpeedup = 1.2

// TestGangSpeedupFloor is the live check on single-pass multi-config
// simulation: over the 48 paper configs, the gang engine must beat one
// cache.New and AccessTrace per config by minSpeedup with one worker
// (the batch kernels' win alone) and, given two or more CPUs, with
// GOMAXPROCS workers. The engines run in speedRounds rounds, each round
// starting with the next engine in turn so none always runs first, and
// each floor applies to the median of the rounds' ratios: engines
// timed in one round share the host's load at that moment, and the
// median discards the rounds a burst of it hit one engine only. The
// one-worker ratio compares CPU time, which other processes on a busy
// host (go test ./... runs packages side by side) inflate far less
// than wall time; a parallel speedup shows only in wall time. The race
// detector slows the kernels far more than the baseline, so the test
// skips under it, and under -short.
func TestGangSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped under -short")
	}
	if raceEnabled {
		t.Skip("timing test; the race detector distorts the ratios")
	}
	// One long trace: each engine builds every cache once per trace,
	// and that setup, paid alike by both, would dilute the per-event
	// win that the floor is about.
	ts := []*trace.Trace{testTrace(120_000)}
	cfgs := paperConfigs()
	procs := runtime.GOMAXPROCS(0)
	gang := func(workers int) func() {
		return func() {
			if _, err := Sweep(context.Background(), ts, cfgs, Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
		}
	}
	engines := []func(){func() { sequentialSweep(t, ts, cfgs) }, gang(1), gang(procs)}
	const speedRounds = 11
	var singles, alls []float64
	for round := 0; round < speedRounds; round++ {
		wall := make([]time.Duration, len(engines))
		cpu := make([]time.Duration, len(engines))
		for j := range engines {
			i := (round + j) % len(engines)
			runtime.GC() // so no run pays for garbage the one before it left
			start, startCPU := time.Now(), cpuTime(t)
			engines[i]()
			wall[i], cpu[i] = time.Since(start), cpuTime(t)-startCPU
		}
		singles = append(singles, float64(cpu[0])/float64(cpu[1]))
		alls = append(alls, float64(wall[0])/float64(wall[2]))
	}
	slices.Sort(singles)
	slices.Sort(alls)
	single, all := singles[speedRounds/2], alls[speedRounds/2]
	t.Logf("median of %d rounds: gang at 1 worker %.2fx the sequential CPU time (rounds %.2f); gang at %d workers %.2fx its wall time (rounds %.2f)",
		speedRounds, single, singles, procs, all, alls)
	if single < minSpeedup {
		t.Errorf("gang at 1 worker is %.2fx the sequential baseline, below the %.1fx floor", single, minSpeedup)
	}
	switch {
	case procs < 2:
		t.Log("GOMAXPROCS is 1: only the one-worker floor applies")
	case all < minSpeedup:
		t.Errorf("gang at %d workers is %.2fx the sequential baseline, below the %.1fx floor", procs, all, minSpeedup)
	}
}
