// Command sweepbench measures the gang sweep engine against the
// sequential per-configuration baseline on the full paper figure sweep
// (experiments.SweepConfigs x the six benchmark traces) and writes a
// JSON summary, the repository's tracked performance artifact:
//
//	go run ./cmd/sweepbench -workers auto -out BENCH_sweep.json
//
// The JSON reports wall-clock for both engines, the speedup, ns and
// allocations per config-event (one trace event applied to one cache
// configuration), the steady-state per-event and batched access-loop
// costs, a scaling[] matrix (one point per measured worker-pool size)
// and the recording host's metadata. `make bench` runs it;
// EXPERIMENTS.md documents how to read the output.
//
// With -compare PATH it instead acts as the regression gate: a fresh
// measurement is compared against the committed artifact at PATH and
// the process exits nonzero if the engine regressed or the artifact
// violates the scaling invariants (see compare.go). `make
// bench-compare` wires this into `make check`.
//
// Profiling: -cpuprofile/-memprofile write pprof profiles of the
// measurement, so perf work starts from a profile instead of a guess
// (recipe in EXPERIMENTS.md).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"cachewrite/internal/cache"
	"cachewrite/internal/experiments"
	"cachewrite/internal/resilience"
	"cachewrite/internal/sweep"
	"cachewrite/internal/trace"
	"cachewrite/internal/workload"
)

// Report is the schema of BENCH_sweep.json.
type Report struct {
	// Sweep shape.
	Traces       int   `json:"traces"`
	Configs      int   `json:"configs"`
	Events       int   `json:"events"`        // total trace events (one pass)
	ConfigEvents int64 `json:"config_events"` // events x configs = simulated accesses
	Workers      int   `json:"workers"`       // headline gang pool size (largest measured)

	// Whole-sweep wall clock (best observed iteration).
	SequentialWallNs int64   `json:"sequential_wall_ns"`
	GangWallNs       int64   `json:"gang_wall_ns"`
	Speedup          float64 `json:"speedup"` // sequential / gang, wall-clock

	// Normalized engine cost.
	SequentialNsPerEvent float64 `json:"sequential_ns_per_event"`
	GangNsPerEvent       float64 `json:"gang_ns_per_event"`
	GangAllocsPerEvent   float64 `json:"gang_allocs_per_event"` // includes per-sweep setup

	// Steady-state loops on a pre-built gang (no setup): the batched
	// kernel path the gang engine actually runs, and the generic
	// per-event Access path kept for comparison.
	BatchNsPerEvent      float64 `json:"batch_ns_per_event"`
	BatchAllocsPerEvent  float64 `json:"batch_allocs_per_event"` // acceptance: 0
	AccessNsPerEvent     float64 `json:"access_ns_per_event"`
	AccessAllocsPerEvent float64 `json:"access_allocs_per_event"` // acceptance: 0

	// Scaling is the worker-count matrix: one point per measured pool
	// (-workers auto records powers of two up to the full core count).
	Scaling []WorkerPoint `json:"scaling"`

	// Host records where the artifact was measured; the regression
	// gate only compares ns/event across identical CPU models.
	Host Host `json:"host"`
}

// WorkerPoint is one worker count of the scaling matrix.
type WorkerPoint struct {
	Workers    int   `json:"workers"`
	GangWallNs int64 `json:"gang_wall_ns"`
	// GangNsPerEvent is the gang wall clock normalized per simulated
	// access at this pool size.
	GangNsPerEvent float64 `json:"gang_ns_per_event"`
	// Speedup is sequential wall / gang wall at this pool size.
	Speedup float64 `json:"speedup"`
	// Efficiency is the parallel efficiency relative to the smallest
	// measured pool: (T_base * base) / (T_w * w). 1.0 means perfect
	// scaling from the base point; values sag as workers contend.
	Efficiency float64 `json:"efficiency"`
}

// Host identifies the measurement machine.
type Host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model,omitempty"`
	GoVersion  string `json:"go_version"`
}

// hostInfo collects the recording host's metadata.
func hostInfo() Host {
	return Host{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel returns the CPU model string from /proc/cpuinfo, or "" when
// unavailable (non-Linux hosts).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok {
			if strings.TrimSpace(name) == "model name" {
				return strings.TrimSpace(val)
			}
		}
	}
	return ""
}

func main() {
	var (
		out        = flag.String("out", "BENCH_sweep.json", "output JSON path ('-' for stdout)")
		scale      = flag.Int("scale", 1, "workload scale factor")
		events     = flag.Int("events", 250_000, "per-trace event cap (0 = full traces)")
		workers    = flag.String("workers", "0", "gang worker pool: a size (0 = all CPUs), a comma list '1,2,4' for a scaling matrix, or 'auto' for powers of two up to NumCPU")
		tcache     = flag.String("tracecache", "auto", "on-disk trace cache dir ('auto' = user cache dir, 'off' = disable)")
		force      = flag.Bool("force", false, "allow overwriting a multi-worker artifact with a workers=1 run")
		comparePth = flag.String("compare", "", "regression-gate mode: compare a fresh measurement against the committed artifact at this path and exit nonzero on regression (no artifact is written)")
		tolerance  = flag.Float64("tolerance", 0.10, "compare: max allowed fractional ns/event regression vs the committed artifact (same CPU model only)")
		minSpeedup = flag.Float64("min-speedup", 2.0, "compare: required speedup at the committed artifact's top worker count (enforced when it was recorded on a multi-core host)")
		maxSingle  = flag.Float64("max-single-ns", 12.7, "compare: max allowed committed single-worker gang ns/event (the pre-kernel baseline)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the measurement to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile after the measurement to this file")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	ts, err := workload.GenerateAllCached(workload.ResolveCacheDir(*tcache), *scale)
	if err != nil {
		fail(err)
	}
	for i, t := range ts {
		if *events > 0 && t.Len() > *events {
			ts[i] = t.Slice(0, *events)
		}
	}
	fmt.Fprintf(os.Stderr, "sweepbench: traces ready in %s\n", time.Since(start).Round(time.Millisecond))

	pools, err := parseWorkers(*workers)
	if err != nil {
		fail(err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	cfgs := experiments.SweepConfigs()
	rep, err := measure(ctx, ts, cfgs, pools)
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "sweepbench: interrupted")
		os.Exit(resilience.ExitInterrupted)
	}
	if err != nil {
		fail(err)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
		f.Close()
	}

	if *comparePth != "" {
		committed, err := loadReport(*comparePth)
		if err != nil {
			fail(fmt.Errorf("loading committed artifact: %w", err))
		}
		res := compareReports(committed, rep, compareOpts{
			Tolerance:  *tolerance,
			MinSpeedup: *minSpeedup,
			MaxSingle:  *maxSingle,
		})
		for _, w := range res.Warnings {
			fmt.Fprintf(os.Stderr, "sweepbench: compare: warning: %s\n", w)
		}
		summarize(os.Stderr, rep)
		if len(res.Problems) > 0 {
			for _, p := range res.Problems {
				fmt.Fprintf(os.Stderr, "sweepbench: compare: FAIL: %s\n", p)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "sweepbench: compare: ok — no regression vs %s\n", *comparePth)
		return
	}

	if *out != "-" {
		if err := guardDowngrade(*out, rep, *force); err != nil {
			fail(err)
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "sweepbench: wrote %s\n", *out)
	}
	summarize(os.Stderr, rep)
}

// summarize prints the one-line speedup summary plus the scaling
// matrix rows.
func summarize(w *os.File, rep Report) {
	fmt.Fprintf(w, "sweepbench: gang %.2fx vs sequential (%.1f -> %.1f ns/event), batch loop %.1f ns/event, access loop %.1f ns/event, %.3g allocs/event\n",
		rep.Speedup, rep.SequentialNsPerEvent, rep.GangNsPerEvent,
		rep.BatchNsPerEvent, rep.AccessNsPerEvent, rep.AccessAllocsPerEvent)
	for _, p := range rep.Scaling {
		fmt.Fprintf(w, "sweepbench: workers=%-3d %8s  %5.1f ns/event  speedup %.2fx  efficiency %.0f%%\n",
			p.Workers, time.Duration(p.GangWallNs).Round(time.Millisecond),
			p.GangNsPerEvent, p.Speedup, 100*p.Efficiency)
	}
}

// loadReport reads a committed BENCH_sweep.json.
func loadReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// guardDowngrade refuses to overwrite a multi-worker artifact with a
// workers=1 run: the committed scaling matrix is the repo's proof of
// parallel speedup, and a single-worker rerun would silently erase it
// (exactly how the original workers:1 artifact went stale). -force
// overrides for hosts where one worker is all there is.
func guardDowngrade(path string, rep Report, force bool) error {
	if force || rep.Workers > 1 {
		return nil
	}
	prev, err := loadReport(path)
	if err != nil {
		// No previous artifact (or unreadable): nothing to protect.
		return nil
	}
	if prev.Workers > 1 {
		return fmt.Errorf("%s was recorded at workers=%d; refusing to overwrite it with a workers=%d run (rerun with -workers auto, or pass -force to downgrade deliberately)",
			path, prev.Workers, rep.Workers)
	}
	return nil
}

// parseWorkers expands the -workers flag: a single size, a comma list
// (a scaling matrix), or "auto" (powers of two up to NumCPU, plus
// NumCPU itself when it is not a power of two).
func parseWorkers(s string) ([]int, error) {
	if s == "auto" {
		n := runtime.NumCPU()
		var pools []int
		for w := 1; w < n; w *= 2 {
			pools = append(pools, w)
		}
		pools = append(pools, n)
		return pools, nil
	}
	parts := strings.Split(s, ",")
	pools := make([]int, 0, len(parts))
	for _, p := range parts {
		w, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad -workers value %q: %w", p, err)
		}
		if len(parts) > 1 && w < 1 {
			return nil, fmt.Errorf("worker matrix entries must be >= 1, got %d", w)
		}
		if w < 0 {
			return nil, fmt.Errorf("workers must be >= 0, got %d", w)
		}
		pools = append(pools, w)
	}
	return pools, nil
}

// benchRounds is how many times each benchmark is repeated; the
// fastest round is kept. testing.Benchmark averages within one
// invocation, but on a shared host the whole invocation can land in a
// slow period — the minimum across rounds approximates unloaded
// machine speed, which is what a cross-run regression gate has to
// compare.
const benchRounds = 3

// best runs the benchmark benchRounds times and keeps the round with
// the lowest ns/op.
func best(f func(b *testing.B)) testing.BenchmarkResult {
	r := testing.Benchmark(f)
	for i := 1; i < benchRounds; i++ {
		if next := testing.Benchmark(f); next.NsPerOp() < r.NsPerOp() {
			r = next
		}
	}
	return r
}

// measure runs the benchmarks and assembles the report: the
// sequential baseline once, the gang engine once per requested pool
// size (the largest pool populates the headline gang numbers, every
// pool populates Scaling), and the steady-state batch and per-event
// access loops. A cancelled ctx stops between iterations and surfaces
// as context.Canceled instead of a half-measured report.
func measure(ctx context.Context, ts []*trace.Trace, cfgs []cache.Config, pools []int) (Report, error) {
	totalEvents := 0
	for _, t := range ts {
		totalEvents += t.Len()
	}
	configEvents := int64(totalEvents) * int64(len(cfgs))

	var benchErr error
	seq := best(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, t := range ts {
				if benchErr = ctx.Err(); benchErr != nil {
					return
				}
				for _, cfg := range cfgs {
					c, err := cache.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					c.AccessTrace(t)
					c.Flush()
					_ = c.Stats()
				}
			}
		}
	})
	if benchErr != nil {
		return Report{}, benchErr
	}

	type gangRun struct {
		workers int // resolved pool size
		result  testing.BenchmarkResult
	}
	runs := make([]gangRun, 0, len(pools))
	for _, w := range pools {
		gang := best(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sweep.Sweep(ctx, ts, cfgs, sweep.Options{Workers: w}); err != nil {
					benchErr = err
					return
				}
			}
		})
		if benchErr != nil {
			return Report{}, benchErr
		}
		if w < 1 {
			w = runtime.GOMAXPROCS(0)
		}
		runs = append(runs, gangRun{workers: w, result: gang})
	}
	// The largest pool is the headline configuration.
	head := runs[0]
	for _, r := range runs[1:] {
		if r.workers > head.workers {
			head = r
		}
	}
	gang := head.result
	workers := head.workers

	// Steady-state loops: pre-built gang of one shard, no per-sweep
	// setup. The batch loop is the path the gang engine runs (decode
	// once per geometry, kernel per cache); the access loop is the
	// generic per-event path, kept for comparison.
	shard := cfgs
	if len(shard) > sweep.DefaultShard {
		shard = shard[:sweep.DefaultShard]
	}
	caches := make([]*cache.Cache, len(shard))
	for i, cfg := range shard {
		caches[i] = cache.MustNew(cfg)
	}
	const batchWindow = 8192
	groups := groupByGeometry(caches)
	dec := make([]cache.Decoded, batchWindow)
	batch := best(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if benchErr = ctx.Err(); benchErr != nil {
				return
			}
			events := ts[0].Events
			for start := 0; start < len(events); start += batchWindow {
				end := start + batchWindow
				if end > len(events) {
					end = len(events)
				}
				window := events[start:end]
				for _, g := range groups {
					g[0].DecodeBatch(window, dec)
					for _, c := range g {
						c.AccessBatch(window, dec)
					}
				}
			}
		}
	})
	if benchErr != nil {
		return Report{}, benchErr
	}
	access := best(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if benchErr = ctx.Err(); benchErr != nil {
				return
			}
			for _, e := range ts[0].Events {
				for _, c := range caches {
					c.Access(e)
				}
			}
		}
	})
	if benchErr != nil {
		return Report{}, benchErr
	}
	loopEvents := int64(ts[0].Len()) * int64(len(shard))

	seqNs := seq.NsPerOp()
	gangNs := gang.NsPerOp()

	// Scaling matrix: one point per measured pool; efficiency is
	// relative to the smallest measured pool, so -workers 1,2,4 reads
	// as classic parallel efficiency.
	base := runs[0]
	for _, r := range runs[1:] {
		if r.workers < base.workers {
			base = r
		}
	}
	baseWork := float64(base.result.NsPerOp()) * float64(base.workers)
	scaling := make([]WorkerPoint, 0, len(runs))
	for _, r := range runs {
		scaling = append(scaling, WorkerPoint{
			Workers:        r.workers,
			GangWallNs:     r.result.NsPerOp(),
			GangNsPerEvent: float64(r.result.NsPerOp()) / float64(configEvents),
			Speedup:        float64(seqNs) / float64(r.result.NsPerOp()),
			Efficiency:     baseWork / (float64(r.result.NsPerOp()) * float64(r.workers)),
		})
	}

	return Report{
		Traces:       len(ts),
		Configs:      len(cfgs),
		Events:       totalEvents,
		ConfigEvents: configEvents,
		Workers:      workers,

		SequentialWallNs: seqNs,
		GangWallNs:       gangNs,
		Speedup:          float64(seqNs) / float64(gangNs),

		SequentialNsPerEvent: float64(seqNs) / float64(configEvents),
		GangNsPerEvent:       float64(gangNs) / float64(configEvents),
		GangAllocsPerEvent:   float64(gang.AllocsPerOp()) / float64(configEvents),

		BatchNsPerEvent:     float64(batch.NsPerOp()) / float64(loopEvents),
		BatchAllocsPerEvent: float64(batch.AllocsPerOp()) / float64(loopEvents),

		AccessNsPerEvent:     float64(access.NsPerOp()) / float64(loopEvents),
		AccessAllocsPerEvent: float64(access.AllocsPerOp()) / float64(loopEvents),

		Scaling: scaling,
		Host:    hostInfo(),
	}, nil
}

// groupByGeometry buckets the benchmark gang by cache.Geometry so the
// batch loop decodes once per geometry, mirroring the sweep engine's
// fan-out (internal/sweep keeps its own unexported copy; this one
// exists because the steady-state loop is built here, not there).
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

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sweepbench:", err)
	os.Exit(1)
}
