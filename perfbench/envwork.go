package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"cachewrite/internal/cache"
	"cachewrite/internal/experiments"
	"cachewrite/internal/sweep"
	"cachewrite/internal/textplot"
	"cachewrite/internal/trace"
	"cachewrite/internal/workload"
)

// setupRepeats is how many times a run performs its set-up; setup_s
// is the median.
const setupRepeats = 9

// mainRun is the run id of the benchmark's own sequential spans.
const mainRun = "main"

//go:embed goldens.json
var goldensJSON []byte

//go:embed layers.json
var layersJSON []byte

// golden is one experiment's expected rendering.
type golden struct {
	ID     string `json:"id"`
	SHA256 string `json:"sha256"`
	Bytes  int    `json:"bytes"`
}

type goldenFile struct {
	GeneratorVersion int      `json:"generator_version"`
	IDs              []golden `json:"ids"`
}

// layerMap assigns experiment ids to the simulator layer doing their
// work, for the <layer>.busy_s roll-ups.
type layerMap struct {
	IDLayer map[string]string `json:"id_layer"`
}

func loadGoldens() (map[string]golden, error) {
	var f goldenFile
	if err := json.Unmarshal(goldensJSON, &f); err != nil {
		return nil, fmt.Errorf("goldens.json: %w", err)
	}
	if f.GeneratorVersion != workload.GeneratorVersion {
		return nil, fmt.Errorf("goldens.json was made with generator version %d, traces are version %d; regenerate it",
			f.GeneratorVersion, workload.GeneratorVersion)
	}
	m := make(map[string]golden, len(f.IDs))
	for _, g := range f.IDs {
		m[g.ID] = g
	}
	return m, nil
}

func loadLayerMap() (layerMap, error) {
	var m layerMap
	if err := json.Unmarshal(layersJSON, &m); err != nil {
		return m, fmt.Errorf("layers.json: %w", err)
	}
	return m, nil
}

// figureIDs is every experiment paperfigs -all runs except ext-coh-*,
// in paperfigs order; coherenceIDs is the ext-coh-* rest.
func figureIDs() []string    { return splitIDs(false) }
func coherenceIDs() []string { return splitIDs(true) }

func splitIDs(coh bool) []string {
	var ids []string
	for _, id := range experiments.IDs() {
		if strings.HasPrefix(id, "ext-coh-") == coh {
			ids = append(ids, id)
		}
	}
	return ids
}

// render is one experiment's paperfigs text output (default format,
// no plot), byte for byte what paperfigs -all prints for it.
func render(res experiments.Result) []byte {
	var b bytes.Buffer
	if res.Chart != nil {
		fmt.Fprintln(&b, textplot.RenderChart(res.Chart))
	}
	if res.Table != nil {
		fmt.Fprintln(&b, textplot.RenderTable(res.Table))
	}
	fmt.Fprintln(&b)
	return b.Bytes()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// envSetup decodes the six scale-1 traces from the pre-filled trace
// cache and wraps them in an Env, setupRepeats times, and returns the
// last Env with every set-up time.
func envSetup(o *options, rec *Recorder, root int) ([]*trace.Trace, []time.Duration, []time.Duration, error) {
	// Fill the cache first (untimed): only the first run in a checkout
	// generates.
	var err error
	timed(rec, "workload.GenerateAllCached", root, func() { _, err = workload.GenerateAllCached(o.traceDir, 1) })
	if err != nil {
		return nil, nil, nil, err
	}
	var (
		ts             []*trace.Trace
		setups, decode []time.Duration
	)
	for i := 0; i < setupRepeats; i++ {
		ts = nil
		debug.FreeOSMemory() // each set-up starts from the same heap, its memory fresh from the OS as in a new process
		sp := rec.Start("bench.setup", root, mainRun)
		start := time.Now()
		d := rec.Start("workload.GenerateAllCached", sp, mainRun)
		ts, err = workload.GenerateAllCached(o.traceDir, 1)
		rec.End(d)
		decode = append(decode, time.Since(start))
		if err != nil {
			return nil, nil, nil, err
		}
		e := rec.Start("experiments.NewEnvFromTraces", sp, mainRun)
		_ = experiments.NewEnvFromTraces(ts)
		rec.End(e)
		setups = append(setups, time.Since(start))
		rec.End(sp)
	}
	return ts, setups, decode, nil
}

// phaseResult is what one timed pass over the experiment ids saw.
type phaseResult struct {
	wall     time.Duration
	cpu      time.Duration
	failed   int
	failures []string
	perID    map[string]time.Duration
	computes uint64
	// precompute observations (figures only)
	precompute time.Duration
	units      int
	unitBusy   time.Duration
}

// runPhase is the timed phase: the gang precompute (figures) then
// every id in order on a fresh Env, each rendered and checked against
// its golden digest.
func runPhase(ctx context.Context, o *options, rec *Recorder, parent int, ts []*trace.Trace, ids []string, precompute bool, goldens map[string]golden) (phaseResult, error) {
	env := experiments.NewEnvFromTraces(ts)
	pr := phaseResult{perID: map[string]time.Duration{}}
	runtime.GC()
	p := rec.Start("bench.phase", parent, mainRun)
	start := time.Now()
	cpu0 := cpuTime()
	if precompute {
		s := rec.Start("sweep.precompute", p, mainRun)
		var (
			mu       sync.Mutex
			lastDone = map[int]time.Time{}
		)
		pstart := time.Now()
		opt := sweep.Options{
			Workers: o.nproc,
			OnEvent: func(e sweep.Event) {
				if e.Kind != sweep.UnitDone {
					return
				}
				now := time.Now()
				mu.Lock()
				defer mu.Unlock()
				from, ok := lastDone[e.Worker]
				if !ok {
					from = pstart
				}
				lastDone[e.Worker] = now
				pr.units++
				pr.unitBusy += now.Sub(from)
				rec.Add("sweep.unit", 0, fmt.Sprintf("sweep-worker-%d", e.Worker), from, now)
			},
		}
		if err := env.PrecomputeSweep(ctx, opt); err != nil {
			return pr, fmt.Errorf("precompute: %w", err)
		}
		pr.precompute = time.Since(pstart)
		rec.End(s)
	}
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return pr, err
		}
		s := rec.Start("experiments."+id, p, mainRun)
		t0 := time.Now()
		res, err := experiments.Run(env, id)
		pr.perID[id] = time.Since(t0)
		rec.End(s)
		if err != nil {
			pr.failed++
			pr.failures = append(pr.failures, fmt.Sprintf("%s: %v", id, err))
			continue
		}
		g, ok := goldens[id]
		if out := render(res); !ok || digest(out) != g.SHA256 || len(out) != g.Bytes {
			pr.failed++
			pr.failures = append(pr.failures, fmt.Sprintf("%s: rendered output does not match its golden digest", id))
		}
	}
	pr.wall = time.Since(start)
	pr.cpu = cpuTime() - cpu0
	rec.End(p)
	pr.computes = env.Computes()
	return pr, nil
}

// runEnvWorkload runs the figures workload (gang precompute first; the
// cache pass on the figure sweep's configurations) or, with figures
// unset, the coherence workload (the cache pass on the coherence L1s,
// then the coherence pass).
func runEnvWorkload(ctx context.Context, o *options, rec *Recorder, ids []string, figures bool) (*outcome, error) {
	goldens, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.attempted = len(ids)
	root := rec.Start("bench.run", 0, mainRun)

	ts, setups, decode, err := envSetup(o, rec, root)
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = medianDur(setups).Seconds()
	out.notef("set-up times %v", setups)
	out.metrics["workload.decode_s"] = medianDur(decode).Seconds()

	if !o.trace {
		pr, err := runPhase(ctx, o, nil, 0, ts, ids, figures, goldens)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		out.metrics["wall_s"] = pr.wall.Seconds()
		out.metrics["cpu_s"] = pr.cpu.Seconds()
		out.metrics["peak_rss_mb"] = rss
		reportFailures(out, pr)
		out.metrics["ok_frac"] = 1 - float64(out.failed)/float64(out.attempted)
		hashTraces(out, ts)
		return out, nil
	}

	// Traced run: cold generation, the untraced phase as the overhead
	// baseline, the traced phase, then the per-layer passes.
	if err := coldGenerate(o, rec, root, out); err != nil {
		return nil, err
	}
	b := rec.Start("bench.baseline", root, mainRun)
	base, err := runPhase(ctx, o, nil, 0, ts, ids, figures, goldens)
	rec.End(b)
	if err != nil {
		return nil, err
	}
	pr, err := runPhase(ctx, o, rec, root, ts, ids, figures, goldens)
	if err != nil {
		return nil, err
	}
	reportFailures(out, base)
	reportFailures(out, pr)
	out.attempted += len(ids)
	out.metrics["trace_overhead_frac"] = pr.wall.Seconds()/base.wall.Seconds() - 1
	if err := phaseLayerMetrics(out, pr, ts, ids, figures); err != nil {
		return nil, err
	}

	var cfgs []cache.Config
	if figures {
		cfgs = experiments.SweepConfigs()
	} else {
		cfgs = cohL1Configs()
	}
	if err := cachePass(rec, root, out, ts, cfgs); err != nil {
		return nil, err
	}
	if !figures {
		if err := coherencePass(rec, root, out, ts); err != nil {
			return nil, err
		}
	}
	rec.End(root)
	hashTraces(out, ts)
	out.metrics["fail_frac"] = float64(out.failed) / float64(out.attempted)
	return out, addBreakdown(out, rec, root)
}

func reportFailures(out *outcome, pr phaseResult) {
	if pr.failed > 0 {
		out.fail(pr.failed, "%s", strings.Join(pr.failures, "; "))
	}
}

// phaseLayerMetrics derives the per-experiment, roll-up and scheduler
// metrics from the traced phase.
func phaseLayerMetrics(out *outcome, pr phaseResult, ts []*trace.Trace, ids []string, precompute bool) error {
	lm, err := loadLayerMap()
	if err != nil {
		return err
	}
	var inIDs time.Duration
	for _, id := range ids {
		d := pr.perID[id]
		inIDs += d
		out.metrics["experiments."+id+"_s"] = d.Seconds()
		if layer, ok := lm.IDLayer[id]; ok {
			out.metrics[layer+".busy_s"] += d.Seconds()
		}
	}
	out.metrics["experiments.memo_computes"] = float64(pr.computes)
	out.metrics["experiments.leftover_s"] = (pr.wall - inIDs - pr.precompute).Seconds()
	if precompute {
		var cfgEvents float64
		nc := float64(len(experiments.SweepConfigs()))
		for _, t := range ts {
			cfgEvents += nc * float64(t.Len())
		}
		workers := float64(runtime.GOMAXPROCS(0))
		out.metrics["sweep.precompute_s"] = pr.precompute.Seconds()
		out.metrics["sweep.units"] = float64(pr.units)
		out.metrics["sweep.ns_per_cfg_event"] = float64(pr.precompute) / cfgEvents
		out.metrics["sweep.worker_busy_frac"] = pr.unitBusy.Seconds() / (workers * pr.precompute.Seconds())
	}
	return nil
}

// coldGenerate times generating the six traces into an empty cache
// directory, removed afterwards.
func coldGenerate(o *options, rec *Recorder, root int, out *outcome) error {
	dir, err := os.MkdirTemp(o.stateDir, "cold-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	g := rec.Start("workload.generate_cold", root, mainRun)
	start := time.Now()
	_, err = workload.GenerateAllCached(dir, 1)
	out.metrics["workload.generate_s"] = time.Since(start).Seconds()
	rec.End(g)
	return err
}

func hashTraces(out *outcome, ts []*trace.Trace) {
	for _, t := range ts {
		out.traceHashes[t.Name] = traceHash(t)
	}
}

// writeGoldenFile renders every experiment on a fresh Env (after the
// gang precompute, as paperfigs -all does), checks that
// docs/figures.txt is a byte prefix of the concatenated output, and
// writes perfbench/goldens.json.
func writeGoldenFile(ctx context.Context, o *options) error {
	ts, err := workload.GenerateAllCached(o.traceDir, 1)
	if err != nil {
		return err
	}
	env := experiments.NewEnvFromTraces(ts)
	if err := env.PrecomputeSweep(ctx, sweep.Options{Workers: o.nproc}); err != nil {
		return err
	}
	f := goldenFile{GeneratorVersion: workload.GeneratorVersion}
	var all bytes.Buffer
	for _, id := range experiments.IDs() {
		res, err := experiments.Run(env, id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		b := render(res)
		all.Write(b)
		f.IDs = append(f.IDs, golden{ID: id, SHA256: digest(b), Bytes: len(b)})
		fmt.Fprintf(os.Stderr, "perfbench: %s %d bytes\n", id, len(b))
	}
	doc, err := os.ReadFile(filepath.Join(o.root, "docs", "figures.txt"))
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(all.Bytes(), doc) {
		return fmt.Errorf("docs/figures.txt is not a byte prefix of the rendered experiments")
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.root, "perfbench", "goldens.json"), append(data, '\n'), 0o644)
}
