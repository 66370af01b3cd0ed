// Command perfbench is the repository benchmark. One invocation runs
// one workload once and prints, as the last line of standard output,
// a JSON object with the keys correct, attempted, failed and metrics:
//
//	sh perfbench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//   - figures: every paperfigs experiment except ext-coh-*, in
//     paperfigs order, on an Env over the six scale-1 traces, with the
//     gang precompute first;
//   - coherence: the three ext-coh-* experiments on the same kind of
//     Env;
//   - serve: an in-process serve.Server behind a loopback listener,
//     driven in open loop by one generator at a fixed job rate.
//
// With --trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json. With --trace 1 the run repeats the timed phase with
// spans around every call into a layer, adds per-layer passes, and
// reports the per-layer metrics; every span is written to
// .bench_build/results. Per-layer metrics a workload does not exercise
// read 0.
//
// run.sh builds this package from the checkout and keeps every file
// the build and the runs write under .bench_build. The golden digests
// in goldens.json are regenerated from the current tree with
//
//	sh perfbench/run.sh --write-goldens
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool

	root     string // repository root (the checkout)
	stateDir string // <root>/.bench_build/state
	traceDir string // pre-filled trace cache under stateDir
	nproc    int
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	// notes are human-readable lines printed before the result, such
	// as each percentile's rank and sample count.
	notes []string
	// traces are the inputs the run used, hashed into the manifest.
	traceHashes map[string]string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, traceHashes: map[string]string{}}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail records n failed operations with the reason.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.notef("FAIL: "+format, args...)
}

// quantile stores q under name and notes its rank and sample count.
func (o *outcome) quantile(name string, q Quantile, ok bool) {
	if !ok {
		o.notef("%s: too few samples for this percentile", name)
		return
	}
	o.metrics[name] = q.Value
	o.notef("%s = %.4f (p%.1f of %d samples)", name, q.Value, 100*q.P, q.N)
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		o            options
		traceFlag    int
		writeGoldens bool
	)
	fs.StringVar(&o.workload, "workload", "", "workload: figures | coherence | serve")
	fs.Int64Var(&o.seed, "seed", 1, "input seed (the serve job mix; figures and coherence inputs are fixed)")
	fs.IntVar(&o.seconds, "seconds", 20, "run length: sizes the serve job count at its fixed rate")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.BoolVar(&writeGoldens, "write-goldens", false, "regenerate perfbench/goldens.json from the current tree and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	o.trace = traceFlag == 1
	o.nproc = runtime.GOMAXPROCS(0)
	o.stateDir = filepath.Join(o.root, ".bench_build", "state")
	o.traceDir = filepath.Join(o.stateDir, "traces")
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	if writeGoldens {
		return writeGoldenFile(ctx, &o)
	}

	spec, err := loadSpec(o.root)
	if err != nil {
		return err
	}
	var rec *Recorder
	if o.trace {
		rec = NewRecorder()
	}
	var out *outcome
	switch o.workload {
	case "figures":
		out, err = runEnvWorkload(ctx, &o, rec, figureIDs(), true)
	case "coherence":
		out, err = runEnvWorkload(ctx, &o, rec, coherenceIDs(), false)
	case "serve":
		out, err = runServe(ctx, &o, rec)
	default:
		return fmt.Errorf("unknown --workload %q (want figures, coherence or serve)", o.workload)
	}
	if err != nil {
		return err
	}
	res, err := buildResult(spec, out, o.trace)
	if err != nil {
		return err
	}
	man := newManifest(&o, out.traceHashes)
	if err := saveArtifacts(&o, rec, man, res); err != nil {
		return err
	}
	mj, err := json.Marshal(man)
	if err != nil {
		return err
	}
	fmt.Printf("manifest %s\n", mj)
	for _, n := range out.notes {
		fmt.Println(n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// loadSpec reads the metric declarations from BENCHMARK.json, the
// single place their names and units are defined.
func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// buildResult selects the declared metrics for the run's mode. Every
// end-to-end metric must have been measured; a per-layer metric the
// workload does not exercise reads 0. A measured name that
// BENCHMARK.json does not declare is a bug in the benchmark.
func buildResult(spec *benchSpec, out *outcome, traced bool) (result, error) {
	declared := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		declared[m.Name] = true
	}
	var undeclared []string
	for name := range out.metrics {
		if !declared[name] {
			undeclared = append(undeclared, name)
		}
	}
	if len(undeclared) > 0 {
		sort.Strings(undeclared)
		return result{}, fmt.Errorf("metrics missing from BENCHMARK.json: %s", strings.Join(undeclared, ", "))
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		return result{}, errors.New("no operation attempted")
	}
	if !traced {
		for _, m := range spec.EndToEnd {
			v, ok := out.metrics[m.Name]
			if !ok {
				return result{}, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
			}
			res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
		return res, nil
	}
	for _, m := range spec.PerLayer {
		res.Metrics[m.Name] = metricValue{Value: out.metrics[m.Name], Unit: m.Unit}
	}
	return res, nil
}

// saveArtifacts writes the manifest, the result and (traced runs) every
// span to .bench_build/results.
func saveArtifacts(o *options, rec *Recorder, man manifest, res result) error {
	dir := filepath.Join(o.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, boolInt(o.trace)))
	data, err := json.MarshalIndent(struct {
		Manifest manifest `json:"manifest"`
		Result   result   `json:"result"`
	}{man, res}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", data, 0o644); err != nil {
		return err
	}
	if rec == nil {
		return nil
	}
	return rec.Dump(base + ".spans.json")
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianDur is the nearest-rank median of ds.
func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	q, _ := Median(xs)
	return time.Duration(q.Value)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// addBreakdown reports the traced run's wall time split into per-layer
// self times (a span's layer is its name up to the first dot) plus the
// root's leftover, and checks that they add up.
func addBreakdown(out *outcome, rec *Recorder, root int) error {
	b := BreakdownOf(rec.Spans(), root)
	layers := map[string]time.Duration{}
	for name, d := range b.Self {
		layer, _, _ := strings.Cut(name, ".")
		layers[layer] += d
	}
	for layer, d := range layers {
		out.metrics["self."+layer+"_s"] = d.Seconds()
	}
	out.metrics["traced.wall_s"] = b.Wall.Seconds()
	out.metrics["traced.leftover_s"] = b.Leftover.Seconds()
	if diff := b.Total() - b.Wall; diff < -time.Microsecond || diff > time.Microsecond {
		return fmt.Errorf("traced breakdown does not add up: self times + leftover = %v, wall = %v", b.Total(), b.Wall)
	}
	out.notef("traced wall %.3fs = layer self times %.3fs + leftover %.3fs",
		b.Wall.Seconds(), (b.Total() - b.Leftover).Seconds(), b.Leftover.Seconds())
	return nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
