// Command paperfigs regenerates the figures and tables of Jouppi,
// "Cache Write Policies and Performance" (WRL 91/12 / ISCA 1993) from
// the simulator in this repository.
//
// Usage:
//
//	paperfigs -all              # every figure and table
//	paperfigs -id fig13,fig14   # selected experiments
//	paperfigs -id fig13 -plot   # include an ASCII plot
//	paperfigs -list             # list experiment ids
//	paperfigs -scale 2          # run the workloads at 2x length
//	paperfigs -workers 4        # simulation worker pool size
//	paperfigs -tracecache off   # disable the on-disk trace cache
//	paperfigs -all -checkpoint run.ckpt   # crash-safe: re-run resumes
//
// Traces load from the on-disk trace cache when available (see
// -tracecache); the figure sweep is precomputed by the gang engine in
// internal/sweep. Progress is logged to stderr; results go to stdout.
//
// Robustness: with -checkpoint set, the figure sweep and every
// completed experiment are journaled through internal/resilience, so a
// run killed mid-sweep (even with SIGKILL) resumes from its journals
// when re-invoked with the same flags, recomputing only the missing
// figures. SIGINT/SIGTERM flush a final checkpoint and exit with code
// 3. A failing experiment no longer aborts the run: every figure that
// does compute is still emitted, the failures land in a
// machine-readable manifest (-failures, default failures.json), and
// the exit code is 1 only after all computable work has finished.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"cachewrite/internal/experiments"
	"cachewrite/internal/resilience"
	"cachewrite/internal/sweep"
	"cachewrite/internal/textplot"
	"cachewrite/internal/vfs"
	"cachewrite/internal/workload"
)

// Test seams: the CLI tests swap these to inject tiny environments and
// deliberate experiment failures.
var (
	newEnv        = experiments.NewEnvCached
	runExperiment = experiments.Run
)

// resultsVersion is the per-experiment results journal schema version;
// bump it when experiments.Result (or the stats types inside it)
// changes shape.
const resultsVersion = 1

// resultsState is the journaled per-experiment progress: a re-run
// renders completed experiments from here and recomputes only the
// missing ones. Scale and generator version bind the journal to the
// exact workload inputs.
type resultsState struct {
	Scale            int                           `json:"scale"`
	GeneratorVersion int                           `json:"generatorVersion"`
	Results          map[string]experiments.Result `json:"results"`
}

// manifestEntry is one failed experiment in the failures manifest.
type manifestEntry struct {
	ID    string `json:"id"`
	Error string `json:"error"`
}

// failureManifest is the schema of failures.json: everything a caller
// needs to retry or triage without parsing stderr.
type failureManifest struct {
	Tool     string          `json:"tool"`
	Scale    int             `json:"scale"`
	Failures []manifestEntry `json:"failures"`
}

// session carries one invocation's shared state.
type session struct {
	ctx     context.Context
	env     *experiments.Env
	stdout  io.Writer
	stderr  io.Writer
	scale   int
	fs      vfs.FS // the failures manifest is written through it
	journal *resilience.Journal[resultsState]
	state   resultsState

	failures []manifestEntry
	errs     []error
}

// progressf logs one progress line to stderr (stdout is reserved for
// results).
func (s *session) progressf(format string, args ...any) {
	fmt.Fprintf(s.stderr, "paperfigs: "+format+"\n", args...)
}

// result returns the experiment's result, from the journal when the
// id was already computed by an earlier (interrupted) run, computing
// and journaling it otherwise.
func (s *session) result(id string) (experiments.Result, bool, error) {
	if res, ok := s.state.Results[id]; ok {
		return res, true, nil
	}
	res, err := runExperiment(s.env, id)
	if err != nil {
		return res, false, err
	}
	if s.journal != nil {
		s.state.Results[id] = res
		if serr := s.journal.Save(s.state); serr != nil {
			s.progressf("warning: checkpoint save failed: %v", serr)
		}
	}
	return res, false, nil
}

// fail records one experiment failure; the run keeps going.
func (s *session) fail(id string, err error) {
	s.failures = append(s.failures, manifestEntry{ID: id, Error: err.Error()})
	s.errs = append(s.errs, fmt.Errorf("%s: %w", id, err))
	s.progressf("%s failed (continuing): %v", id, err)
}

// writeManifest atomically writes (or, when the run was clean, clears)
// the failures manifest: temp file, Sync, then rename, so a crash
// leaves the old manifest or the whole new one, never an empty file.
func (s *session) writeManifest(path string) error {
	if path == "" {
		return nil
	}
	if len(s.failures) == 0 {
		// A stale manifest from a previous bad run must not outlive a
		// clean one.
		if err := s.fs.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		return nil
	}
	m := failureManifest{Tool: "paperfigs", Scale: s.scale, Failures: s.failures}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp, err := s.fs.CreateTemp(filepath.Dir(path), ".failures-*")
	if err != nil {
		return err
	}
	defer s.fs.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return s.fs.Rename(tmp.Name(), path)
}

// writeReport renders every experiment (and the organization diagrams)
// into one Markdown document. Failed experiments become a note in the
// report and a manifest entry instead of aborting the document.
func (s *session) writeReport(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# Cache Write Policies and Performance — full reproduction report\n\n")
	fmt.Fprintf(f, "Generated by `paperfigs -report` at workload scale %d.\n\n", s.scale)
	ids := experiments.IDs()
	for i, id := range ids {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		desc, _ := experiments.Describe(id)
		start := time.Now()
		fmt.Fprintf(f, "## %s — %s\n\n", id, desc)
		res, restored, err := s.result(id)
		if err != nil {
			s.fail(id, err)
			fmt.Fprintf(f, "*Experiment failed: %v*\n\n", err)
			continue
		}
		if res.Chart != nil {
			fmt.Fprintln(f, textplot.RenderChartMarkdown(res.Chart))
		}
		if res.Table != nil {
			fmt.Fprintln(f, textplot.RenderTableMarkdown(res.Table))
		}
		note := ""
		if restored {
			note = ", from checkpoint"
		}
		s.progressf("[%d/%d] %s — %s (%s%s)", i+1, len(ids), id, desc,
			time.Since(start).Round(time.Millisecond), note)
	}
	fmt.Fprintf(f, "## Organization diagrams\n\n")
	for _, d := range []string{"fig3", "fig4", "fig6", "fig12"} {
		fmt.Fprintf(f, "```\n%s\n```\n\n", experiments.Diagram(d))
	}
	return nil
}

// renderOne writes one experiment's chart/table to stdout in the
// requested format.
func (s *session) renderOne(res experiments.Result, format string, plot bool) error {
	if res.Chart != nil {
		switch format {
		case "markdown":
			fmt.Fprintln(s.stdout, textplot.RenderChartMarkdown(res.Chart))
		case "csv":
			if err := textplot.WriteChartCSV(s.stdout, res.Chart); err != nil {
				return err
			}
		default:
			fmt.Fprintln(s.stdout, textplot.RenderChart(res.Chart))
		}
		if plot {
			fmt.Fprintln(s.stdout, textplot.RenderASCIIPlot(res.Chart, 72, 20))
		}
	}
	if res.Table != nil {
		switch format {
		case "markdown":
			fmt.Fprintln(s.stdout, textplot.RenderTableMarkdown(res.Table))
		case "csv":
			if err := textplot.WriteTableCSV(s.stdout, res.Table); err != nil {
				return err
			}
		default:
			fmt.Fprintln(s.stdout, textplot.RenderTable(res.Table))
		}
	}
	return nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process-global parts, so tests can drive the
// CLI end to end. It returns the exit code: 0 success, 1 experiment or
// I/O failure (after finishing all computable work), 2 usage,
// resilience.ExitInterrupted after cancellation.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperfigs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		all        = fs.Bool("all", false, "run every experiment")
		ids        = fs.String("id", "", "comma-separated experiment ids (e.g. fig13,table1)")
		list       = fs.Bool("list", false, "list available experiment ids and exit")
		plot       = fs.Bool("plot", false, "render ASCII plots in addition to value tables")
		format     = fs.String("format", "text", "output format: text | markdown | csv")
		report     = fs.String("report", "", "write a complete Markdown report of every experiment to this file")
		scale      = fs.Int("scale", 1, "workload scale factor")
		workers    = fs.Int("workers", 0, "simulation worker pool size (0 = all CPUs)")
		tcache     = fs.String("tracecache", "auto", "on-disk trace cache dir ('auto' = user cache dir, 'off' = disable)")
		tcbudget   = fs.Int64("tracecache-budget", 0, "trace cache size budget in bytes, LRU-evicted (0 = unlimited)")
		checkpoint = fs.String("checkpoint", "", "checkpoint path prefix for crash-safe resume ('' = off); a killed run re-invoked with the same flags resumes from <prefix>.sweep and <prefix>.results")
		failures   = fs.String("failures", "failures.json", "machine-readable manifest of failed experiments ('' = off); removed when a run is clean")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	s := &session{
		ctx:    ctx,
		stdout: stdout,
		stderr: stderr,
		scale:  *scale,
		fs:     vfs.OS{},
		state:  resultsState{Scale: *scale, GeneratorVersion: workload.GeneratorVersion, Results: map[string]experiments.Result{}},
	}

	if *list {
		for _, id := range experiments.IDs() {
			desc, _ := experiments.Describe(id)
			fmt.Fprintf(stdout, "%-8s %s\n", id, desc)
		}
		for _, d := range []string{"fig3", "fig4", "fig6", "fig12"} {
			fmt.Fprintf(stdout, "%-8s (diagram)\n", d)
		}
		return 0
	}

	var selected []string
	switch {
	case *report != "":
		selected = experiments.IDs()
	case *all:
		selected = experiments.IDs()
	case *ids != "":
		selected = strings.Split(*ids, ",")
	default:
		fmt.Fprintln(stderr, "paperfigs: need -all, -id, -report or -list")
		fs.Usage()
		return 2
	}

	// Diagrams need no simulation.
	needSim := false
	for _, id := range selected {
		if experiments.Diagram(id) == "" {
			needSim = true
		}
	}
	if needSim {
		cacheDir := workload.ResolveCacheDir(*tcache)
		start := time.Now()
		env, err := newEnv(*scale, cacheDir)
		if err != nil {
			fmt.Fprintln(stderr, "paperfigs:", err)
			return 1
		}
		s.env = env
		s.progressf("traces ready in %s (cache: %s)", time.Since(start).Round(time.Millisecond), describeCacheDir(cacheDir))
		if evicted, err := workload.EnforceBudget(cacheDir, *tcbudget); err != nil {
			s.progressf("warning: trace cache budget: %v", err)
		} else if evicted > 0 {
			s.progressf("trace cache trimmed to %d bytes", *tcbudget)
		}

		if *checkpoint != "" {
			s.journal = resilience.NewJournal[resultsState](*checkpoint+".results", "paperfigs-results", resultsVersion)
			prev, info, err := s.journal.Load()
			if err != nil {
				fmt.Fprintln(stderr, "paperfigs:", err)
				return 1
			}
			for _, w := range info.Warnings {
				s.progressf("warning: results checkpoint: %s", w)
			}
			if info.Found && prev.Scale == *scale && prev.GeneratorVersion == workload.GeneratorVersion && prev.Results != nil {
				s.state = prev
				s.progressf("resuming: %d experiment(s) restored from %s", len(prev.Results), s.journal.Path())
			} else if info.Found {
				s.progressf("results checkpoint belongs to different inputs; starting fresh")
			}
		}

		if len(selected) > 3 {
			// Warm the shared simulation memo with the gang sweep engine:
			// the figure runners then reduce to lookups. With -checkpoint,
			// completed (trace, config-shard) units journal as they land,
			// so a killed run resumes mid-sweep.
			start = time.Now()
			opt := sweep.Options{
				Workers: *workers,
				OnEvent: func(e sweep.Event) {
					if e.Kind == sweep.JournalFallback {
						s.progressf("warning: sweep checkpoint: %v", e.Err)
					}
				},
			}
			if *checkpoint != "" {
				opt.Checkpoint = *checkpoint + ".sweep"
			}
			if err := s.env.PrecomputeSweep(ctx, opt); err != nil {
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					return interrupted(stderr, *checkpoint)
				}
				// The runners recompute on demand; a sick precompute only
				// costs time, so degrade instead of dying.
				s.progressf("warning: figure sweep precompute failed (continuing on demand): %v", err)
			} else {
				s.progressf("figure sweep precomputed in %s", time.Since(start).Round(time.Millisecond))
			}
		}
	}

	if *report != "" {
		err := s.writeReport(*report)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return interrupted(stderr, *checkpoint)
		}
		if err != nil {
			fmt.Fprintln(stderr, "paperfigs:", err)
			return 1
		}
		fmt.Fprintln(stdout, "report written to", *report)
		return s.finish(*failures, *checkpoint)
	}

	for i, id := range selected {
		id = strings.TrimSpace(id)
		if err := ctx.Err(); err != nil {
			return interrupted(stderr, *checkpoint)
		}
		if d := experiments.Diagram(id); d != "" {
			fmt.Fprintln(stdout, d)
			fmt.Fprintln(stdout)
			continue
		}
		start := time.Now()
		res, restored, err := s.result(id)
		if err != nil {
			s.fail(id, err)
			continue
		}
		if len(selected) > 1 {
			note := ""
			if restored {
				note = ", from checkpoint"
			}
			s.progressf("[%d/%d] %s (%s%s)", i+1, len(selected), id, time.Since(start).Round(time.Millisecond), note)
		}
		if err := s.renderOne(res, *format, *plot); err != nil {
			fmt.Fprintln(stderr, "paperfigs:", err)
			return 1
		}
		fmt.Fprintln(s.stdout)
	}
	return s.finish(*failures, *checkpoint)
}

// finish writes the failures manifest, reports the aggregated error,
// and cleans up the results journal on a fully clean run. It only ever
// runs after all computable work is done.
func (s *session) finish(failuresPath, checkpoint string) int {
	if err := s.writeManifest(failuresPath); err != nil {
		s.progressf("warning: failures manifest: %v", err)
	}
	if len(s.errs) > 0 {
		fmt.Fprintf(s.stderr, "paperfigs: %d experiment(s) failed:\n%v\n", len(s.failures), errors.Join(s.errs...))
		if failuresPath != "" {
			s.progressf("failure manifest written to %s", failuresPath)
		}
		// Keep the journal: a re-run retries only the failures.
		return 1
	}
	if s.journal != nil {
		if err := s.journal.Remove(); err != nil {
			s.progressf("warning: checkpoint cleanup: %v", err)
		}
	}
	return 0
}

// interrupted reports a signal-cancelled run and returns the distinct
// resume exit code.
func interrupted(stderr io.Writer, checkpoint string) int {
	fmt.Fprintln(stderr, "paperfigs: interrupted")
	if checkpoint != "" {
		fmt.Fprintln(stderr, "paperfigs: progress saved; re-run the same command to resume")
	}
	return resilience.ExitInterrupted
}

func describeCacheDir(dir string) string {
	if dir == "" {
		return "disabled"
	}
	return dir
}
