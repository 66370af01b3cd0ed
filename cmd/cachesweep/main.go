// Command cachesweep runs a cartesian sweep of cache configurations
// over a workload (or trace file) and emits one CSV row per point —
// the generic tool behind "plot metric X against parameter Y" studies
// that go beyond the paper's fixed figures.
//
// The sweep is executed by the gang engine in internal/sweep: the
// trace is streamed once per shard of configurations on a parallel
// worker pool, rather than once per configuration.
//
// Long sweeps are crash-safe: with -checkpoint set, completed units
// are journaled and a killed run (SIGKILL included) resumes instead of
// restarting when re-invoked with the same flags. SIGINT/SIGTERM flush
// a final checkpoint and exit with code 3.
//
// Usage:
//
//	cachesweep -workload ccom -sizes 1024,8192,65536 -lines 16,32 \
//	    -assocs 1,2 -misses fow,wv > sweep.csv
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"cachewrite/internal/cache"
	"cachewrite/internal/resilience"
	"cachewrite/internal/serve"
	"cachewrite/internal/sweep"
	"cachewrite/internal/trace"
	"cachewrite/internal/workload"
)

func main() {
	var (
		wl         = flag.String("workload", "", "workload name")
		traceFile  = flag.String("trace", "", "trace file instead of a workload")
		scale      = flag.Int("scale", 1, "workload scale factor")
		sizes      = flag.String("sizes", "1024,2048,4096,8192,16384,32768,65536,131072", "cache sizes in bytes")
		lines      = flag.String("lines", "16", "line sizes in bytes")
		assocs     = flag.String("assocs", "1", "associativities")
		hits       = flag.String("hits", "wb", "write-hit policies (wt,wb)")
		misses     = flag.String("misses", "fow,wv,wa,wi", "write-miss policies (fow,wv,wa,wi)")
		workers    = flag.Int("workers", 0, "simulation worker pool size (0 = all CPUs)")
		tcache     = flag.String("tracecache", "auto", "on-disk trace cache dir ('auto' = user cache dir, 'off' = disable)")
		tcbudget   = flag.Int64("tracecache-budget", 0, "trace cache size budget in bytes, LRU-evicted (0 = unlimited)")
		checkpoint = flag.String("checkpoint", "", "sweep checkpoint path for crash-safe resume ('' = off)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var tr *trace.Trace
	var err error
	switch {
	case *traceFile != "":
		tr, _, err = trace.ReadFile(*traceFile, false)
	case *wl != "":
		cacheDir := workload.ResolveCacheDir(*tcache)
		tr, err = workload.GenerateCached(cacheDir, *wl, *scale)
		if err == nil {
			if _, berr := workload.EnforceBudget(cacheDir, *tcbudget); berr != nil {
				fmt.Fprintln(os.Stderr, "cachesweep: warning: trace cache budget:", berr)
			}
		}
	default:
		fmt.Fprintln(os.Stderr, "cachesweep: need -workload or -trace")
		os.Exit(2)
	}
	if err != nil {
		fail(err)
	}

	cfgs, err := buildSweep(*sizes, *lines, *assocs, *hits, *misses)
	if err != nil {
		fail(err)
	}
	opt := sweep.Options{
		Workers:    *workers,
		Checkpoint: *checkpoint,
		OnEvent: func(e sweep.Event) {
			if e.Kind == sweep.JournalFallback {
				fmt.Fprintf(os.Stderr, "cachesweep: warning: checkpoint: %v\n", e.Err)
			}
		},
	}
	if err := runSweep(ctx, os.Stdout, tr, cfgs, opt); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "cachesweep: interrupted")
			if *checkpoint != "" {
				fmt.Fprintln(os.Stderr, "cachesweep: progress saved; re-run the same command to resume")
			}
			os.Exit(resilience.ExitInterrupted)
		}
		fail(err)
	}
}

// buildSweep fills a serve.JobSpec from the comma-separated axis lists
// and expands its cartesian grid, skipping invalid combinations.
func buildSweep(sizes, lines, assocs, hits, misses string) ([]cache.Config, error) {
	var spec serve.JobSpec
	var err error
	if spec.Sizes, err = parseInts(sizes); err != nil {
		return nil, fmt.Errorf("sizes: %w", err)
	}
	if spec.Lines, err = parseInts(lines); err != nil {
		return nil, fmt.Errorf("lines: %w", err)
	}
	if spec.Assocs, err = parseInts(assocs); err != nil {
		return nil, fmt.Errorf("assocs: %w", err)
	}
	spec.WriteHits = splitList(hits)
	spec.WriteMisses = splitList(misses)
	cfgs, err := spec.Configs()
	if err != nil {
		return nil, err
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cachesweep: no valid configurations in the sweep")
	}
	return cfgs, nil
}

// runSweep simulates every configuration with the gang engine and
// writes the CSV in configuration order. The CSV is written only after
// the whole sweep completes, so an interrupted run emits no partial
// rows — with opt.Checkpoint set its completed units are journaled and
// the next run picks them up.
func runSweep(ctx context.Context, w io.Writer, tr *trace.Trace, cfgs []cache.Config, opt sweep.Options) error {
	cw := csv.NewWriter(w)
	header := []string{"size", "line", "assoc", "write_hit", "write_miss",
		"miss_rate", "write_miss_pct", "writes_to_dirty_pct",
		"backside_tx_per_instr", "backside_bytes_per_instr"}
	if err := cw.Write(header); err != nil {
		return err
	}
	all, err := sweep.Sweep(ctx, []*trace.Trace{tr}, cfgs, opt)
	if err != nil {
		return err
	}
	for _, r := range serve.RowsFor(cfgs, all[0]) {
		row := []string{
			strconv.Itoa(r.Size), strconv.Itoa(r.Line), strconv.Itoa(r.Assoc),
			r.WriteHit, r.WriteMiss,
			fmt.Sprintf("%.6f", r.MissRate),
			fmt.Sprintf("%.4f", r.WriteMissPct),
			fmt.Sprintf("%.4f", r.WritesToDirtyPct),
			fmt.Sprintf("%.6f", r.BacksideTxPerInstr),
			fmt.Sprintf("%.6f", r.BacksideBytesPerInstr),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// splitList splits a comma-separated flag value, trimming whitespace
// around each element.
func splitList(s string) []string {
	parts := strings.Split(s, ",")
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
	}
	return parts
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cachesweep:", err)
	os.Exit(1)
}
