// Command cachesim runs one workload (or a trace file) through one
// cache configuration and prints the full statistics — the primitive
// the paper's figures are assembled from.
//
// Usage:
//
//	cachesim -workload linpack -size 8192 -line 16 -hit write-back -miss fetch-on-write
//	cachesim -trace t.cwt -size 65536 -line 32 -assoc 2 -miss write-validate
//	cachesim -workload ccom -l2-size 262144 -wcache 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"cachewrite/internal/cache"
	"cachewrite/internal/hierarchy"
	"cachewrite/internal/stats"
	"cachewrite/internal/trace"
	"cachewrite/internal/workload"
	"cachewrite/internal/writecache"
)

func main() {
	var (
		wl        = flag.String("workload", "", "workload name (ccom, grr, yacc, met, linpack, liver)")
		traceFile = flag.String("trace", "", "trace file (binary, compressed or text; binary only with -lenient) to simulate instead of a workload")
		scale     = flag.Int("scale", 1, "workload scale factor")
		size      = flag.Int("size", 8<<10, "L1 size in bytes")
		line      = flag.Int("line", 16, "L1 line size in bytes")
		assoc     = flag.Int("assoc", 1, "L1 associativity")
		hit       = flag.String("hit", "write-back", "write-hit policy: write-through | write-back")
		miss      = flag.String("miss", "fetch-on-write", "write-miss policy: fetch-on-write | write-validate | write-around | write-invalidate")
		repl      = flag.String("repl", "lru", "replacement policy: lru | fifo | random")
		gran      = flag.Int("granularity", 1, "valid-bit sub-block granularity in bytes (1 = per byte)")
		sector    = flag.Bool("sector", false, "fetch only accessed sub-blocks on misses (sector cache; needs -granularity >= 4)")
		wvWT      = flag.Bool("wv-write-through", false, "write-validate misses also write through (multiprocessor-safe variant)")
		l2Size    = flag.Int("l2-size", 0, "optional L2 size in bytes (0 = no L2)")
		l2Line    = flag.Int("l2-line", 64, "L2 line size in bytes")
		wcEntries = flag.Int("wcache", 0, "optional write-cache entries (write-through L1 only)")
		confFile  = flag.String("config", "", "JSON configuration file (overrides the geometry/policy flags)")
		jsonOut   = flag.Bool("json", false, "emit results as JSON")
		lenient   = flag.Bool("lenient", false, "tolerate a damaged -trace file: skip corrupt records, keep the intact prefix, report what was lost")
	)
	flag.Parse()

	var cfg hierarchy.Config
	var err error
	if *confFile != "" {
		f, err2 := os.Open(*confFile)
		if err2 != nil {
			fail(err2)
		}
		cfg, err = loadConfig(f)
		f.Close()
		if err != nil {
			fail(err)
		}
	} else if cfg, err = buildConfig(*size, *line, *assoc, *hit, *miss, *l2Size, *l2Line, *wcEntries); err != nil {
		fail(err)
	}
	if *confFile == "" {
		// Flag-based variants (a -config file carries its own).
		r, err := cache.ParseReplacement(*repl)
		if err != nil {
			fail(err)
		}
		cfg.L1.Replacement = r
		cfg.L1.ValidGranularity = *gran
		cfg.L1.SectorFetch = *sector
		cfg.L1.WVMissWriteThrough = *wvWT
	}

	var tr *trace.Trace
	switch {
	case *traceFile != "":
		var ds trace.DecodeStats
		tr, ds, err = trace.ReadFile(*traceFile, *lenient)
		if err != nil {
			fail(err)
		}
		if ds.Damaged() {
			fmt.Fprintf(os.Stderr, "cachesim: %s: %s\n", *traceFile, ds)
		}
	case *wl != "":
		tr, err = workload.Generate(*wl, *scale)
		if err != nil {
			fail(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "cachesim: need -workload or -trace; workloads:", workload.Names())
		os.Exit(2)
	}

	res, err := simulate(cfg, tr)
	if err != nil {
		fail(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fail(err)
		}
		return
	}
	printResult(cfg, tr.Name, res)
}

func buildConfig(size, line, assoc int, hit, miss string, l2Size, l2Line, wcEntries int) (hierarchy.Config, error) {
	hitP, err := cache.ParseWriteHit(hit)
	if err != nil {
		return hierarchy.Config{}, err
	}
	missP, err := cache.ParseWriteMiss(miss)
	if err != nil {
		return hierarchy.Config{}, err
	}
	cfg := hierarchy.Config{L1: cache.Config{
		Size: size, LineSize: line, Assoc: assoc, WriteHit: hitP, WriteMiss: missP,
	}}
	if wcEntries > 0 {
		cfg.WriteCache = &writecache.Config{Entries: wcEntries, LineSize: 8}
	}
	if l2Size > 0 {
		cfg.L2 = &cache.Config{Size: l2Size, LineSize: l2Line, Assoc: 4,
			WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
	}
	return cfg, nil
}

// result bundles everything one simulation produces; -json prints it
// as is, so its field names and order are the output format.
type result struct {
	// Trace summarises the input reference stream.
	Trace trace.Stats
	// L1 holds the first-level cache counters.
	L1 cache.Stats
	// L2 holds the second-level counters when an L2 was configured.
	L2 cache.Stats
	// Hierarchy holds the between-level traffic counters.
	Hierarchy hierarchy.Stats
}

// simulate runs the trace through the configured hierarchy, flushes
// dirty state (flush-stop accounting; cold-stop numbers remain in the
// non-Flush counters), and returns all statistics.
func simulate(cfg hierarchy.Config, t *trace.Trace) (result, error) {
	h, err := hierarchy.New(cfg)
	if err != nil {
		return result{}, err
	}
	h.AccessTrace(t)
	h.Flush()
	res := result{
		Trace:     t.Stats(),
		L1:        h.L1().Stats(),
		Hierarchy: h.Stats(),
	}
	if h.L2() != nil {
		res.L2 = h.L2().Stats()
	}
	return res, nil
}

func printResult(cfg hierarchy.Config, name string, res result) {
	fmt.Printf("trace      %s: %s instructions, %s reads, %s writes\n",
		name, stats.FmtCount(res.Trace.Instructions),
		stats.FmtCount(res.Trace.Reads), stats.FmtCount(res.Trace.Writes))
	fmt.Printf("L1         %s\n", cfg.L1)
	s := res.L1
	fmt.Printf("  miss rate              %s  (%s read misses, %s write misses, %s eliminated)\n",
		stats.FmtPct(s.MissRate()), stats.FmtCount(s.ReadMissEvents),
		stats.FmtCount(s.FetchedWriteMisses), stats.FmtCount(s.EliminatedWriteMisses))
	fmt.Printf("  write misses           %s of all misses\n", stats.FmtPct(s.WriteMissFraction()))
	fmt.Printf("  writes to dirty lines  %s of writes\n", stats.FmtPct(s.WritesToDirtyFraction()))
	fmt.Printf("  victims                %s (%s dirty, %s dirty flush victims)\n",
		stats.FmtCount(s.Victims), stats.FmtCount(s.DirtyVictims), stats.FmtCount(s.FlushDirtyVictims))
	fmt.Printf("  %% bytes dirty/victim   %s (dirty victims: %s)\n",
		stats.FmtPct(s.DirtyBytesPerVictim()), stats.FmtPct(s.DirtyBytesPerDirtyVictim(cfg.L1.LineSize)))
	fmt.Printf("  back-side transactions %s (%s fetch, %s write-through, %s write-back)\n",
		stats.FmtCount(s.BacksideTransactions()), stats.FmtCount(s.Fetches),
		stats.FmtCount(s.WriteThroughs), stats.FmtCount(s.Writebacks))
	fmt.Printf("  back-side bytes        %s full-line / %s sub-block write-backs\n",
		stats.FmtCount(s.BacksideBytes(false)), stats.FmtCount(s.BacksideBytes(true)))
	if s.Invalidates > 0 {
		fmt.Printf("  invalidations          %s\n", stats.FmtCount(s.Invalidates))
	}
	if s.PartialValidReadMisses > 0 {
		fmt.Printf("  partial-valid fills    %s read, %s write\n",
			stats.FmtCount(s.PartialValidReadMisses), stats.FmtCount(s.SubblockWriteFills))
	}
	if cfg.WriteCache != nil {
		fmt.Printf("write cache %d entries\n", cfg.WriteCache.Entries)
		if res.Hierarchy.VictimHits > 0 {
			fmt.Printf("  victim-mode refill hits %s\n", stats.FmtCount(res.Hierarchy.VictimHits))
		}
	}
	fmt.Printf("hierarchy  L1->L2 %s transactions (%s bytes)\n",
		stats.FmtCount(res.Hierarchy.L1ToL2Transactions), stats.FmtCount(res.Hierarchy.L1ToL2Bytes))
	if cfg.L2 != nil {
		fmt.Printf("L2         %s\n", *cfg.L2)
		fmt.Printf("  miss rate              %s\n", stats.FmtPct(res.L2.MissRate()))
		fmt.Printf("  L2->mem                %s transactions (%s bytes)\n",
			stats.FmtCount(res.Hierarchy.L2ToMemTransactions), stats.FmtCount(res.Hierarchy.L2ToMemBytes))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cachesim:", err)
	os.Exit(1)
}
