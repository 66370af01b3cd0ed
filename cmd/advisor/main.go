// Command advisor recommends a write-policy configuration for a
// workload: it evaluates the paper's design space (write-through vs
// write-back, the four write-miss policies, write-cache sizing) on the
// workload's trace and prints the recommendation with its evidence.
//
// Usage:
//
//	advisor -workload ccom
//	advisor -trace app.cwt -size 16384 -line 32 -latency 20
package main

import (
	"flag"
	"fmt"
	"os"

	"cachewrite/internal/advisor"
	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
	"cachewrite/internal/workload"
)

func main() {
	var (
		wl        = flag.String("workload", "", "workload name")
		traceFile = flag.String("trace", "", "trace file instead of a workload")
		scale     = flag.Int("scale", 1, "workload scale factor")
		size      = flag.Int("size", 8<<10, "cache size in bytes")
		line      = flag.Int("line", 16, "line size in bytes")
		assoc     = flag.Int("assoc", 1, "associativity")
		latency   = flag.Int("latency", 10, "fetch latency in cycles")
	)
	flag.Parse()

	var tr *trace.Trace
	var err error
	switch {
	case *traceFile != "":
		tr, _, err = trace.ReadFile(*traceFile, false)
	case *wl != "":
		tr, err = workload.Generate(*wl, *scale)
	default:
		fmt.Fprintln(os.Stderr, "advisor: need -workload or -trace; workloads:", workload.Names())
		os.Exit(2)
	}
	if err != nil {
		fail(err)
	}

	adv, err := advisor.Recommend(advisor.Request{
		Size: *size, LineSize: *line, Assoc: *assoc, FetchLatency: *latency,
	}, tr)
	if err != nil {
		fail(err)
	}

	fmt.Printf("workload    %s (%d references)\n", tr.Name, tr.Stats().Refs())
	fmt.Printf("geometry    %dKB, %dB lines, assoc %d, %d-cycle fetch\n\n",
		*size>>10, *line, *assoc, *latency)
	fmt.Printf("RECOMMENDED write-miss policy:  %s\n", adv.WriteMiss)
	fmt.Printf("RECOMMENDED write-hit policy:   %s\n", adv.WriteHit)
	if adv.WriteCacheEntries > 0 {
		fmt.Printf("RECOMMENDED write cache:        %d entries (8B lines)\n", adv.WriteCacheEntries)
	}
	fmt.Printf("\nestimated CPI by write-miss policy:\n")
	for _, p := range []cache.WriteMissPolicy{cache.FetchOnWrite, cache.WriteValidate, cache.WriteAround, cache.WriteInvalidate} {
		fmt.Printf("  %-18s %.3f\n", p, adv.CPI[p])
	}
	fmt.Printf("\nrationale:\n%s", adv.Rationale)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "advisor:", err)
	os.Exit(1)
}
