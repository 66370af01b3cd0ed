// Quickstart: simulate one benchmark through the paper's standard
// first-level data cache under all four write-miss policies and print
// the headline comparison — the shortest path from this library to the
// paper's §4 result.
package main

import (
	"fmt"
	"log"

	"cachewrite/internal/cache"
	"cachewrite/internal/sweep"
	"cachewrite/internal/workload"
)

func main() {
	// 1. Generate a reference trace by actually running a workload (a
	//    mini C compiler, the stand-in for the paper's ccom benchmark).
	t, err := workload.Generate("ccom", 1)
	if err != nil {
		log.Fatal(err)
	}
	s := t.Stats()
	fmt.Printf("ccom: %d instructions, %d reads, %d writes (%.2f reads/write)\n\n",
		s.Instructions, s.Reads, s.Writes, s.LoadStoreRatio())

	// 2. The paper's standard geometry: 8KB direct-mapped, 16B lines.
	base := cache.Config{
		Size:     8 << 10,
		LineSize: 16,
		Assoc:    1,
		WriteHit: cache.WriteBack,
	}

	// 3. Compare the four write-miss policies on the same trace: one
	//    gang pass simulates every config, each flushed at the end.
	policies := []cache.WriteMissPolicy{
		cache.FetchOnWrite, cache.WriteInvalidate, cache.WriteAround, cache.WriteValidate,
	}
	cfgs := make([]cache.Config, len(policies))
	for i, p := range policies {
		cfgs[i] = base
		cfgs[i].WriteMiss = p
	}
	res, err := sweep.Gang(t, cfgs)
	if err != nil {
		log.Fatal(err)
	}
	fow := res[0].Misses()
	fmt.Printf("%-18s %10s %10s %12s %22s\n",
		"policy", "misses", "miss rate", "fetch traffic", "total miss reduction")
	for i, p := range policies {
		cs := res[i]
		fmt.Printf("%-18s %10d %9.2f%% %11dB %21.1f%%\n",
			p, cs.Misses(), 100*cs.MissRate(), cs.FetchBytes,
			100*(float64(fow)-float64(cs.Misses()))/float64(fow))
	}

	// 4. The winner in detail, flush-stop accounted.
	wv := res[3]
	fmt.Printf("\nwith write-validate: %d eliminated write misses, %d partial-validity read misses\n",
		wv.EliminatedWriteMisses, wv.PartialValidReadMisses)
	fmt.Printf("back side: %d transactions, %d bytes\n",
		wv.BacksideTransactions(), wv.BacksideBytes(false))
}
