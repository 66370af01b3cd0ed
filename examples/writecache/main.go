// Writecache sizes the paper's proposed write cache (§3.2) for a
// workload mix: it sweeps entry counts, reports absolute and relative
// write-traffic reduction, and prints the sizing recommendation the
// paper derives (a five-entry write cache sits at the knee of the
// curve).
package main

import (
	"fmt"
	"log"

	"cachewrite/internal/cache"
	"cachewrite/internal/reuse"
	"cachewrite/internal/workload"
)

func main() {
	traces, err := workload.GenerateAll(1)
	if err != nil {
		log.Fatal(err)
	}

	// Reference: how much write traffic a 4KB direct-mapped write-back
	// cache removes on the same traces (Fig 8's baseline).
	var wbRemoved float64
	for _, t := range traces {
		c := cache.MustNew(cache.Config{Size: 4 << 10, LineSize: 16, Assoc: 1,
			WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite})
		c.AccessTrace(t)
		wbRemoved += c.Stats().WritesToDirtyFraction()
	}
	wbRemoved /= float64(len(traces))
	fmt.Printf("4KB write-back cache removes %.1f%% of write traffic on average\n\n", 100*wbRemoved)

	// One pass per trace gives its whole 0..16-entry write-cache curve.
	curves := make([]*reuse.Curve, len(traces))
	for i, t := range traces {
		if curves[i], err = reuse.WriteCacheCurve(t, 8, 16); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("%-8s %16s %20s\n", "entries", "writes removed", "relative to 4KB WB")
	best, bestGain := 0, 0.0
	prev := 0.0
	for n := 0; n <= 16; n++ {
		var removed float64
		for _, c := range curves {
			removed += c.RemovedFraction(n)
		}
		removed /= float64(len(traces))
		fmt.Printf("%-8d %15.1f%% %19.1f%%\n", n, 100*removed, 100*removed/wbRemoved)
		// Knee detection: the largest marginal gain past 2 entries marks
		// the region before diminishing returns; track the last entry
		// count whose marginal gain is at least 1 percentage point.
		if gain := removed - prev; n > 0 && gain > 0.01 {
			best, bestGain = n, gain
		}
		prev = removed
	}
	fmt.Printf("\nknee of the curve: ~%d entries (last >=1pp marginal gain %.1fpp);\n", best, 100*bestGain)
	fmt.Println("the paper recommends a five-entry write cache for the same reason.")
}
