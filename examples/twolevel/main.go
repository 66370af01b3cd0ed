// Twolevel explores the paper's framing context: the first-level
// write policy determines the traffic the *second-level* cache must
// absorb ("this is especially important if the cycle time of the CPU
// is faster than that of the interface to the second-level cache",
// §1). The example runs the benchmark mix through four first-level
// organizations in front of the same 256KB L2 and compares traffic at
// both boundaries.
package main

import (
	"fmt"
	"log"

	"cachewrite/internal/cache"
	"cachewrite/internal/hierarchy"
	"cachewrite/internal/workload"
	"cachewrite/internal/writecache"
)

func main() {
	traces, err := workload.GenerateAllCached("", 1)
	if err != nil {
		log.Fatal(err)
	}

	l2 := cache.Config{Size: 256 << 10, LineSize: 64, Assoc: 4,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}

	type org struct {
		name string
		cfg  hierarchy.Config
	}
	mk := func(hit cache.WriteHitPolicy, miss cache.WriteMissPolicy, wc *writecache.Config) hierarchy.Config {
		l2c := l2
		return hierarchy.Config{
			L1: cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1,
				WriteHit: hit, WriteMiss: miss},
			WriteCache: wc,
			L2:         &l2c,
		}
	}
	orgs := []org{
		{"WT + fetch-on-write", mk(cache.WriteThrough, cache.FetchOnWrite, nil)},
		{"WT + 5-entry write cache", mk(cache.WriteThrough, cache.FetchOnWrite,
			&writecache.Config{Entries: 5, LineSize: 8})},
		{"WB + fetch-on-write", mk(cache.WriteBack, cache.FetchOnWrite, nil)},
		{"WB + write-validate", mk(cache.WriteBack, cache.WriteValidate, nil)},
	}

	fmt.Printf("%-26s %14s %14s %14s %12s\n",
		"L1 organization", "L1->L2 tx", "L1->L2 bytes", "L2->mem tx", "L2 missrate")
	var baseTx uint64
	for i, o := range orgs {
		var tx, bytes, memTx uint64
		var l2Miss float64
		for _, t := range traces {
			h, err := hierarchy.New(o.cfg)
			if err != nil {
				log.Fatal(err)
			}
			h.AccessTrace(t)
			h.Flush()
			s := h.Stats()
			tx += s.L1ToL2Transactions
			bytes += s.L1ToL2Bytes
			memTx += s.L2ToMemTransactions
			l2Miss += h.L2().Stats().MissRate()
		}
		l2Miss /= float64(len(traces))
		if i == 0 {
			baseTx = tx
		}
		fmt.Printf("%-26s %14d %14d %14d %11.2f%%\n",
			o.name, tx, bytes, memTx, 100*l2Miss)
		if i > 0 {
			fmt.Printf("%-26s %13.1f%%\n", "  vs WT+FOW", 100*(1-float64(tx)/float64(baseTx)))
		}
	}

	fmt.Println("\nthe second-level interface sees: write-through dominated by store")
	fmt.Println("words; a write cache merging away a third of them; write-back")
	fmt.Println("collapsing words into dirty lines; and write-validate removing the")
	fmt.Println("write-miss fetches on top — the paper's §5 story end to end.")
}
