package hierarchy_test

import (
	"fmt"

	"cachewrite/internal/cache"
	"cachewrite/internal/hierarchy"
	"cachewrite/internal/synth"
	"cachewrite/internal/trace"
	"cachewrite/internal/writecache"
)

// Example composes the paper's Fig 6 organization: a write-through L1
// with a five-entry write cache in front of an L2, and shows how much
// write traffic the write cache absorbs.
func Example() {
	t, err := synth.HotCold(1, 20000, 8, 16, 1<<18, 85, 40)
	if err != nil {
		panic(err)
	}
	l2 := cache.Config{Size: 256 << 10, LineSize: 64, Assoc: 4,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
	run := func(wc *writecache.Config) uint64 {
		h, err := hierarchy.New(hierarchy.Config{
			L1: cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1,
				WriteHit: cache.WriteThrough, WriteMiss: cache.FetchOnWrite},
			WriteCache: wc,
			L2:         &l2,
		})
		if err != nil {
			panic(err)
		}
		h.AccessTrace(t)
		return h.Stats().L1ToL2Transactions
	}
	plain := run(nil)
	cached := run(&writecache.Config{Entries: 5, LineSize: 8})
	fmt.Printf("write cache removes %.0f%% of L1->L2 transactions\n",
		100*(1-float64(cached)/float64(plain)))
	// Output:
	// write cache removes 31% of L1->L2 transactions
}

// Example_twoLevel runs a write-validate L1 over an L2 and flushes it:
// every write miss is eliminated, and each dirty line reaches the L2
// once, as a capacity or a flush write-back.
func Example_twoLevel() {
	t := &trace.Trace{}
	for i := 0; i < 100; i++ {
		t.Append(trace.Event{Addr: uint32(i * 16), Size: 4, Kind: trace.Write, Gap: 3})
	}
	l2 := cache.Config{Size: 64 << 10, LineSize: 64, Assoc: 4,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
	h, err := hierarchy.New(hierarchy.Config{
		L1: cache.Config{Size: 1 << 10, LineSize: 16, Assoc: 1,
			WriteHit: cache.WriteBack, WriteMiss: cache.WriteValidate},
		L2: &l2,
	})
	if err != nil {
		panic(err)
	}
	h.AccessTrace(t)
	h.Flush()
	fmt.Printf("eliminated write misses: %d\n", h.L1().Stats().EliminatedWriteMisses)
	// 36 capacity write-backs during the run plus 64 flush write-backs.
	fmt.Printf("L1->L2 transactions: %d\n", h.Stats().L1ToL2Transactions)
	// Output:
	// eliminated write misses: 100
	// L1->L2 transactions: 100
}
