package timing_test

import (
	"fmt"

	"cachewrite/internal/cache"
	"cachewrite/internal/synth"
	"cachewrite/internal/timing"
	"cachewrite/internal/trace"
)

// Example shows the paper's latency argument in cycles: on a streaming
// write workload, write-validate's no-fetch misses make it faster than
// fetch-on-write at identical geometry.
func Example() {
	stream := synth.Copy(0x10000, 0x80000, 4000, 8)
	for _, p := range []cache.WriteMissPolicy{cache.FetchOnWrite, cache.WriteValidate} {
		s, err := timing.Evaluate(timing.Config{
			L1: cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1,
				WriteHit: cache.WriteBack, WriteMiss: p},
			FetchLatency:        10,
			WriteBufferEntries:  4,
			WriteRetire:         6,
			VictimBufferEntries: 1,
			WritebackCycles:     6,
		}, stream)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-16s CPI %.2f\n", p, s.CPI())
	}
	// Output:
	// fetch-on-write   CPI 6.00
	// write-validate   CPI 3.50
}

// Example_storePipeline shows the §3 pipeline dimension: back-to-back
// store/load pairs interlock on a simple write-back cache but not with
// the delayed-write register of Fig 4.
func Example_storePipeline() {
	t := &trace.Trace{}
	t.Append(trace.Event{Addr: 0x100, Size: 4, Kind: trace.Read}) // prime
	for i := 0; i < 1000; i++ {
		t.Append(trace.Event{Addr: 0x100, Size: 4, Kind: trace.Write})
		t.Append(trace.Event{Addr: 0x104, Size: 4, Kind: trace.Read})
	}
	for _, org := range []timing.Organization{timing.SimpleWriteBack, timing.DelayedWriteBack} {
		s, err := timing.Evaluate(timing.Config{
			L1: cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1,
				WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite},
			Org: org,
		}, t)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-36s %.2f extra cycles/store\n", org, s.StoreCost())
	}
	// Output:
	// simple write-back                    1.00 extra cycles/store
	// write-back + delayed write register  0.00 extra cycles/store
}
