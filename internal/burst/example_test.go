package burst_test

import (
	"fmt"

	"cachewrite/internal/burst"
	"cachewrite/internal/trace"
)

// Example measures the register-save pattern §3 worries about: long
// back-to-back store bursts that overwhelm a write buffer.
func Example() {
	t := registerSave(20, 30, 200) // 20 calls saving 30 registers
	r, err := burst.AnalyzeWrites(t, 2, 64)
	if err != nil {
		panic(err)
	}
	fmt.Printf("max store burst: %d back-to-back stores\n", r.MaxBurst)
	fmt.Printf("peak/average write bandwidth: %.1fx\n", r.PeakToAvg())
	// Output:
	// max store burst: 30 back-to-back stores
	// peak/average write bandwidth: 7.2x
}

// registerSave emits the bursty store pattern of §3's register-window
// discussion: bursts of burstLen back-to-back 4B stores to a descending
// stack, separated by quiet computation periods.
func registerSave(bursts, burstLen int, quiet uint16) *trace.Trace {
	t := &trace.Trace{Name: "regsave"}
	sp := uint32(0x7fff_f000)
	for b := 0; b < bursts; b++ {
		for i := 0; i < burstLen; i++ {
			sp -= 4
			gap := uint16(0)
			if i == 0 {
				gap = quiet
			}
			t.Append(trace.Event{Addr: sp, Size: 4, Gap: gap, Kind: trace.Write})
		}
		// Matching restores (loads) after the quiet period.
		for i := 0; i < burstLen; i++ {
			gap := uint16(0)
			if i == 0 {
				gap = quiet
			}
			t.Append(trace.Event{Addr: sp + uint32(4*i), Size: 4, Gap: gap, Kind: trace.Read})
		}
		sp += uint32(4 * burstLen)
	}
	return t
}
