package reuse

import (
	"math/rand"
	"testing"

	"cachewrite/internal/trace"
	"cachewrite/internal/workload"
	"cachewrite/internal/writecache"
)

// checkCurve compares t's one-pass curve for 0..maxEntries entries of
// lineSize bytes against one writecache.Cache simulation per entry
// count.
func checkCurve(tb testing.TB, t *trace.Trace, lineSize, maxEntries int) {
	tb.Helper()
	c, err := WriteCacheCurve(t, lineSize, maxEntries)
	if err != nil {
		tb.Fatal(err)
	}
	if len(c.Merged) != maxEntries+1 {
		tb.Fatalf("%s %dB: curve has %d points, want %d", t.Name, lineSize, len(c.Merged), maxEntries+1)
	}
	for n := 0; n <= maxEntries; n++ {
		wc, err := writecache.New(writecache.Config{Entries: n, LineSize: lineSize})
		if err != nil {
			tb.Fatal(err)
		}
		wc.Run(t)
		s := wc.Stats()
		if c.Writes != s.Writes || c.Merged[n] != s.Merged {
			tb.Fatalf("%s %dB %d entries: curve %d/%d merged/writes, writecache %d/%d",
				t.Name, lineSize, n, c.Merged[n], c.Writes, s.Merged, s.Writes)
		}
		if got, want := c.RemovedFraction(n), s.RemovedFraction(); got != want {
			tb.Fatalf("%s %dB %d entries: removed %v, writecache %v", t.Name, lineSize, n, got, want)
		}
	}
}

// TestWriteCacheCurveMatchesSimulator pins the one-pass curve to the
// write-cache simulator on a prefix of every paper trace, at the 8B
// lines of Figs 7-9 and the 16B lines of Fig 5's reference.
func TestWriteCacheCurveMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("real workloads in -short mode")
	}
	ts, err := workload.GenerateAllCached("", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ts {
		prefix := tr.Slice(0, min(tr.Len(), 100000))
		for _, line := range []int{8, 16} {
			checkCurve(t, prefix, line, 16)
		}
	}
}

// TestWriteCacheCurveSpanningWrites: unaligned writes that straddle two
// lines merge only when both lines are resident, which the curve must
// account per line, not per write.
func TestWriteCacheCurveSpanningWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := &trace.Trace{Name: "spanning"}
	for i := 0; i < 4000; i++ {
		k := trace.Write
		if rng.Intn(4) == 0 {
			k = trace.Read
		}
		addr := uint32(rng.Intn(40))*4 + uint32(rng.Intn(4))
		tr.Append(trace.Event{Addr: addr, Size: uint8(1 + rng.Intn(8)), Kind: k})
	}
	spans := 0
	for _, e := range tr.Events {
		if first, end := lineSpan(e, 3); e.Kind == trace.Write && end-first > 1 {
			spans++
		}
	}
	if spans < 1000 {
		t.Fatalf("only %d writes span two 8B lines", spans)
	}
	for _, line := range []int{4, 8, 16} {
		checkCurve(t, tr, line, 16)
	}
}

func TestWriteCacheCurveValidation(t *testing.T) {
	if _, err := WriteCacheCurve(&trace.Trace{}, 12, 4); err == nil {
		t.Error("non-pow2 line size accepted")
	}
	if _, err := WriteCacheCurve(&trace.Trace{}, 8, -1); err == nil {
		t.Error("negative max entries accepted")
	}
	c, err := WriteCacheCurve(&trace.Trace{}, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.RemovedFraction(2) != 0 {
		t.Error("empty trace removes writes")
	}
}

// FuzzWriteCacheCurve compares the curve with writecache.Cache on
// short random write traces: unaligned sizes 1-16, line sizes 4-64 and
// 0-16 entries. Each input byte triple is one event.
func FuzzWriteCacheCurve(f *testing.F) {
	f.Add([]byte{0, 0, 8, 4, 0, 8, 0, 0, 8}, uint8(1), uint8(2))
	f.Add([]byte{7, 1, 15, 3, 2, 3, 12, 0, 16, 7, 1, 2}, uint8(0), uint8(16))
	f.Add([]byte{255, 255, 16, 250, 255, 9}, uint8(4), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, lineExp, entries uint8) {
		lineSize := 4 << (lineExp % 5)
		maxEntries := int(entries % 17)
		tr := &trace.Trace{Name: "fuzz"}
		for i := 0; i+2 < len(data) && tr.Len() < 512; i += 3 {
			kind := trace.Write
			if data[i+2]&0x80 != 0 {
				kind = trace.Read
			}
			// Addresses land in a small window so lines recur; the
			// second byte's high bit complements the address, reaching
			// the top of the address space where a write can wrap.
			addr := uint32(data[i])<<2 | uint32(data[i+1]&3)
			if data[i+1]&0x80 != 0 {
				addr = ^addr
			}
			tr.Append(trace.Event{Addr: addr, Size: 1 + data[i+2]%16, Kind: kind})
		}
		checkCurve(t, tr, lineSize, maxEntries)
	})
}

// TestWriteCacheCurveAllocsFlat: the curve keeps only the top of its
// stack, so its allocations do not grow with the trace's length or
// footprint.
func TestWriteCacheCurveAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		tr := &trace.Trace{Name: "flat"}
		for i := 0; i < n; i++ {
			// Every fourth write opens a new line; the rest recur.
			addr := uint32(i/4*64) + uint32(i%4*8)
			tr.Append(trace.Event{Addr: addr, Size: 4, Kind: trace.Write})
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := WriteCacheCurve(tr, 8, 16); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(100), allocs(200000); long != short {
		t.Errorf("WriteCacheCurve allocates %v times over 100 writes, %v over 200000", short, long)
	}
}
