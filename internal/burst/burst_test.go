package burst

import (
	"math/rand"
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
)

func w(addr uint32, gap uint16) trace.Event {
	return trace.Event{Addr: addr, Size: 4, Gap: gap, Kind: trace.Write}
}

func r(addr uint32, gap uint16) trace.Event {
	return trace.Event{Addr: addr, Size: 4, Gap: gap, Kind: trace.Read}
}

func TestBucketLabels(t *testing.T) {
	labels := BucketLabels()
	if len(labels) != 6 {
		t.Fatalf("%d labels", len(labels))
	}
	if bucketOf(1) != 0 || bucketOf(2) != 1 || bucketOf(3) != 2 || bucketOf(4) != 2 ||
		bucketOf(8) != 3 || bucketOf(16) != 4 || bucketOf(17) != 5 || bucketOf(1000) != 5 {
		t.Error("bucketOf boundaries wrong")
	}
}

func TestAnalyzeWritesValidation(t *testing.T) {
	tr := &trace.Trace{}
	if _, err := AnalyzeWrites(tr, 0, 100); err == nil {
		t.Error("zero gapThreshold accepted")
	}
	if _, err := AnalyzeWrites(tr, 2, 0); err == nil {
		t.Error("zero window accepted")
	}
}

func TestWriteBurstDetection(t *testing.T) {
	// Burst of 3 back-to-back stores, a lone store far away, then a
	// burst of 2.
	tr := &trace.Trace{Events: []trace.Event{
		w(0x00, 0), w(0x08, 0), w(0x10, 0),
		r(0x100, 50),
		w(0x20, 50),
		w(0x30, 40), w(0x38, 0),
	}}
	rep, err := AnalyzeWrites(tr, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Writes != 6 {
		t.Fatalf("writes = %d", rep.Writes)
	}
	if rep.MaxBurst != 3 {
		t.Errorf("max burst = %d, want 3", rep.MaxBurst)
	}
	// Histogram: one length-3 burst (bucket "3-4"), one length-1, one
	// length-2.
	if rep.Bursts[2] != 1 || rep.Bursts[0] != 1 || rep.Bursts[1] != 1 {
		t.Errorf("histogram = %v", rep.Bursts)
	}
}

func TestWriteRates(t *testing.T) {
	// 8 stores in the first 8 instructions, then 92 quiet instructions
	// (window 10): peak 0.8/instr, average 8/100.
	tr := &trace.Trace{}
	for i := 0; i < 8; i++ {
		tr.Append(w(uint32(i*8), 0))
	}
	tr.Append(r(0x1000, 91))
	rep, err := AnalyzeWrites(tr, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakRate < 0.7 {
		t.Errorf("peak rate = %v, want ~0.8", rep.PeakRate)
	}
	if rep.AvgRate > 0.1 {
		t.Errorf("avg rate = %v, want 0.08", rep.AvgRate)
	}
	if rep.PeakToAvg() < 7 {
		t.Errorf("peak/avg = %v, want ~10", rep.PeakToAvg())
	}
}

func TestPeakToAvgZero(t *testing.T) {
	var wr WriteReport
	if wr.PeakToAvg() != 0 {
		t.Error("zero write report divides by zero")
	}
	var vr VictimReport
	if vr.PeakToAvg() != 0 {
		t.Error("zero victim report divides by zero")
	}
}

func victimCfg() cache.Config {
	return cache.Config{Size: 256, LineSize: 16, Assoc: 1,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
}

func TestAnalyzeVictimsValidation(t *testing.T) {
	tr := &trace.Trace{}
	if _, err := AnalyzeVictims(tr, victimCfg(), 0, 10); err == nil {
		t.Error("zero gapThreshold accepted")
	}
	if _, err := AnalyzeVictims(tr, victimCfg(), 4, 0); err == nil {
		t.Error("zero window accepted")
	}
	wt := victimCfg()
	wt.WriteHit = cache.WriteThrough
	if _, err := AnalyzeVictims(tr, wt, 4, 10); err == nil {
		t.Error("write-through cache accepted for victim analysis")
	}
	if _, err := AnalyzeVictims(tr, cache.Config{}, 4, 10); err == nil {
		t.Error("invalid cache config accepted")
	}
}

func TestVictimBursts(t *testing.T) {
	// 256B direct-mapped cache, 16 lines. Dirty lines 0..15, then a
	// conflicting sweep evicts all 16 dirty victims back-to-back — a
	// victim burst.
	tr := &trace.Trace{}
	for i := 0; i < 16; i++ {
		tr.Append(w(uint32(i*16), 0))
	}
	for i := 0; i < 16; i++ {
		tr.Append(r(uint32(256+i*16), 0))
	}
	rep, err := AnalyzeVictims(tr, victimCfg(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DirtyVictims != 16 {
		t.Fatalf("dirty victims = %d, want 16", rep.DirtyVictims)
	}
	if rep.MaxBurst != 16 {
		t.Errorf("max victim burst = %d, want 16", rep.MaxBurst)
	}
	if rep.Bursts[4] != 1 {
		t.Errorf("histogram = %v, want one run in bucket 9-16", rep.Bursts)
	}
	if rep.MaxPending < 8 {
		t.Errorf("max pending = %d, want >= 8 (window of 8 instructions)", rep.MaxPending)
	}
	if rep.PeakToAvg() <= 1 {
		t.Errorf("victims should be bursty: peak/avg = %v", rep.PeakToAvg())
	}
}

func TestVictimBucketPlacement(t *testing.T) {
	// Exactly 16 victims in a run lands in bucket "9-16" (index 4).
	tr := &trace.Trace{}
	for i := 0; i < 16; i++ {
		tr.Append(w(uint32(i*16), 0))
	}
	for i := 0; i < 16; i++ {
		tr.Append(r(uint32(256+i*16), 0))
	}
	rep, err := AnalyzeVictims(tr, victimCfg(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(0)
	for _, b := range rep.Bursts {
		total += b
	}
	if total != 1 {
		t.Fatalf("burst count = %d, want 1 run", total)
	}
	if rep.Bursts[4] != 1 && rep.Bursts[5] != 1 {
		t.Errorf("histogram = %v", rep.Bursts)
	}
}

func TestNoVictimsNoBursts(t *testing.T) {
	tr := &trace.Trace{Events: []trace.Event{r(0x0, 0), r(0x10, 0)}}
	rep, err := AnalyzeVictims(tr, victimCfg(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DirtyVictims != 0 || rep.MaxBurst != 0 || rep.PeakRate != 0 {
		t.Errorf("phantom victims: %+v", rep)
	}
}

// TestDirtyVictimsMatchWritebacks: the back-side victim counter sees
// every write-back the cache's own counters record, under every
// write-miss policy and on line-spanning events.
func TestDirtyVictimsMatchWritebacks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := &trace.Trace{}
	for i := 0; i < 5000; i++ {
		e := trace.Event{Addr: uint32(rng.Intn(2048)), Size: []uint8{1, 4, 8}[rng.Intn(3)],
			Gap: uint16(rng.Intn(3)), Kind: trace.Read}
		if rng.Intn(2) == 0 {
			e.Kind = trace.Write
		}
		tr.Append(e)
	}
	for _, miss := range cache.WriteMissPolicies() {
		cfg := victimCfg()
		cfg.WriteMiss = miss
		rep, err := AnalyzeVictims(tr, cfg, 2, 64)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cache.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.AccessTrace(tr)
		if want := c.Stats().Writebacks; rep.DirtyVictims != want || want == 0 {
			t.Errorf("%s: dirty victims = %d, cache write-backs = %d", miss, rep.DirtyVictims, want)
		}
	}
}
