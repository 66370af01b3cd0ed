package advisor

import (
	"strings"
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/synth"
	"cachewrite/internal/trace"
	"cachewrite/internal/workload"
)

func stdReq() Request {
	return Request{Size: 8 << 10, LineSize: 16, Assoc: 1, FetchLatency: 10}
}

func TestRecommendValidatesGeometry(t *testing.T) {
	if _, err := Recommend(Request{Size: 3000, LineSize: 16, Assoc: 1}, &trace.Trace{}); err == nil {
		t.Fatal("bad geometry accepted")
	}
}

// TestRecommendStreamingWrites: a pure streaming-write workload is the
// strongest possible case for a no-fetch policy.
func TestRecommendStreamingWrites(t *testing.T) {
	tr := synth.Sequential(trace.Write, 0x100000, 30000, 8, 8, 2)
	adv, err := Recommend(stdReq(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if adv.WriteMiss == cache.FetchOnWrite {
		t.Errorf("recommended fetch-on-write for streaming writes (CPI map: %v)", adv.CPI)
	}
	if adv.MissReduction < 0.9 {
		t.Errorf("miss reduction = %v, want ~1 for pure streaming writes", adv.MissReduction)
	}
	if adv.Rationale == "" {
		t.Error("no rationale")
	}
}

// TestRecommendHotWrites: a workload whose writes are all re-writes of
// a tiny hot set is the strongest case for write-back.
func TestRecommendHotWrites(t *testing.T) {
	tr, err := synth.HotCold(3, 40000, 8, 16, 1<<20, 97, 50)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := Recommend(stdReq(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if adv.WBTrafficCut < 0.8 {
		t.Fatalf("write-back cut = %v; test premise broken", adv.WBTrafficCut)
	}
	// With a hot set this small the write cache also does well, so
	// either answer may be defensible; what must hold is consistency:
	if adv.WriteHit == cache.WriteThrough && adv.WriteCacheEntries == 0 {
		t.Error("write-through recommended without a write cache")
	}
	if adv.WriteHit == cache.WriteBack && adv.WriteCacheEntries != 0 {
		t.Error("write-back recommended with a write cache")
	}
}

// TestRecommendNoAllocateForcesWriteThrough: if write-around wins the
// policy race, the hit policy must be write-through.
func TestRecommendNoAllocateForcesWriteThrough(t *testing.T) {
	// The liver pattern: write results that are never re-read while
	// re-reading old inputs that alias the same sets.
	tr := &trace.Trace{}
	for round := 0; round < 60; round++ {
		for i := 0; i < 400; i++ {
			tr.Append(trace.Event{Addr: 0x10000 + uint32(i*16), Size: 8, Gap: 1, Kind: trace.Read})
			tr.Append(trace.Event{Addr: 0x10000 + 0x2000 + uint32(i*16), Size: 8, Gap: 1, Kind: trace.Write})
		}
	}
	adv, err := Recommend(stdReq(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if adv.WriteMiss == cache.WriteAround || adv.WriteMiss == cache.WriteInvalidate {
		if adv.WriteHit != cache.WriteThrough {
			t.Errorf("no-allocate policy %s paired with %s", adv.WriteMiss, adv.WriteHit)
		}
	}
}

// TestRecommendOnRealWorkload: the advisor runs end to end on a real
// benchmark and never recommends fetch-on-write (the paper: WV and WA
// always outperform it).
func TestRecommendOnRealWorkload(t *testing.T) {
	tr, err := workload.Generate("ccom", 1)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := Recommend(stdReq(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if adv.WriteMiss == cache.FetchOnWrite {
		t.Error("recommended the baseline policy on ccom")
	}
	if len(adv.CPI) != 4 {
		t.Errorf("CPI map has %d entries", len(adv.CPI))
	}
	for _, frag := range []string{"CPI", "write"} {
		if !strings.Contains(adv.Rationale, frag) {
			t.Errorf("rationale missing %q:\n%s", frag, adv.Rationale)
		}
	}
}

// TestRecommendZeroLatency: a zero fetch latency means free fetches,
// write retires and write-backs, so every policy runs at exactly one
// cycle per instruction.
func TestRecommendZeroLatency(t *testing.T) {
	tr, err := workload.Generate("yacc", 1)
	if err != nil {
		t.Fatal(err)
	}
	req := stdReq()
	req.FetchLatency = 0
	adv, err := Recommend(req, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cache.WriteMissPolicies() {
		if adv.CPI[p] != 1 {
			t.Errorf("%s: CPI = %v at zero latency, want 1", p, adv.CPI[p])
		}
	}
}

func TestSizeWriteCacheFloor(t *testing.T) {
	// Streaming writes coalesce nothing: the sizing must settle on the
	// 1-entry floor, not zero.
	tr := synth.Sequential(trace.Write, 0x100000, 5000, 8, 8, 1)
	n, removed, err := sizeWriteCache(tr)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("entries = %d, want floor of 1", n)
	}
	if removed > 0.05 {
		t.Errorf("removed = %v on streaming writes", removed)
	}
}
