package timing

import (
	"math/rand"
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
	"cachewrite/internal/writebuffer"
)

// referenceEvaluate is the cycle model with Org at its zero value,
// learning each event's outcome by diffing two copies of cache.Stats
// instead of through a back-side sink. Evaluate must match it field
// for field.
func referenceEvaluate(cfg Config, t *trace.Trace) Stats {
	c, err := cache.New(cfg.L1)
	if err != nil {
		panic(err)
	}
	var s Stats
	var now uint64
	wb := writebuffer.NewQueue(cfg.WriteBufferEntries, uint64(cfg.WriteRetire))
	vb := writebuffer.NewQueue(cfg.VictimBufferEntries, uint64(cfg.WritebackCycles))
	var prev cache.Stats
	for _, e := range t.Events {
		now += e.Instructions()
		c.Access(e)
		cur := c.Stats()
		for i := uint64(0); i < cur.Writebacks-prev.Writebacks; i++ {
			stall, t2 := vb.Push(now)
			s.VictimStalls += stall
			now = t2
		}
		if fetches := cur.Fetches - prev.Fetches; fetches > 0 {
			stall := fetches * uint64(cfg.FetchLatency)
			if e.Kind == trace.Write {
				s.WriteMissStalls += stall
			} else {
				s.ReadMissStalls += stall
			}
			now += stall
		}
		for i := uint64(0); i < cur.WriteThroughs-prev.WriteThroughs; i++ {
			stall, t2 := wb.Push(now)
			s.WriteBufferStalls += stall
			now = t2
		}
		prev = cur
	}
	s.Cache = c.Stats()
	s.Instructions = s.Cache.Instructions
	s.Cycles = now
	return s
}

// pipelineStalls is the store-pipeline loop with its own miss rule:
// one missPenalty per event whose cache.Stats.Misses() count moved.
// It agrees with Evaluate's per-line-fetched rule unless an event
// spans lines or a write hit fills a sub-block.
func pipelineStalls(org Organization, l1 cache.Config, missPenalty int, t *trace.Trace) (interlock, drain, miss uint64) {
	c, err := cache.New(l1)
	if err != nil {
		panic(err)
	}
	prevWasStore, pendingWrite := false, false
	for _, e := range t.Events {
		missesBefore := c.Stats().Misses()
		c.Access(e)
		missed := c.Stats().Misses() != missesBefore
		if e.Gap > 0 {
			prevWasStore, pendingWrite = false, false
		}
		switch e.Kind {
		case trace.Read:
			if prevWasStore && org == SimpleWriteBack {
				interlock++
			}
			if missed && pendingWrite && org == DelayedWriteBack {
				drain++
				pendingWrite = false
			}
			prevWasStore = false
		case trace.Write:
			if org == DelayedWriteBack {
				pendingWrite = true
			}
			prevWasStore = true
		}
		if missed {
			miss += uint64(missPenalty)
			prevWasStore, pendingWrite = false, false
		}
	}
	return interlock, drain, miss
}

// randomTrace returns n events at addresses below span. Each event has
// one of sizes, at an offset that is a multiple of align, and a gap
// that is zero half the time so stores and loads often sit back to
// back.
func randomTrace(seed int64, n int, span uint32, sizes []uint8, align uint32) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		e := trace.Event{
			Addr: uint32(rng.Intn(int(span/align))) * align,
			Size: sizes[rng.Intn(len(sizes))],
			Kind: trace.Read,
		}
		if rng.Intn(2) == 0 {
			e.Gap = uint16(rng.Intn(4))
		}
		if rng.Intn(3) == 0 {
			e.Kind = trace.Write
		}
		tr.Append(e)
	}
	return tr
}

var (
	writeHits   = []cache.WriteHitPolicy{cache.WriteThrough, cache.WriteBack}
	writeMisses = cache.WriteMissPolicies()
)

// TestBacksideMatchesStatsReference: the counting back-side sink sees
// exactly the fetches, write-backs and write-through words that the
// cache's counters record, including on line-spanning events and
// sub-block write fills.
func TestBacksideMatchesStatsReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		l1    cache.Config
		tr    *trace.Trace
		check func(cache.Stats) bool // the trace exercises the case
	}{
		{
			name: "spanning",
			l1:   cache.Config{Size: 256, LineSize: 4, Assoc: 2},
			// Unaligned 8B events span two or three 4B lines.
			tr: randomTrace(1, 4000, 1024, []uint8{8}, 1),
			check: func(cs cache.Stats) bool {
				return cs.Fetches > cs.Misses()
			},
		},
		{
			name: "subblock",
			l1:   cache.Config{Size: 512, LineSize: 16, Assoc: 2, ValidGranularity: 4},
			tr:   randomTrace(2, 4000, 2048, []uint8{1, 2, 4, 8}, 2),
			check: func(cs cache.Stats) bool {
				return cs.SubblockWriteFills > 0
			},
		},
	} {
		for _, hit := range writeHits {
			for _, miss := range writeMisses {
				l1 := tc.l1
				l1.WriteHit, l1.WriteMiss = hit, miss
				cfg := Config{L1: l1, FetchLatency: 10,
					WriteBufferEntries: 2, WriteRetire: 3,
					VictimBufferEntries: 1, WritebackCycles: 5}
				got, err := Evaluate(cfg, tc.tr)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceEvaluate(cfg, tc.tr)
				if got != want {
					t.Errorf("%s %s/%s:\n got %+v\nwant %+v", tc.name, hit, miss, got, want)
				}
				if hit == cache.WriteBack && miss == cache.WriteValidate && !tc.check(got.Cache) {
					t.Errorf("%s: trace does not exercise the case: %+v", tc.name, got.Cache)
				}
			}
		}
	}
}

// TestStorePipelineMatchesReference: on aligned-word traces without
// sectors, where both miss rules agree, every organization's
// interlock, drain and miss stalls match the reference loop.
func TestStorePipelineMatchesReference(t *testing.T) {
	tr := randomTrace(3, 6000, 4096, []uint8{4}, 4)
	for _, org := range Organizations() {
		for _, hit := range writeHits {
			for _, miss := range writeMisses {
				l1 := cache.Config{Size: 1 << 10, LineSize: 16, Assoc: 1,
					WriteHit: hit, WriteMiss: miss}
				s, err := Evaluate(Config{L1: l1, Org: org, FetchLatency: 10}, tr)
				if err != nil {
					t.Fatal(err)
				}
				interlock, drain, missStalls := pipelineStalls(org, l1, 10, tr)
				if s.InterlockStalls != interlock || s.DrainStalls != drain ||
					s.ReadMissStalls+s.WriteMissStalls != missStalls {
					t.Errorf("%s %s/%s: interlock/drain/miss = %d/%d/%d, reference %d/%d/%d",
						org, hit, miss, s.InterlockStalls, s.DrainStalls,
						s.ReadMissStalls+s.WriteMissStalls, interlock, drain, missStalls)
				}
				if org == SimpleWriteBack && interlock == 0 || org == DelayedWriteBack && miss == cache.FetchOnWrite && drain == 0 {
					t.Errorf("%s %s/%s: trace exercises no store-pipeline stalls", org, hit, miss)
				}
			}
		}
	}
}
