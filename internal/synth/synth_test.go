package synth

import (
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
)

func TestSequential(t *testing.T) {
	tr := Sequential(trace.Write, 0x1000, 10, 8, 8, 2)
	if tr.Len() != 10 {
		t.Fatalf("len = %d", tr.Len())
	}
	if tr.Events[3].Addr != 0x1018 || tr.Events[3].Kind != trace.Write {
		t.Errorf("event 3 = %+v", tr.Events[3])
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Instructions != 30 {
		t.Errorf("instructions = %d, want 30", s.Instructions)
	}
}

func TestCopy(t *testing.T) {
	tr := Copy(0x1000, 0x2000, 5, 8)
	if tr.Len() != 10 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 0; i < 5; i++ {
		r, w := tr.Events[2*i], tr.Events[2*i+1]
		if r.Kind != trace.Read || w.Kind != trace.Write {
			t.Fatal("copy interleaving wrong")
		}
		if w.Addr-r.Addr != 0x1000 {
			t.Fatal("copy offset wrong")
		}
	}
}

func TestHotColdValidation(t *testing.T) {
	if _, err := HotCold(1, 10, 0, 16, 1<<16, 50, 30); err == nil {
		t.Error("zero hot lines accepted")
	}
	if _, err := HotCold(1, 10, 4, 16, 1<<16, 150, 30); err == nil {
		t.Error("bad percentage accepted")
	}
}

func TestHotColdLocality(t *testing.T) {
	hot, err := HotCold(7, 20000, 8, 16, 1<<20, 95, 30)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := HotCold(7, 20000, 8, 16, 1<<20, 5, 30)
	if err != nil {
		t.Fatal(err)
	}
	miss := func(tr *trace.Trace) float64 {
		c := cache.MustNew(cache.Config{Size: 1 << 10, LineSize: 16, Assoc: 1,
			WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite})
		c.AccessTrace(tr)
		return c.Stats().MissRate()
	}
	if miss(hot) >= miss(cold) {
		t.Errorf("hot trace missed more than cold: %v vs %v", miss(hot), miss(cold))
	}
	if err := hot.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPointerChaseVisitsAllNodes(t *testing.T) {
	tr, err := PointerChase(3, 64, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]bool{}
	for _, e := range tr.Events {
		seen[e.Addr] = true
	}
	// A Sattolo cycle visits every node exactly once in 64 hops.
	if len(seen) != 64 {
		t.Errorf("visited %d distinct nodes, want 64 (full cycle)", len(seen))
	}
	if _, err := PointerChase(1, 1, 10, 64); err == nil {
		t.Error("single node accepted")
	}
	if _, err := PointerChase(1, 8, 10, 2); err == nil {
		t.Error("tiny node accepted")
	}
}

// roundRobin collects Interleave's runs into one trace.
func roundRobin(quantum uint64, ts ...*trace.Trace) (*trace.Trace, error) {
	out := &trace.Trace{Name: "rr"}
	err := Interleave(quantum, ts, func(run []trace.Event) {
		out.Events = append(out.Events, run...)
	})
	return out, err
}

func TestRoundRobinQuantum(t *testing.T) {
	a := Sequential(trace.Read, 0x1000, 6, 4, 4, 0)  // 1 instr/event
	b := Sequential(trace.Write, 0x2000, 6, 4, 4, 0) // 1 instr/event
	out, err := roundRobin(2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 12 {
		t.Fatalf("len = %d", out.Len())
	}
	// Quantum 2 with 1-instruction events: AABBAABB...
	want := []trace.Kind{trace.Read, trace.Read, trace.Write, trace.Write}
	for i, k := range want {
		if out.Events[i].Kind != k {
			t.Fatalf("event %d kind = %v, want %v (schedule AABB)", i, out.Events[i].Kind, k)
		}
	}
}

func TestRoundRobinLongEventRuns(t *testing.T) {
	// An event longer than the quantum still runs (quantum is a minimum
	// grant), and empty traces are skipped.
	a := &trace.Trace{Events: []trace.Event{{Addr: 0, Size: 4, Gap: 10, Kind: trace.Read}}}
	out, err := roundRobin(2, a, &trace.Trace{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("len = %d", out.Len())
	}
	if _, err := roundRobin(0, a); err == nil {
		t.Error("zero quantum accepted")
	}
}

func TestRoundRobinPreservesAllEvents(t *testing.T) {
	a := Sequential(trace.Read, 0x1000, 37, 4, 4, 1)
	b := Sequential(trace.Write, 0x2000, 11, 4, 4, 3)
	c := Sequential(trace.Read, 0x3000, 23, 8, 8, 0)
	out, err := roundRobin(13, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 37+11+23 {
		t.Errorf("len = %d, want %d", out.Len(), 37+11+23)
	}
}

// TestRoundRobinExactAllocation: the schedule is streamed, never
// built. Each run Interleave hands out aliases the next unrun events of
// an input trace, the runs cover every event exactly once, and the
// whole schedule allocates only its list of live traces.
func TestRoundRobinExactAllocation(t *testing.T) {
	a := Sequential(trace.Read, 0x1000, 1000, 4, 4, 1)
	b := Sequential(trace.Write, 0x2000, 333, 4, 4, 3)
	c := Sequential(trace.Read, 0x3000, 517, 8, 8, 0)
	ts := []*trace.Trace{a, b, {}, c}
	next := make([]int, len(ts)) // each trace's first unrun event
	err := Interleave(7, ts, func(run []trace.Event) {
		for i, tr := range ts {
			if next[i] < tr.Len() && &run[0] == &tr.Events[next[i]] {
				next[i] += len(run)
				return
			}
		}
		t.Errorf("a run of %d events does not alias the next events of an input trace", len(run))
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range ts {
		if next[i] != tr.Len() {
			t.Errorf("trace %d: runs cover %d of %d events", i, next[i], tr.Len())
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		_ = Interleave(7, ts, func([]trace.Event) {})
	})
	if allocs > 1 {
		t.Errorf("Interleave allocates %.0f times per schedule, want at most 1", allocs)
	}
}

func TestDeterminism(t *testing.T) {
	a1, _ := HotCold(9, 1000, 8, 16, 1<<16, 80, 30)
	a2, _ := HotCold(9, 1000, 8, 16, 1<<16, 80, 30)
	if a1.Len() != a2.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a1.Events {
		if a1.Events[i] != a2.Events[i] {
			t.Fatal("HotCold not deterministic")
		}
	}
}
