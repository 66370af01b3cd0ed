package writebuffer

import (
	"testing"

	"cachewrite/internal/trace"
)

func wtrace(gaps []uint16, addrs []uint32) *trace.Trace {
	tr := &trace.Trace{Name: "w"}
	for i := range addrs {
		tr.Append(trace.Event{Addr: addrs[i], Size: 4, Gap: gaps[i], Kind: trace.Write})
	}
	return tr
}

func TestConfigValidate(t *testing.T) {
	good := Config{Entries: 8, LineSize: 16, RetireInterval: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{Entries: 0, LineSize: 16},
		{Entries: -1, LineSize: 16},
		{Entries: 8, LineSize: 0},
		{Entries: 8, LineSize: 12},
		{Entries: 8, LineSize: 16, RetireInterval: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted bad config %d", i)
		}
	}
}

func TestZeroRetireInterval(t *testing.T) {
	b, err := New(Config{Entries: 8, LineSize: 16, RetireInterval: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Same line twice: with instant retirement nothing merges.
	b.Run(wtrace([]uint16{0, 0, 0}, []uint32{0x100, 0x104, 0x108}))
	s := b.Stats()
	if s.Merged != 0 {
		t.Errorf("merged %d with instant retirement", s.Merged)
	}
	if s.StallCycles != 0 {
		t.Errorf("stalls = %d", s.StallCycles)
	}
	if b.q.n != 0 {
		t.Errorf("pending = %d", b.q.n)
	}
}

func TestMergeWithinInterval(t *testing.T) {
	b, _ := New(Config{Entries: 8, LineSize: 16, RetireInterval: 100})
	// Two writes to the same 16B line, one cycle apart: second merges.
	b.Run(wtrace([]uint16{0, 0}, []uint32{0x100, 0x108}))
	s := b.Stats()
	if s.Merged != 1 {
		t.Errorf("merged = %d, want 1", s.Merged)
	}
	if b.q.n != 1 {
		t.Errorf("pending = %d, want 1", b.q.n)
	}
}

func TestNoMergeAfterRetirement(t *testing.T) {
	b, _ := New(Config{Entries: 8, LineSize: 16, RetireInterval: 5})
	// Second write to the same line arrives 10 cycles later: the entry
	// retired at t+5, so no merge.
	b.Run(wtrace([]uint16{0, 10}, []uint32{0x100, 0x108}))
	s := b.Stats()
	if s.Merged != 0 {
		t.Errorf("merged = %d, want 0 (entry already retired)", s.Merged)
	}
}

func TestStallWhenFull(t *testing.T) {
	b, _ := New(Config{Entries: 2, LineSize: 16, RetireInterval: 100})
	// Three distinct lines back-to-back: third write finds the buffer
	// full and stalls until the first retirement at t0+100.
	b.Run(wtrace([]uint16{0, 0, 0}, []uint32{0x100, 0x200, 0x300}))
	s := b.Stats()
	if s.StallCycles == 0 {
		t.Fatal("no stall recorded with a full buffer")
	}
	if s.StallCycles > 100 {
		t.Errorf("stall = %d cycles, want <= 100", s.StallCycles)
	}
	if s.StallCPI() <= 0 {
		t.Error("stall CPI should be positive")
	}
}

func TestExactStallScenario(t *testing.T) {
	// Retire every 10 cycles, 1-entry buffer. Writes at t=1 and t=2.
	// First enters empty buffer (retire scheduled t=11). Second stalls
	// 11-2 = 9 cycles.
	b, _ := New(Config{Entries: 1, LineSize: 16, RetireInterval: 10})
	b.Run(wtrace([]uint16{0, 0}, []uint32{0x100, 0x200}))
	s := b.Stats()
	if s.StallCycles != 9 {
		t.Errorf("stall = %d cycles, want 9", s.StallCycles)
	}
}

func TestReadsOnlyAdvanceTime(t *testing.T) {
	b, _ := New(Config{Entries: 8, LineSize: 16, RetireInterval: 5})
	tr := &trace.Trace{Events: []trace.Event{
		{Addr: 0x100, Size: 4, Kind: trace.Write},
		{Addr: 0x500, Size: 4, Kind: trace.Read, Gap: 20}, // time passes
		{Addr: 0x108, Size: 4, Kind: trace.Write},
	}}
	b.Run(tr)
	s := b.Stats()
	if s.Writes != 2 {
		t.Errorf("writes = %d, want 2 (reads don't enter the buffer)", s.Writes)
	}
	if s.Merged != 0 {
		t.Error("entry should have retired while the reads executed")
	}
}

func TestStatsHelpers(t *testing.T) {
	var s Stats
	if s.MergedFraction() != 0 || s.StallCPI() != 0 {
		t.Error("zero stats must not divide by zero")
	}
	s = Stats{Writes: 10, Merged: 4, Instructions: 100, StallCycles: 25}
	if s.MergedFraction() != 0.4 {
		t.Errorf("MergedFraction = %v", s.MergedFraction())
	}
	if s.StallCPI() != 0.25 {
		t.Errorf("StallCPI = %v", s.StallCPI())
	}
}

// TestMonotoneMerging: longer retire intervals never merge fewer
// writes (the paper's Fig 5 curve is monotone).
func TestMonotoneMerging(t *testing.T) {
	tr := &trace.Trace{}
	// A looping pattern with reuse.
	for i := 0; i < 2000; i++ {
		tr.Append(trace.Event{Addr: uint32((i % 37) * 8), Size: 8, Gap: uint16(i % 5), Kind: trace.Write})
	}
	prev := -1.0
	for n := 0; n <= 48; n += 8 {
		b, _ := New(Config{Entries: 8, LineSize: 16, RetireInterval: n})
		b.Run(tr)
		f := b.Stats().MergedFraction()
		if f < prev-1e-9 {
			t.Fatalf("merging decreased from %v to %v at interval %d", prev, f, n)
		}
		prev = f
	}
}
