package coherence

import (
	"reflect"
	"strings"
	"testing"

	"cachewrite/internal/trace"
)

func TestBuildWorkloadPrivateWindows(t *testing.T) {
	base := synthTrace(500, 11, 1<<12)
	w, err := BuildWorkload(base, WorkloadConfig{Cores: 2, SharedFraction: 0, Stride: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.PerCore) != 2 {
		t.Fatalf("per-core traces = %d", len(w.PerCore))
	}
	for i, e := range w.PerCore[0].Events {
		if e.Addr != base.Events[i].Addr {
			t.Fatalf("core 0 not identity-mapped at event %d: %#x vs %#x", i, e.Addr, base.Events[i].Addr)
		}
		if got := w.PerCore[1].Events[i].Addr; got != base.Events[i].Addr+1<<20 {
			t.Fatalf("core 1 window wrong at event %d: %#x", i, got)
		}
	}
}

func TestBuildWorkloadSharedFraction(t *testing.T) {
	base := synthTrace(500, 13, 1<<12)
	// Fraction 1: every address is shared, all cores replay the base
	// addresses verbatim.
	w, err := BuildWorkload(base, WorkloadConfig{Cores: 3, SharedFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		for i, e := range w.PerCore[c].Events {
			if e.Addr != base.Events[i].Addr {
				t.Fatalf("core %d event %d not shared: %#x", c, i, e.Addr)
			}
		}
	}
	// Fraction 0.5: some granules shared, some private, decided
	// identically for every core.
	w, err = BuildWorkload(base, WorkloadConfig{Cores: 2, SharedFraction: 0.5, Stride: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	shared, private := 0, 0
	for i, e := range w.PerCore[1].Events {
		if e.Addr == base.Events[i].Addr {
			shared++
		} else if e.Addr == base.Events[i].Addr+1<<20 {
			private++
		} else {
			t.Fatalf("event %d mapped to neither window: %#x", i, e.Addr)
		}
	}
	if shared == 0 || private == 0 {
		t.Fatalf("degenerate split: %d shared, %d private", shared, private)
	}
}

func TestBuildWorkloadDeterministic(t *testing.T) {
	base := synthTrace(300, 17, 1<<12)
	cfg := WorkloadConfig{Cores: 4, SharedFraction: 0.25, Stagger: 50}
	a, err := BuildWorkload(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildWorkload(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated builds differ")
	}
	want := []uint64{0, 50, 100, 150}
	if !reflect.DeepEqual(a.Offsets, want) {
		t.Fatalf("offsets = %v, want %v", a.Offsets, want)
	}
}

func TestBuildWorkloadCollisionDetected(t *testing.T) {
	// A footprint wider than the stride must be rejected: core 1's
	// private window would alias core 0's.
	base := &trace.Trace{Name: "wide", Events: []trace.Event{
		{Addr: 0x00, Size: 4, Kind: trace.Write},
		{Addr: 0x40, Size: 4, Kind: trace.Write},
	}}
	_, err := BuildWorkload(base, WorkloadConfig{Cores: 2, SharedFraction: 0, Stride: 64})
	if err == nil {
		t.Fatal("window collision not detected")
	}
	const want = "coherence: address windows collide at granule 0x40 (stride 64 too small for this footprint)"
	if err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
}

func TestBuildWorkloadValidation(t *testing.T) {
	base := synthTrace(10, 3, 256)
	bad := []WorkloadConfig{
		{Cores: 0},
		{Cores: MaxCores + 1},
		{Cores: 2, SharedFraction: -0.1},
		{Cores: 2, SharedFraction: 1.1},
		{Cores: 2, Stride: 48}, // not a power of two
		{Cores: 2, Stride: 32}, // below the sharing granule
	}
	for i, cfg := range bad {
		if _, err := BuildWorkload(base, cfg); err == nil {
			t.Errorf("bad workload config %d accepted", i)
		}
	}
	// Rebase overflow: a footprint near the top of the address space
	// cannot take a positive window shift.
	top := &trace.Trace{Events: []trace.Event{{Addr: 0xfffffff0, Size: 4, Kind: trace.Read}}}
	if _, err := BuildWorkload(top, WorkloadConfig{Cores: 2, SharedFraction: 0}); err == nil {
		t.Error("address-space overflow not detected")
	}
}

// TestDefaultStrideCoreLimit pins what DefaultStride's 128MB windows
// hold: 32 cores for a footprint at the bottom of memory, 17 for one
// just below 0x80000000.
func TestDefaultStrideCoreLimit(t *testing.T) {
	for _, c := range []struct {
		addr     uint32
		maxCores int
	}{{0x1000, 32}, {0x7ffffff0, 17}} {
		base := &trace.Trace{Name: "one", Events: []trace.Event{{Addr: c.addr, Size: 4, Kind: trace.Read}}}
		if _, err := BuildWorkload(base, WorkloadConfig{Cores: c.maxCores}); err != nil {
			t.Errorf("%#x: %d cores rejected: %v", c.addr, c.maxCores, err)
		}
		_, err := BuildWorkload(base, WorkloadConfig{Cores: c.maxCores + 1})
		if err == nil || !strings.Contains(err.Error(), "leaves the address space") {
			t.Errorf("%#x: %d cores: err = %v, want the address space overflow", c.addr, c.maxCores+1, err)
		}
	}
}

func TestBuildWorkloadEventCap(t *testing.T) {
	base := synthTrace(100, 19, 1<<12)
	w, err := BuildWorkload(base, WorkloadConfig{Cores: 2, MaxEventsPerCore: 25})
	if err != nil {
		t.Fatal(err)
	}
	for c, tr := range w.PerCore {
		if tr.Len() != 25 {
			t.Errorf("core %d has %d events, want 25", c, tr.Len())
		}
	}
}

func TestWorkloadInterleaved(t *testing.T) {
	base := synthTrace(200, 23, 1<<12)
	// A stagger far beyond the Gap field's capacity exercises the
	// Interleave gap-split fix inside the coherence layer: total
	// instruction time must survive the merge.
	w, err := BuildWorkload(base, WorkloadConfig{Cores: 2, SharedFraction: 0.25, Stagger: 100000})
	if err != nil {
		t.Fatal(err)
	}
	merged, st := w.Interleaved()
	if merged.Len() != 2*base.Len() {
		t.Fatalf("merged %d events, want %d", merged.Len(), 2*base.Len())
	}
	perCore := w.PerCore[0].Stats().Instructions
	want := 100000 + perCore // core 1 starts at 100000 and finishes last
	if got := merged.Stats().Instructions; got != want {
		t.Errorf("merged instructions = %d, want %d", got, want)
	}
	if st.GapSplits == 0 {
		t.Error("large stagger did not exercise the gap-split path")
	}
	if st.LostInstructions != 0 {
		t.Errorf("lost %d instructions in the merge", st.LostInstructions)
	}
}
