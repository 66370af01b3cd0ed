package cache

import (
	"reflect"
	"testing"

	"cachewrite/internal/trace"
)

// kernelTrace is a seeded mixed trace with hot/cold regions, reads and
// writes, several sizes, and (for small lines) line-crossing accesses —
// every path the kernels discriminate on.
func kernelTrace(n int) *trace.Trace {
	tr := &trace.Trace{Name: "kerneltest"}
	state := uint32(424243)
	next := func() uint32 { state = state*1664525 + 1013904223; return state }
	for i := 0; i < n; i++ {
		r := next()
		addr := (r % (1 << 15)) &^ 3
		size := uint8(4)
		switch r % 5 {
		case 0:
			size = 8
		case 1:
			size = 3 // unaligned odd size: exercises the crossing fallback
		case 2:
			size = 1
		}
		k := trace.Read
		if r%3 == 0 {
			k = trace.Write
		}
		tr.Append(trace.Event{Addr: addr, Size: size, Gap: uint16(r % 5), Kind: k})
	}
	return tr
}

// seqBackside records the full back-side call sequence so kernel
// equivalence covers not just final counters but the exact traffic
// stream (order, addresses, sizes) a second level would observe.
type seqBackside struct {
	fetches, writebacks, words int
	sum                        uint64
}

func (b *seqBackside) mix(vals ...uint64) {
	for _, v := range vals {
		b.sum = b.sum*1099511628211 + v
	}
}
func (b *seqBackside) FetchLine(addr uint32, size int) {
	b.fetches++
	b.mix(1, uint64(addr), uint64(size))
}
func (b *seqBackside) WritebackLine(addr uint32, size, dirtyBytes int) {
	b.writebacks++
	b.mix(2, uint64(addr), uint64(size), uint64(dirtyBytes))
}
func (b *seqBackside) WriteWord(addr uint32, size uint8) {
	b.words++
	b.mix(3, uint64(addr), uint64(size))
}
func (b *seqBackside) ObserveVictim(addr uint32, size, dirtyBytes int) {
	b.mix(4, uint64(addr), uint64(size), uint64(dirtyBytes))
}

// kernelConfigs enumerates the extended class grid: every write-hit ×
// write-miss policy at direct-mapped, 2-way and 4-way geometries,
// several line sizes, plus sub-block and sector variants that must
// classify as generic.
func kernelConfigs() []Config {
	var cfgs []Config
	add := func(c Config) {
		if c.Validate() == nil {
			cfgs = append(cfgs, c)
		}
	}
	for _, hit := range []WriteHitPolicy{WriteThrough, WriteBack} {
		for _, miss := range WriteMissPolicies() {
			for _, line := range []int{4, 16, 64} {
				for _, assoc := range []int{1, 2, 4} {
					for _, repl := range []Replacement{LRU, FIFO, Random} {
						add(Config{Size: 4 << 10, LineSize: line, Assoc: assoc,
							WriteHit: hit, WriteMiss: miss, Replacement: repl})
					}
				}
				// Generic-class variants: sub-block granularity and
				// sector fetch.
				add(Config{Size: 4 << 10, LineSize: line, Assoc: 1,
					WriteHit: hit, WriteMiss: miss, ValidGranularity: 4})
				add(Config{Size: 4 << 10, LineSize: line, Assoc: 2,
					WriteHit: hit, WriteMiss: miss, ValidGranularity: 4, SectorFetch: line >= 16})
			}
			if miss == WriteValidate {
				add(Config{Size: 4 << 10, LineSize: 16, Assoc: 1,
					WriteHit: WriteBack, WriteMiss: miss, WVMissWriteThrough: true})
			}
		}
	}
	return cfgs
}

// TestKernelClassSelection pins the kernel-selection rules.
func TestKernelClassSelection(t *testing.T) {
	cases := []struct {
		cfg  Config
		want kernelClass
	}{
		{Config{Size: 8 << 10, LineSize: 16, Assoc: 1, WriteHit: WriteBack, WriteMiss: FetchOnWrite}, kernelDirect},
		{Config{Size: 8 << 10, LineSize: 16, Assoc: 2, WriteHit: WriteBack, WriteMiss: FetchOnWrite}, kernelAssoc},
		{Config{Size: 8 << 10, LineSize: 16, Assoc: 1, WriteHit: WriteBack, WriteMiss: WriteValidate, ValidGranularity: 4}, kernelGeneric},
		{Config{Size: 8 << 10, LineSize: 16, Assoc: 1, WriteHit: WriteBack, WriteMiss: FetchOnWrite, ValidGranularity: 4, SectorFetch: true}, kernelGeneric},
		{Config{Size: 8 << 10, LineSize: 16, Assoc: 4, WriteHit: WriteThrough, WriteMiss: WriteAround, ValidGranularity: 1}, kernelAssoc},
	}
	for _, tc := range cases {
		c := MustNew(tc.cfg)
		if c.class != tc.want {
			t.Errorf("%s: class %d, want %d", tc.cfg, c.class, tc.want)
		}
	}
}

// TestKernelEquivalenceMatrix drives every kernel-grid configuration
// through the per-event Access path and the batch kernel path and
// requires identical stats, identical probe state, and an identical
// back-side call sequence.
func TestKernelEquivalenceMatrix(t *testing.T) {
	tr := kernelTrace(30000)
	const window = 512 // several decode windows, odd tail included
	for _, cfg := range kernelConfigs() {
		ref, bref := MustNew(cfg), &seqBackside{}
		got, bgot := MustNew(cfg), &seqBackside{}
		ref.SetBackside(bref)
		got.SetBackside(bgot)

		ref.AccessTrace(tr)

		dec := make([]Decoded, window)
		for start := 0; start < tr.Len(); start += window {
			end := start + window
			if end > tr.Len() {
				end = tr.Len()
			}
			events := tr.Events[start:end]
			got.DecodeBatch(events, dec)
			got.AccessBatch(events, dec)
		}

		ref.Flush()
		got.Flush()
		if !reflect.DeepEqual(got.Stats(), ref.Stats()) {
			t.Errorf("%s (class %d): batch kernel stats differ:\n batch %+v\n ref   %+v",
				cfg, got.class, got.Stats(), ref.Stats())
		}
		if *bgot != *bref {
			t.Errorf("%s (class %d): back-side sequence differs:\n batch %+v\n ref   %+v",
				cfg, got.class, *bgot, *bref)
		}
	}
}

// TestKernelGeometrySharing pins that DecodeBatch output from one gang
// member is valid for any member with an equal Geometry() key — the
// contract the sweep engine's per-geometry decode relies on.
func TestKernelGeometrySharing(t *testing.T) {
	tr := kernelTrace(20000)
	// 4KB direct and 8KB 2-way share (lineShift, setShift): 256 sets of
	// 16B lines each.
	a := MustNew(Config{Size: 4 << 10, LineSize: 16, Assoc: 1, WriteHit: WriteBack, WriteMiss: WriteValidate})
	b := MustNew(Config{Size: 8 << 10, LineSize: 16, Assoc: 2, WriteHit: WriteThrough, WriteMiss: WriteAround})
	if a.Geometry() != b.Geometry() {
		t.Fatalf("geometry keys differ: %#x vs %#x", a.Geometry(), b.Geometry())
	}
	ref := MustNew(b.Config())
	ref.AccessTrace(tr)
	ref.Flush()

	dec := make([]Decoded, tr.Len())
	a.DecodeBatch(tr.Events, dec) // decoded by the *other* member
	b.AccessBatch(tr.Events, dec)
	b.Flush()
	if !reflect.DeepEqual(b.Stats(), ref.Stats()) {
		t.Errorf("shared-geometry decode: stats differ:\n got %+v\n ref %+v", b.Stats(), ref.Stats())
	}
}

// TestKernelZeroAlloc pins the zero-allocation contract for decode and
// for every kernel class, mirroring TestAccessZeroAlloc.
func TestKernelZeroAlloc(t *testing.T) {
	tr := kernelTrace(4000)
	classes := []Config{
		{Size: 8 << 10, LineSize: 16, Assoc: 1, WriteHit: WriteBack, WriteMiss: WriteValidate},
		{Size: 8 << 10, LineSize: 16, Assoc: 2, WriteHit: WriteThrough, WriteMiss: WriteAround},
		{Size: 8 << 10, LineSize: 16, Assoc: 1, WriteHit: WriteBack, WriteMiss: FetchOnWrite, ValidGranularity: 4},
	}
	dec := make([]Decoded, tr.Len())
	for _, cfg := range classes {
		c := MustNew(cfg)
		c.DecodeBatch(tr.Events, dec)
		// Warm once so steady state is measured.
		c.AccessBatch(tr.Events, dec)
		if av := testing.AllocsPerRun(10, func() { c.DecodeBatch(tr.Events, dec) }); av != 0 {
			t.Errorf("%s: DecodeBatch allocates %v allocs/run", cfg, av)
		}
		if av := testing.AllocsPerRun(10, func() { c.AccessBatch(tr.Events, dec) }); av != 0 {
			t.Errorf("%s (class %d): AccessBatch allocates %v allocs/run", cfg, c.class, av)
		}
	}
}

// TestResetMatchesFresh: a cache run part-way over a trace, then Reset
// and run over the whole trace through the batch kernels, ends on
// exactly the stats and back-side call sequence of a fresh cache, for
// every kernel-grid configuration (each kernel class, FIFO and Random
// replacement, sub-block and sector variants). Reset keeps the
// backside: the calls after it reach the one attached before.
func TestResetMatchesFresh(t *testing.T) {
	tr := kernelTrace(30000)
	for _, cfg := range kernelConfigs() {
		fresh, bfresh := MustNew(cfg), &seqBackside{}
		used, bused := MustNew(cfg), &seqBackside{}
		fresh.SetBackside(bfresh)
		used.SetBackside(bused)

		used.AccessEvents(tr.Events[:17000])
		used.Reset()
		*bused = seqBackside{}

		fresh.AccessEvents(tr.Events)
		used.AccessEvents(tr.Events)
		if got, want := used.Stats(), fresh.Stats(); got != want {
			t.Errorf("%s (class %d): Reset cache's stats differ:\n reset %+v\n fresh %+v", cfg, used.class, got, want)
		}
		fresh.Flush()
		used.Flush()
		if got, want := used.Stats(), fresh.Stats(); got != want {
			t.Errorf("%s (class %d): Reset cache's flushed stats differ:\n reset %+v\n fresh %+v", cfg, used.class, got, want)
		}
		if *bused != *bfresh {
			t.Errorf("%s (class %d): Reset cache's back-side sequence differs:\n reset %+v\n fresh %+v", cfg, used.class, *bused, *bfresh)
		}
		if used.Config() != cfg {
			t.Errorf("Reset changed the config %s to %s", cfg, used.Config())
		}
	}
}
