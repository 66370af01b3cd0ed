package trace

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// interleave merges with no start offsets, discarding the stats.
func interleave(name string, ts ...*Trace) *Trace {
	out, _ := InterleaveOffset(name, nil, ts...)
	return out
}

func TestInterleaveByTime(t *testing.T) {
	// a's events at instruction times 1, 2; b's at 1.5-ish: b has gap 0
	// event after a gap-0 event... construct: a = events at t=1, t=2.
	// b = one event at t=3 (gap 2).
	a := &Trace{Events: []Event{
		{Addr: 0x0, Size: 4, Kind: Read}, // t=1
		{Addr: 0x4, Size: 4, Kind: Read}, // t=2
	}}
	b := &Trace{Events: []Event{
		{Addr: 0x100, Size: 4, Kind: Write, Gap: 2}, // t=3
	}}
	out := interleave("mix", a, b)
	if out.Len() != 3 {
		t.Fatalf("len = %d", out.Len())
	}
	if out.Events[0].Addr != 0x0 || out.Events[1].Addr != 0x4 || out.Events[2].Addr != 0x100 {
		t.Fatalf("order: %+v", out.Events)
	}
	// Instruction positions preserved: total = 3.
	if got := out.Stats().Instructions; got != 3 {
		t.Errorf("instructions = %d, want 3", got)
	}
}

func TestInterleaveDeterministicTies(t *testing.T) {
	a := &Trace{Events: []Event{{Addr: 0x0, Size: 4, Kind: Read}}}
	b := &Trace{Events: []Event{{Addr: 0x100, Size: 4, Kind: Read}}}
	out := interleave("mix", a, b)
	// Tie at t=1: input order wins.
	if out.Events[0].Addr != 0x0 {
		t.Error("tie broken against input order")
	}
	if out.Events[1].Gap != 0 {
		t.Errorf("tied second event gap = %d", out.Events[1].Gap)
	}
}

func TestInterleaveEmptyInputs(t *testing.T) {
	if interleave("x").Len() != 0 {
		t.Error("no inputs should give empty trace")
	}
	a := &Trace{Events: []Event{{Addr: 0, Size: 4, Kind: Read}}}
	if interleave("x", a, &Trace{}).Len() != 1 {
		t.Error("empty input mishandled")
	}
}

// TestInterleaveOffsetSplitsOversizedGaps is the regression test for
// the gap-clamp bug: a scheduled quiet period longer than the Gap
// field's 65535-instruction capacity used to be silently truncated,
// shortening the merged trace. The split implementation carries the
// excess into later carrier events, so total instruction time is
// preserved exactly.
func TestInterleaveOffsetSplitsOversizedGaps(t *testing.T) {
	a := &Trace{Events: []Event{{Addr: 0x0, Size: 4, Kind: Read}}} // t=1
	b := &Trace{Events: []Event{
		{Addr: 0x100, Size: 4, Kind: Read}, // t=offset+1
		{Addr: 0x104, Size: 4, Kind: Read}, // t=offset+2
		{Addr: 0x108, Size: 4, Kind: Read}, // t=offset+3
	}}
	const offset = 100000
	out, st := InterleaveOffset("mix", []uint64{0, offset}, a, b)
	if out.Len() != 4 {
		t.Fatalf("len = %d", out.Len())
	}
	// Union schedule: events at 1, 100001, 100002, 100003 → 100003
	// instructions total.
	if got := out.Stats().Instructions; got != offset+3 {
		t.Errorf("instructions = %d, want %d", got, offset+3)
	}
	if st.GapSplits != 1 {
		t.Errorf("gap splits = %d, want 1", st.GapSplits)
	}
	if st.LostInstructions != 0 {
		t.Errorf("lost instructions = %d, want 0", st.LostInstructions)
	}
	// The oversized gap saturates its event and the remainder lands on
	// the next carrier: 1 + (65535+1) + (34464+1) + (0+1) = 100003.
	if out.Events[1].Gap != 0xffff {
		t.Errorf("split event gap = %d, want 65535", out.Events[1].Gap)
	}
	if out.Events[2].Gap != 34464 {
		t.Errorf("carrier event gap = %d, want 34464", out.Events[2].Gap)
	}
	if st.CarriedMax != offset+1-65537 {
		t.Errorf("carried max = %d, want %d", st.CarriedMax, offset+1-65537)
	}
}

// TestInterleaveOffsetLostInstructions: when no carrier events follow
// an oversized gap, the deficit cannot be represented and must be
// reported, not silently dropped.
func TestInterleaveOffsetLostInstructions(t *testing.T) {
	a := &Trace{Events: []Event{{Addr: 0x0, Size: 4, Kind: Read}}}
	b := &Trace{Events: []Event{{Addr: 0x100, Size: 4, Kind: Read}}}
	out, st := InterleaveOffset("mix", []uint64{0, 200000}, a, b)
	want := uint64(200001 - (1 + 65536))
	if st.LostInstructions != want {
		t.Errorf("lost = %d, want %d", st.LostInstructions, want)
	}
	if got := out.Stats().Instructions; got != 200001-want {
		t.Errorf("instructions = %d, want %d", got, 200001-want)
	}
}

// TestInterleaveTieAfterCursorRemoval pins deterministic tie-breaking
// by original input order even after an earlier input exhausts
// mid-merge and its cursor is removed from the working set.
func TestInterleaveTieAfterCursorRemoval(t *testing.T) {
	// a exhausts at t=1; b and c then tie at t=3. Input order must
	// still favor b, not whichever cursor slot a's removal shifted.
	a := &Trace{Events: []Event{{Addr: 0xa0, Size: 4, Kind: Read}}}         // t=1
	b := &Trace{Events: []Event{{Addr: 0xb0, Size: 4, Kind: Read, Gap: 2}}} // t=3
	c := &Trace{Events: []Event{{Addr: 0xc0, Size: 4, Kind: Read, Gap: 2}}} // t=3
	out := interleave("mix", a, b, c)
	if out.Len() != 3 {
		t.Fatalf("len = %d", out.Len())
	}
	if out.Events[1].Addr != 0xb0 || out.Events[2].Addr != 0xc0 {
		t.Fatalf("tie after removal broken against input order: %+v", out.Events)
	}
	if got := out.Stats().Instructions; got != 4 {
		t.Errorf("instructions = %d, want 4 (events at 1, 3, 3+1)", got)
	}
}

// TestInterleaveOffsetEmptyInputs: empty traces are skipped whether or
// not they carry offsets, and an all-empty merge is empty with clean
// stats.
func TestInterleaveOffsetEmptyInputs(t *testing.T) {
	out, st := InterleaveOffset("x", []uint64{5, 10})
	if out.Len() != 0 || st != (InterleaveStats{}) {
		t.Errorf("no inputs: len %d stats %+v", out.Len(), st)
	}
	a := &Trace{Events: []Event{{Addr: 0, Size: 4, Kind: Read}}}
	out, st = InterleaveOffset("x", []uint64{7, 3}, &Trace{}, a)
	if out.Len() != 1 || out.Events[0].Gap != 3 {
		t.Errorf("empty first input mishandled: len %d events %+v", out.Len(), out.Events)
	}
	if st != (InterleaveStats{}) {
		t.Errorf("stats = %+v, want zero", st)
	}
}

// TestRebaseUpperBoundary: an access ending exactly at the top of the
// 32-bit space (a+Size == 1<<32) is legal; one byte further is not.
func TestRebaseUpperBoundary(t *testing.T) {
	a := &Trace{Events: []Event{{Addr: 0xfffffff0, Size: 8, Kind: Read}}}
	out, err := Rebase(a, 8) // ends at 0x100000000 exactly
	if err != nil {
		t.Fatalf("boundary access rejected: %v", err)
	}
	if out.Events[0].Addr != 0xfffffff8 {
		t.Errorf("addr = %#x", out.Events[0].Addr)
	}
	if _, err := Rebase(a, 9); err == nil {
		t.Error("access one past the boundary accepted")
	}
}

func TestRebase(t *testing.T) {
	a := &Trace{Events: []Event{{Addr: 0x100, Size: 4, Kind: Read}}}
	out, err := Rebase(a, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if out.Events[0].Addr != 0x1100 {
		t.Errorf("addr = %#x", out.Events[0].Addr)
	}
	// Original untouched.
	if a.Events[0].Addr != 0x100 {
		t.Error("Rebase mutated input")
	}
	if _, err := Rebase(a, -0x200); err == nil {
		t.Error("negative wrap accepted")
	}
	if _, err := Rebase(a, 1<<32-8); err == nil {
		t.Error("overflow accepted")
	}
}

func TestCompactRegions(t *testing.T) {
	// Three sparse superblocks (the yacc shape: static data near 0,
	// heap in the middle, stack near the top) plus an event that spans
	// a boundary between two adjacent occupied blocks.
	tr := &Trace{Name: "sparse", Events: []Event{
		{Addr: 0x0000_1234, Size: 4, Kind: Read},
		{Addr: 0x1000_0008, Size: 8, Kind: Write, Gap: 3},
		{Addr: 0x7fff_ff00, Size: 4, Kind: Write},
		{Addr: 0x7ffffffc, Size: 8, Kind: Read}, // crosses into block 0x80
	}}
	out, err := CompactRegions(tr, 24)
	if err != nil {
		t.Fatal(err)
	}
	// Occupied blocks 0x00, 0x10, 0x7f, 0x80 -> slots 0..3; offsets and
	// every non-address field survive.
	want := []uint32{0x0000_1234, 0x0100_0008, 0x02ff_ff00, 0x02ff_fffc}
	for i, e := range out.Events {
		if e.Addr != want[i] {
			t.Errorf("event %d addr = %#x, want %#x", i, e.Addr, want[i])
		}
		if e.Size != tr.Events[i].Size || e.Kind != tr.Events[i].Kind || e.Gap != tr.Events[i].Gap {
			t.Errorf("event %d lost non-address fields: %+v", i, e)
		}
	}
	// The boundary-spanning event stays contiguous: its last byte lands
	// in the next compact block.
	if end := out.Events[3].Addr + 8; end != 0x0300_0004 {
		t.Errorf("spanning event ends at %#x", end)
	}
	if _, err := CompactRegions(tr, 3); err == nil {
		t.Error("block bits below range accepted")
	}
	if _, err := CompactRegions(tr, 32); err == nil {
		t.Error("block bits above range accepted")
	}
}

// compactRegionsReference is CompactRegions with one map insert per
// block end and one slot lookup per event.
func compactRegionsReference(t *Trace, blockBits uint) *Trace {
	seen := make(map[uint32]struct{})
	for _, e := range t.Events {
		seen[e.Addr>>blockBits] = struct{}{}
		seen[(e.Addr+uint32(e.Size)-1)>>blockBits] = struct{}{}
	}
	blocks := make([]uint32, 0, len(seen))
	for b := range seen {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	slot := make(map[uint32]uint32, len(blocks))
	for i, b := range blocks {
		slot[b] = uint32(i)
	}
	mask := uint32(1)<<blockBits - 1
	out := &Trace{Name: t.Name, Events: make([]Event, t.Len())}
	for i, e := range t.Events {
		e.Addr = slot[e.Addr>>blockBits]<<blockBits | e.Addr&mask
		out.Events[i] = e
	}
	return out
}

// randomCompactTrace draws a trace that revisits a few blocks in runs,
// jumps between them, and straddles block boundaries, with its block
// width.
func randomCompactTrace(rng *rand.Rand) (*Trace, uint) {
	blockBits := uint(4 + rng.Intn(20))
	bases := make([]uint32, 1+rng.Intn(6))
	for i := range bases {
		bases[i] = rng.Uint32() >> 1 &^ (1<<blockBits - 1)
	}
	tr := &Trace{Name: "rand"}
	base := bases[0]
	for i, n := 0, rng.Intn(400); i < n; i++ {
		if rng.Intn(8) == 0 {
			base = bases[rng.Intn(len(bases))]
		}
		size := uint8(1 << rng.Intn(4))
		off := rng.Uint32() & (1<<blockBits - 1)
		if rng.Intn(4) == 0 {
			// The last bytes of the block, so the access spans into
			// the next one.
			off = 1<<blockBits - uint32(rng.Intn(int(size)))
		}
		tr.Append(Event{Addr: base + off, Size: size, Gap: uint16(rng.Intn(3)), Kind: Kind(rng.Intn(2))})
	}
	return tr, blockBits
}

// TestCompactRegionsMatchesReference: on random traces CompactRegions
// equals the map-per-event reference.
func TestCompactRegionsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		tr, blockBits := randomCompactTrace(rng)
		got, err := CompactRegions(tr, blockBits)
		if err != nil {
			t.Fatal(err)
		}
		if want := compactRegionsReference(tr, blockBits); !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d (block bits %d): CompactRegions differs from the reference", iter, blockBits)
		}
	}
}

// TestCompactRegionsPrefix: on random traces the first n events of
// CompactRegionsPrefix equal the full compaction's, for n at 0, 1,
// half and the whole length; bad block widths and prefix lengths are
// rejected.
func TestCompactRegionsPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 200; iter++ {
		tr, blockBits := randomCompactTrace(rng)
		full, err := CompactRegions(tr, blockBits)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, tr.Len() / 2, tr.Len()} {
			if n > tr.Len() {
				continue
			}
			got, err := CompactRegionsPrefix(tr, blockBits, n)
			if err != nil {
				t.Fatalf("iteration %d: prefix %d: %v", iter, n, err)
			}
			if got.Name != tr.Name || got.Len() != n || !slices.Equal(got.Events, full.Events[:n]) {
				t.Fatalf("iteration %d (block bits %d): prefix %d differs from the full compaction's", iter, blockBits, n)
			}
		}
		for _, n := range []int{-1, tr.Len() + 1} {
			if _, err := CompactRegionsPrefix(tr, blockBits, n); err == nil {
				t.Errorf("iteration %d: prefix %d of %d events accepted", iter, n, tr.Len())
			}
		}
		for _, bits := range []uint{3, 32} {
			if _, err := CompactRegionsPrefix(tr, bits, tr.Len()/2); err == nil {
				t.Errorf("iteration %d: block bits %d accepted", iter, bits)
			}
		}
	}
}
