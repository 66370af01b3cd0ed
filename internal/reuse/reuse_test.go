package reuse

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
)

func w(addr uint32) trace.Event { return trace.Event{Addr: addr, Size: 4, Kind: trace.Write} }
func r(addr uint32) trace.Event { return trace.Event{Addr: addr, Size: 4, Kind: trace.Read} }

func TestAnalyzeValidation(t *testing.T) {
	if _, err := Analyze(&trace.Trace{}, 0); err == nil {
		t.Error("zero line size accepted")
	}
	if _, err := Analyze(&trace.Trace{}, 12); err == nil {
		t.Error("non-pow2 line size accepted")
	}
}

func TestColdWrites(t *testing.T) {
	tr := &trace.Trace{Events: []trace.Event{w(0x00), w(0x10), w(0x20)}}
	p, err := Analyze(tr, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.Writes != 3 || p.Cold != 3 {
		t.Errorf("writes=%d cold=%d, want 3/3", p.Writes, p.Cold)
	}
	if f := p.PredictDirtyFraction(1024); f != 0 {
		t.Errorf("cold-only trace predicts %v dirty", f)
	}
}

func TestImmediateRewrite(t *testing.T) {
	tr := &trace.Trace{Events: []trace.Event{w(0x00), w(0x04)}} // same 16B line
	p, err := Analyze(tr, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.Samples[0] != 1 {
		t.Errorf("immediate rewrite not in bucket 0: %v", p.Samples)
	}
	if f := p.PredictDirtyFraction(1); f != 0.5 {
		t.Errorf("predict(1 line) = %v, want 0.5", f)
	}
}

func TestInterimDepthCounts(t *testing.T) {
	// Write A, touch 2 other lines, write A again: max depth 2, so A
	// stays dirty only in caches of >2 lines (capacity 4 is the next
	// power of two the histogram resolves).
	tr := &trace.Trace{Events: []trace.Event{
		w(0x00), r(0x10), r(0x20), w(0x00),
	}}
	p, err := Analyze(tr, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.Writes != 2 || p.Cold != 1 {
		t.Fatalf("writes=%d cold=%d", p.Writes, p.Cold)
	}
	if p.Samples[2] != 1 { // depth 2 -> bucket [2,4)
		t.Errorf("samples = %v, want depth-2 in bucket 2", p.Samples)
	}
	if f := p.PredictDirtyFraction(2); f != 0 {
		t.Errorf("predict(2) = %v, want 0 (depth 2 means evicted at capacity 2)", f)
	}
	if f := p.PredictDirtyFraction(4); f != 0.5 {
		t.Errorf("predict(4) = %v, want 0.5", f)
	}
}

func TestInterimEvictionDetected(t *testing.T) {
	// A deep excursion between touches: write A, 4 distinct reads, read
	// A (pull back), write A. The final reuse distance at the write is
	// 0, but the interim depth was 4 — in a 4-line cache A was evicted,
	// so the write must not predict dirty at capacity 4.
	tr := &trace.Trace{Events: []trace.Event{
		w(0x00),
		r(0x10), r(0x20), r(0x30), r(0x40),
		r(0x00),
		w(0x00),
	}}
	p, err := Analyze(tr, 16)
	if err != nil {
		t.Fatal(err)
	}
	if f := p.PredictDirtyFraction(4); f != 0 {
		t.Errorf("predict(4) = %v, want 0 (interim eviction)", f)
	}
	if f := p.PredictDirtyFraction(8); f != 0.5 {
		t.Errorf("predict(8) = %v, want 0.5", f)
	}
}

// TestPredictionMatchesFullyAssociativeSimulation: on random traces,
// the profile's prediction must equal the simulator's measured
// writes-to-dirty fraction for fully-associative LRU write-back caches
// of power-of-two capacities. This pins the analytical model to the
// functional simulator.
func TestPredictionMatchesFullyAssociativeSimulation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &trace.Trace{}
		hot := make([]uint32, 24)
		for i := range hot {
			hot[i] = uint32(rng.Intn(1<<12)) &^ 3
		}
		for i := 0; i < 3000; i++ {
			addr := hot[rng.Intn(len(hot))]
			if rng.Intn(4) == 0 {
				addr = uint32(rng.Intn(1<<14)) &^ 3
			}
			k := trace.Read
			if rng.Intn(2) == 0 {
				k = trace.Write
			}
			tr.Append(trace.Event{Addr: addr, Size: 4, Kind: k})
		}
		p, err := Analyze(tr, 16)
		if err != nil {
			return false
		}
		for _, lines := range []int{4, 16, 64} {
			cfg := cache.Config{Size: lines * 16, LineSize: 16, Assoc: lines,
				WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
			c := cache.MustNew(cfg)
			c.AccessTrace(tr)
			measured := c.Stats().WritesToDirtyFraction()
			predicted := p.PredictDirtyFraction(lines)
			if diff := measured - predicted; diff > 1e-12 || diff < -1e-12 {
				t.Logf("seed %d lines %d: measured %v predicted %v", seed, lines, measured, predicted)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictMonotone(t *testing.T) {
	tr := &trace.Trace{}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		tr.Append(trace.Event{Addr: uint32(rng.Intn(1<<12)) &^ 3, Size: 4, Kind: trace.Write})
	}
	p, err := Analyze(tr, 16)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for lines := 1; lines <= 1<<12; lines *= 2 {
		f := p.PredictDirtyFraction(lines)
		if f < prev {
			t.Fatalf("prediction not monotone at %d lines: %v < %v", lines, f, prev)
		}
		prev = f
	}
}

func TestMeanDepth(t *testing.T) {
	var p Profile
	if p.MeanDepth() != 0 {
		t.Error("empty profile mean not zero")
	}
	p.Samples = make([]uint64, 33)
	p.Samples[0] = 10 // all immediate rewrites
	if p.MeanDepth() != 0 {
		t.Errorf("mean of bucket-0 = %v", p.MeanDepth())
	}
	p.Samples[3] = 10 // [4,8) midpoint 6
	if m := p.MeanDepth(); m != 3 {
		t.Errorf("mean = %v, want 3 (half at 0, half at 6)", m)
	}
}

func TestZeroCapacity(t *testing.T) {
	p := &Profile{Writes: 5, Samples: make([]uint64, 33)}
	if p.PredictDirtyFraction(0) != 0 {
		t.Error("zero capacity should predict zero")
	}
}

// naiveProfile is Analyze over an explicit MRU-first list of lines: a
// line's depth is its index in the list.
func naiveProfile(tr *trace.Trace, lineSize int) *Profile {
	var lru []uint32
	maxGap := map[uint32]int{}
	p := &Profile{LineSize: lineSize, Samples: make([]uint64, 33)}
	for _, e := range tr.Events {
		first := e.Addr / uint32(lineSize)
		last := (e.Addr + uint32(e.Size) - 1) / uint32(lineSize)
		for ln := first; ln <= last; ln++ {
			depth := slices.Index(lru, ln)
			if depth >= 0 {
				lru = slices.Delete(lru, depth, depth+1)
			}
			lru = slices.Insert(lru, 0, ln)
			if g, ok := maxGap[ln]; !ok || depth < 0 {
				maxGap[ln] = -1
			} else if g >= 0 && depth > g {
				maxGap[ln] = depth
			}
			if e.Kind == trace.Write {
				if ln == first {
					p.Writes++
					if g := maxGap[ln]; g < 0 {
						p.Cold++
					} else {
						p.Samples[bucketFor(g)]++
					}
				}
				maxGap[ln] = 0
			}
			if ln == last { // at 1B lines last may be 0xFFFFFFFF
				break
			}
		}
	}
	return p
}

// TestAnalyzeLineSpanningAccesses: accesses wider than a line touch
// several lines each, and each line they touch is one access to the
// stack (8B writes at the paper's 4B lines once indexed past the end
// of a Fenwick tree sized by events), so the profile must match a
// naive LRU list.
func TestAnalyzeLineSpanningAccesses(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := &trace.Trace{}
	for i := 0; i < 3000; i++ {
		k := trace.Write
		if rng.Intn(3) == 0 {
			k = trace.Read
		}
		size := uint8(8)
		if rng.Intn(4) == 0 {
			size = uint8(1 + rng.Intn(16))
		}
		tr.Append(trace.Event{Addr: uint32(rng.Intn(1 << 10)), Size: size, Kind: k})
	}
	for _, line := range []int{4, 8, 16} {
		got, err := Analyze(tr, line)
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveProfile(tr, line); !reflect.DeepEqual(got, want) {
			t.Errorf("%dB lines: profile %+v, naive LRU list %+v", line, got, want)
		}
	}
}

// TestSpansAtTopOfAddressSpace: at 1B and 2B lines an access ending at
// 0xFFFFFFFF has last line 0xFFFFFFFF or 0x7FFFFFFF, and a walk that
// tests ln <= last never ended at the former. The profile and the
// write cache curve must finish and match the naive LRU list and
// writecache.Cache; an access that wraps past 0xFFFFFFFF touches no
// line in any of them.
func TestSpansAtTopOfAddressSpace(t *testing.T) {
	tr := &trace.Trace{Name: "top"}
	for i := 0; i < 4; i++ {
		tr.Append(trace.Event{Addr: 0xFFFFFFFC, Size: 4, Kind: trace.Write})
		tr.Append(trace.Event{Addr: 0xFFFFFFFF, Size: 1, Kind: trace.Read})
		tr.Append(trace.Event{Addr: 0x100 + uint32(i)*4, Size: 4, Kind: trace.Write})
		tr.Append(trace.Event{Addr: 0xFFFFFFFE, Size: 2, Kind: trace.Write})
		tr.Append(trace.Event{Addr: 0xFFFFFFF0, Size: 16, Kind: trace.Write})
		tr.Append(trace.Event{Addr: 0xFFFFFFFD, Size: 8, Kind: trace.Write}) // wraps
		tr.Append(trace.Event{Addr: 0xFFFFFFFF, Size: 1, Kind: trace.Write})
	}
	for _, line := range []int{1, 2} {
		got, err := Analyze(tr, line)
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveProfile(tr, line); !reflect.DeepEqual(got, want) {
			t.Errorf("%dB lines: profile %+v, naive LRU list %+v", line, got, want)
		}
		checkCurve(t, tr, line, 8)
	}
}

// packTrace is a trace whose footprint at 4-16B lines is more than
// minWindow/4 lines. Half its accesses go to 64 hot halfword-aligned
// addresses, which span two lines at every line size; half go to the
// first word of one of 1,100 16B blocks.
func packTrace() *trace.Trace {
	rng := rand.New(rand.NewSource(11))
	tr := &trace.Trace{Name: "packs"}
	hot := make([]uint32, 64)
	for i := range hot {
		hot[i] = uint32(rng.Intn(1100*16)) &^ 1
	}
	for i := 0; i < 200000; i++ {
		addr := hot[rng.Intn(len(hot))]
		if rng.Intn(2) == 0 {
			addr = uint32(rng.Intn(1100)) * 16
		}
		k := trace.Read
		if rng.Intn(3) > 0 {
			k = trace.Write
		}
		tr.Append(trace.Event{Addr: addr, Size: 4, Kind: k})
	}
	return tr
}

// TestStackPacks: a footprint larger than the first window and a pass
// many windows long make the stack pack and grow its window over and
// over, which must change no depth: the profile matches a naive LRU
// list and the write cache curve matches writecache.Cache.
func TestStackPacks(t *testing.T) {
	if testing.Short() {
		t.Skip("naive LRU list over a large footprint in -short mode")
	}
	tr := packTrace()
	for _, line := range []int{4, 8, 16} {
		shift, _ := lineShiftOf(line)
		s, packs, lines := newStack(minWindow), 0, map[uint32]bool{}
		for _, e := range tr.Events {
			first, end := lineSpan(e, shift)
			for ln := first; ln != end; ln++ {
				before := s.pos
				s.access(ln)
				lines[ln] = true
				if s.pos <= before {
					packs++
				}
			}
		}
		if len(lines) <= minWindow/4 || packs < 20 {
			t.Fatalf("%dB lines: %d lines and %d packs, want over %d lines and at least 20 packs",
				line, len(lines), packs, minWindow/4)
		}
		got, err := Analyze(tr, line)
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveProfile(tr, line); !reflect.DeepEqual(got, want) {
			t.Errorf("%dB lines: profile %+v, naive LRU list %+v", line, got, want)
		}
		checkCurve(t, tr, line, 16)
	}
}

// FuzzAnalyzeMatchesNaive compares the profile with a naive LRU list
// on short random traces at line sizes 4-64, through a stack whose
// window starts at 1-8 positions, so it packs and grows many times.
// Each input byte triple is one event, as in FuzzWriteCacheCurve.
func FuzzAnalyzeMatchesNaive(f *testing.F) {
	f.Add([]byte{0, 0, 8, 4, 0, 8, 0, 0, 8}, uint8(0), uint8(0))
	f.Add([]byte{7, 1, 15, 3, 2, 0x83, 12, 0, 16, 7, 1, 2, 9, 0x81, 4}, uint8(1), uint8(3))
	f.Add([]byte{255, 255, 16, 250, 255, 0x89, 1, 2, 3}, uint8(4), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, lineExp, window uint8) {
		lineSize := 4 << (lineExp % 5)
		tr := &trace.Trace{Name: "fuzz"}
		for i := 0; i+2 < len(data) && tr.Len() < 512; i += 3 {
			kind := trace.Write
			if data[i+2]&0x80 != 0 {
				kind = trace.Read
			}
			addr := uint32(data[i])<<2 | uint32(data[i+1]&3)
			if data[i+1]&0x80 != 0 {
				addr = ^addr
			}
			tr.Append(trace.Event{Addr: addr, Size: 1 + data[i+2]%16, Kind: kind})
		}
		got, err := analyze(tr, lineSize, 1+int(window%8))
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveProfile(tr, lineSize); !reflect.DeepEqual(got, want) {
			t.Fatalf("%dB lines: profile %+v, naive LRU list %+v", lineSize, got, want)
		}
	})
}
