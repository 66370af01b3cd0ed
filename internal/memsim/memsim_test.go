package memsim

import (
	"errors"
	"testing"

	"cachewrite/internal/trace"
)

func TestAllocAlignmentAndSegments(t *testing.T) {
	m := New("t")
	a := m.Alloc(10, 8)
	if a%8 != 0 {
		t.Errorf("heap alloc not 8-aligned: %#x", a)
	}
	b := m.Alloc(4, 8)
	if b <= a {
		t.Errorf("second alloc %#x not past first %#x", b, a)
	}
	s := m.AllocStatic(16, 4)
	if s < StaticBase || s >= HeapBase {
		t.Errorf("static alloc %#x outside static segment", s)
	}
	if a < HeapBase {
		t.Errorf("heap alloc %#x below heap base", a)
	}
	st1 := m.AllocStack(32, 8)
	st2 := m.AllocStack(32, 8)
	if st2 >= st1 {
		t.Errorf("stack should grow down: %#x then %#x", st1, st2)
	}
	if st1%8 != 0 || st2%8 != 0 {
		t.Errorf("stack allocs not aligned: %#x %#x", st1, st2)
	}
}

func TestAllocZeroAlign(t *testing.T) {
	m := New("t")
	// align 0 is treated as 1; must not panic or loop.
	_ = m.Alloc(3, 0)
	_ = m.AllocStack(3, 0)
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New("t")
	a := m.Alloc(64, 8)
	m.WriteU32(a, 0xdeadbeef)
	if got := m.ReadU32(a); got != 0xdeadbeef {
		t.Errorf("ReadU32 = %#x", got)
	}
	m.WriteU64(a+8, 0x0123456789abcdef)
	if got := m.ReadU64(a + 8); got != 0x0123456789abcdef {
		t.Errorf("ReadU64 = %#x", got)
	}
	m.WriteF64(a+16, 3.25)
	if got := m.ReadF64(a + 16); got != 3.25 {
		t.Errorf("ReadF64 = %v", got)
	}
}

func TestTraceRecording(t *testing.T) {
	m := New("wl")
	a := m.Alloc(16, 8)
	m.Step(3)
	m.WriteU64(a, 1)
	m.ReadU32(a)
	tr := m.Trace()
	if tr.Name != "wl" {
		t.Errorf("trace name %q", tr.Name)
	}
	if tr.Len() != 2 {
		t.Fatalf("trace has %d events, want 2", tr.Len())
	}
	w := tr.Events[0]
	if w.Kind != trace.Write || w.Addr != a || w.Size != 8 || w.Gap != 3 {
		t.Errorf("write event = %+v", w)
	}
	r := tr.Events[1]
	if r.Kind != trace.Read || r.Size != 4 || r.Gap != 0 {
		t.Errorf("read event = %+v", r)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("recorded trace invalid: %v", err)
	}
}

func TestPeekPokeUntraced(t *testing.T) {
	m := New("t")
	a := m.Alloc(16, 8)
	m.PokeU32(a, 42)
	m.PokeU32(a+8, 7)
	if m.Trace().Len() != 0 {
		t.Fatalf("Poke recorded %d events", m.Trace().Len())
	}
	if m.PeekU32(a) != 42 || m.PeekU32(a+8) != 7 {
		t.Error("Peek does not see Poked values")
	}
	if m.Trace().Len() != 0 {
		t.Fatalf("Peek recorded %d events", m.Trace().Len())
	}
}

func TestPageBoundaryCrossingFails(t *testing.T) {
	m := New("t")
	// 4 bytes starting 2 bytes before a page boundary.
	if got := m.ReadU32(HeapBase + pageSize - 2); got != 0 {
		t.Errorf("page-crossing read = %d, want 0", got)
	}
	if err := m.Err(); !errors.Is(err, ErrPageCross) {
		t.Fatalf("Err() = %v, want ErrPageCross", err)
	}
	// The failing access was not recorded, and the error is sticky: later
	// accesses are not recorded either.
	if m.Trace().Len() != 0 {
		t.Errorf("trace has %d events after a failed access", m.Trace().Len())
	}
	a := m.Alloc(16, 8)
	m.WriteU32(a, 1)
	if m.Trace().Len() != 0 {
		t.Error("accesses after a sticky error were recorded")
	}
	// Page-crossing writes are swallowed by scratch, not applied.
	m.WriteU32(HeapBase+pageSize-2, 7)
	if m.PeekU32(HeapBase+pageSize-4) != 0 {
		t.Error("page-crossing write leaked into real memory")
	}
}

func TestF64Array(t *testing.T) {
	m := New("t")
	a := m.NewF64Array(10)
	if a.Len() != 10 {
		t.Fatalf("Len = %d", a.Len())
	}
	if a.Addr(3) != a.Addr(0)+24 {
		t.Errorf("Addr(3) = %#x, want base+24", a.Addr(3))
	}
	a.Set(3, 2.5)
	if a.Get(3) != 2.5 || a.Peek(3) != 2.5 {
		t.Error("Set/Get/Peek mismatch")
	}
}

func TestU32ArrayVariants(t *testing.T) {
	m := New("t")
	heap := m.NewU32Array(4)
	static := m.NewU32ArrayStatic(4)
	stack := m.NewU32ArrayStack(4)
	if heap.Addr(0) < HeapBase {
		t.Errorf("heap array at %#x", heap.Addr(0))
	}
	if static.Addr(0) < StaticBase || static.Addr(0) >= HeapBase {
		t.Errorf("static array at %#x", static.Addr(0))
	}
	if stack.Addr(0) >= StackBase || stack.Addr(0) < HeapBase {
		t.Errorf("stack array at %#x", stack.Addr(0))
	}
	for i, arr := range []U32Array{heap, static, stack} {
		arr.Set(2, uint32(100+i))
		if arr.Get(2) != uint32(100+i) || arr.Peek(2) != uint32(100+i) {
			t.Errorf("array %d Set/Get mismatch", i)
		}
	}
	stack.Poke(1, 9)
	if stack.Peek(1) != 9 {
		t.Error("U32Array Poke/Peek mismatch")
	}
}

func TestSparsePagesIndependent(t *testing.T) {
	m := New("t")
	// Two addresses far apart must not alias.
	m.PokeU32(HeapBase, 1)
	m.PokeU32(HeapBase+64*pageSize, 2)
	if m.PeekU32(HeapBase) != 1 || m.PeekU32(HeapBase+64*pageSize) != 2 {
		t.Error("distant pages alias each other")
	}
}
