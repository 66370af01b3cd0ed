// Package memsim provides a traced virtual memory for workloads.
//
// The paper's benchmarks were real programs run under a MultiTitan
// architecture simulator (§2). Our stand-in workloads are real
// algorithms too: they genuinely compute on data stored in a sparse
// virtual memory, and every typed access both moves data and emits a
// trace event. Address streams are therefore produced by executing the
// algorithm, not by replaying a canned pattern.
//
// Memory is sparse (page-granular) so workloads can lay out data at
// paper-realistic addresses (separate stack, heap and static segments)
// without allocating the whole 4GB space.
package memsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"cachewrite/internal/trace"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Segment bases loosely modelled on a classic Unix layout; distinct
// high bits keep segments from colliding in small direct-mapped caches
// only by their low (index) bits, as in a real address space.
const (
	// StaticBase is the base address of the static data segment.
	StaticBase uint32 = 0x0001_0000
	// HeapBase is the base address of the heap segment.
	HeapBase uint32 = 0x1000_0000
	// StackBase is the top of the downward-growing stack segment.
	StackBase uint32 = 0x7fff_f000
)

// Mem is a sparse, traced virtual memory. The zero value is not ready
// for use; call New.
type Mem struct {
	pages map[uint32][]byte
	trace *trace.Trace
	// gap counts instructions executed since the last memory reference.
	gap uint64
	// err is the first failure encountered (sticky); see Err. Once set,
	// no further trace events are recorded, but the workload's real
	// computation proceeds so algorithms still terminate normally.
	err error
	// scratch backs accesses that cannot touch real memory (page-
	// crossing) so reads see deterministic zeroes instead of crashing.
	scratch [8]byte

	heapNext   uint32
	staticNext uint32
	stackNext  uint32
}

// Sentinel errors, matchable with errors.Is against Err's result.
var (
	// ErrPageCross reports an access spanning a page boundary, which
	// the aligned power-of-two accesses of well-formed workloads never
	// produce.
	ErrPageCross = errors.New("memsim: access crosses a page boundary")
)

// New returns an empty memory that records references into a trace with
// the given workload name.
func New(name string) *Mem {
	return &Mem{
		pages:      make(map[uint32][]byte),
		trace:      &trace.Trace{Name: name},
		heapNext:   HeapBase,
		staticNext: StaticBase,
		stackNext:  StackBase,
	}
}

// Trace returns the reference stream recorded so far. The returned
// trace aliases internal storage; callers must not mutate it while the
// workload is still running.
func (m *Mem) Trace() *trace.Trace { return m.trace }

// Err returns the first failure encountered while tracing: an error
// wrapping ErrPageCross after a malformed access. It is nil for a
// clean run. The trace recorded up to the failure remains valid.
func (m *Mem) Err() error { return m.err }

// fail records the first error; later failures keep the original.
func (m *Mem) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// Step records n non-memory instructions (ALU work, branches,
// address arithmetic) between data references.
func (m *Mem) Step(n int) {
	m.gap += uint64(n)
}

// Alloc reserves size bytes on the heap aligned to align (a power of
// two, at least 1) and returns the base address.
func (m *Mem) Alloc(size, align uint32) uint32 {
	return m.allocFrom(&m.heapNext, size, align)
}

// AllocStatic reserves size bytes in the static segment.
func (m *Mem) AllocStatic(size, align uint32) uint32 {
	return m.allocFrom(&m.staticNext, size, align)
}

// AllocStack reserves size bytes on the downward-growing stack and
// returns the (low) base address of the reservation.
func (m *Mem) AllocStack(size, align uint32) uint32 {
	if align == 0 {
		align = 1
	}
	base := (m.stackNext - size) &^ (align - 1)
	m.stackNext = base
	return base
}

func (m *Mem) allocFrom(next *uint32, size, align uint32) uint32 {
	if align == 0 {
		align = 1
	}
	base := (*next + align - 1) &^ (align - 1)
	*next = base + size
	return base
}

func (m *Mem) page(addr uint32) []byte {
	pn := addr >> pageShift
	p := m.pages[pn]
	if p == nil {
		p = make([]byte, pageSize)
		m.pages[pn] = p
	}
	return p
}

func (m *Mem) record(kind trace.Kind, addr uint32, size uint8) {
	if m.err != nil {
		m.gap = 0
		return
	}
	if int(addr&pageMask)+int(size) > pageSize {
		m.fail(fmt.Errorf("%w: access at 0x%x size %d", ErrPageCross, addr, size))
		return
	}
	gap := m.gap
	m.gap = 0
	if gap > 0xffff {
		// Saturate extremely long gaps at the Gap field's capacity; the
		// trace loses the excess, which no experiment depends on (gaps
		// this long never occur in the shipped workloads).
		gap = 0xffff
	}
	m.trace.Append(trace.Event{Addr: addr, Gap: uint16(gap), Size: size, Kind: kind})
}

// span returns the bytes for [addr, addr+size), which must not cross a
// page boundary (guaranteed for aligned power-of-two accesses). A
// crossing access records a sticky ErrPageCross and is redirected to a
// zeroed scratch buffer so the caller reads zeroes and writes nowhere.
func (m *Mem) span(addr uint32, size uint8) []byte {
	off := addr & pageMask
	if int(off)+int(size) > pageSize {
		m.fail(fmt.Errorf("%w: access at 0x%x size %d", ErrPageCross, addr, size))
		m.scratch = [8]byte{}
		return m.scratch[:size]
	}
	return m.page(addr)[off : off+uint32(size)]
}

// ReadU32 loads a 32-bit word, recording a 4-byte read.
func (m *Mem) ReadU32(addr uint32) uint32 {
	m.record(trace.Read, addr, 4)
	return binary.LittleEndian.Uint32(m.span(addr, 4))
}

// WriteU32 stores a 32-bit word, recording a 4-byte write.
func (m *Mem) WriteU32(addr uint32, v uint32) {
	m.record(trace.Write, addr, 4)
	binary.LittleEndian.PutUint32(m.span(addr, 4), v)
}

// ReadU64 loads a 64-bit word, recording an 8-byte read.
func (m *Mem) ReadU64(addr uint32) uint64 {
	m.record(trace.Read, addr, 8)
	return binary.LittleEndian.Uint64(m.span(addr, 8))
}

// WriteU64 stores a 64-bit word, recording an 8-byte write.
func (m *Mem) WriteU64(addr uint32, v uint64) {
	m.record(trace.Write, addr, 8)
	binary.LittleEndian.PutUint64(m.span(addr, 8), v)
}

// ReadF64 loads a double-precision float, recording an 8-byte read.
func (m *Mem) ReadF64(addr uint32) float64 {
	return math.Float64frombits(m.ReadU64(addr))
}

// WriteF64 stores a double-precision float, recording an 8-byte write.
func (m *Mem) WriteF64(addr uint32, v float64) {
	m.WriteU64(addr, math.Float64bits(v))
}

// PeekU32 reads memory without recording a trace event (for test
// assertions about workload correctness).
func (m *Mem) PeekU32(addr uint32) uint32 {
	return binary.LittleEndian.Uint32(m.span(addr, 4))
}

// PeekF64 reads a float64 without recording a trace event.
func (m *Mem) PeekF64(addr uint32) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(m.span(addr, 8)))
}

// PokeU32 writes memory without recording a trace event (for test
// setup).
func (m *Mem) PokeU32(addr uint32, v uint32) {
	binary.LittleEndian.PutUint32(m.span(addr, 4), v)
}

// F64Array is a convenience view of a traced array of float64.
type F64Array struct {
	m    *Mem
	base uint32
	n    int
}

// NewF64Array allocates a heap array of n float64 values.
func (m *Mem) NewF64Array(n int) F64Array {
	base := m.Alloc(uint32(n)*8, 8)
	return F64Array{m: m, base: base, n: n}
}

// Len returns the element count.
func (a F64Array) Len() int { return a.n }

// Addr returns the address of element i.
func (a F64Array) Addr(i int) uint32 { return a.base + uint32(i)*8 }

// Get loads element i (traced).
func (a F64Array) Get(i int) float64 { return a.m.ReadF64(a.Addr(i)) }

// Set stores element i (traced).
func (a F64Array) Set(i int, v float64) { a.m.WriteF64(a.Addr(i), v) }

// Peek loads element i without tracing.
func (a F64Array) Peek(i int) float64 { return a.m.PeekF64(a.Addr(i)) }

// U32Array is a convenience view of a traced array of uint32.
type U32Array struct {
	m    *Mem
	base uint32
	n    int
}

// NewU32Array allocates a heap array of n uint32 values.
func (m *Mem) NewU32Array(n int) U32Array {
	base := m.Alloc(uint32(n)*4, 4)
	return U32Array{m: m, base: base, n: n}
}

// NewU32ArrayStatic allocates an array of n uint32 values in the static
// data segment.
func (m *Mem) NewU32ArrayStatic(n int) U32Array {
	base := m.AllocStatic(uint32(n)*4, 4)
	return U32Array{m: m, base: base, n: n}
}

// NewU32ArrayStack allocates an array of n uint32 values on the stack.
func (m *Mem) NewU32ArrayStack(n int) U32Array {
	base := m.AllocStack(uint32(n)*4, 4)
	return U32Array{m: m, base: base, n: n}
}

// Len returns the element count.
func (a U32Array) Len() int { return a.n }

// Addr returns the address of element i.
func (a U32Array) Addr(i int) uint32 { return a.base + uint32(i)*4 }

// Get loads element i (traced).
func (a U32Array) Get(i int) uint32 { return a.m.ReadU32(a.Addr(i)) }

// Set stores element i (traced).
func (a U32Array) Set(i int, v uint32) { a.m.WriteU32(a.Addr(i), v) }

// Peek loads element i without tracing.
func (a U32Array) Peek(i int) uint32 { return a.m.PeekU32(a.Addr(i)) }

// Poke stores element i without tracing.
func (a U32Array) Poke(i int, v uint32) { a.m.PokeU32(a.Addr(i), v) }
