package writebuffer

import (
	"math/rand"
	"reflect"
	"testing"

	"cachewrite/internal/trace"
)

// slidingBuffer is Buffer as it was before the ring: a FIFO slice that
// appends at its tail and reslices its head away, with a retire clock
// that restarts when the buffer empties. It is the reference for the
// merging queue.
type slidingBuffer struct {
	cfg   Config
	fifo  []uint32
	now   uint64
	ret   uint64
	stats Stats
}

func (b *slidingBuffer) Step(e trace.Event) {
	n := e.Instructions()
	b.now += n
	b.stats.Instructions += n
	if e.Kind == trace.Write {
		b.write(e.Addr)
	}
}

func (b *slidingBuffer) write(addr uint32) {
	b.stats.Writes++
	if b.cfg.RetireInterval == 0 {
		return
	}
	b.drainUpTo(b.now)
	ln := addr / uint32(b.cfg.LineSize)
	for _, have := range b.fifo {
		if have == ln {
			b.stats.Merged++
			return
		}
	}
	if len(b.fifo) == b.cfg.Entries {
		wait := b.ret - b.now
		b.stats.StallCycles += wait
		b.now = b.ret
		b.retireOne()
	}
	if len(b.fifo) == 0 {
		b.ret = b.now + uint64(b.cfg.RetireInterval)
	}
	b.fifo = append(b.fifo, ln)
}

func (b *slidingBuffer) drainUpTo(t uint64) {
	for len(b.fifo) > 0 && b.ret <= t {
		b.retireOne()
	}
}

func (b *slidingBuffer) retireOne() {
	b.fifo = b.fifo[1:]
	b.ret += uint64(b.cfg.RetireInterval)
}

func (b *slidingBuffer) PendingLineAddrs() []uint32 {
	b.drainUpTo(b.now)
	out := make([]uint32, len(b.fifo))
	for i, ln := range b.fifo {
		out[i] = ln * uint32(b.cfg.LineSize)
	}
	return out
}

// drainQueue is the cycle model's write and victim buffer as it was
// before Queue: a ring of completion times, each entry completing rate
// cycles after the later of its push and the previous tail. It is the
// reference for the queue without merging.
type drainQueue struct {
	freeAt  []uint64 // ring of completion times per slot
	head, n int      // oldest occupied slot and occupancy, FIFO order
	rate    uint64
}

func newDrainQueue(rate uint64, capacity int) *drainQueue {
	return &drainQueue{freeAt: make([]uint64, max(capacity, 0)), rate: rate}
}

func (q *drainQueue) drain(t uint64) {
	for q.n > 0 && q.freeAt[q.head] <= t {
		q.head++
		if q.head == len(q.freeAt) {
			q.head = 0
		}
		q.n--
	}
}

func (q *drainQueue) push(t uint64) (stall uint64, now uint64) {
	if len(q.freeAt) == 0 {
		return q.rate, t + q.rate
	}
	q.drain(t)
	if q.n == len(q.freeAt) {
		wait := q.freeAt[q.head] - t
		t += wait
		stall = wait
		q.drain(t)
	}
	start := t
	if q.n > 0 {
		if tail := q.freeAt[(q.head+q.n-1)%len(q.freeAt)]; tail > start {
			start = tail
		}
	}
	q.freeAt[(q.head+q.n)%len(q.freeAt)] = start + q.rate
	q.n++
	return stall, t
}

// TestQueueMatchesDrainQueue: on random push times, at every depth
// (unbuffered included) and rate, Queue returns drainQueue's stalls
// and times, and allocates nothing per push.
func TestQueueMatchesDrainQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for depth := 0; depth <= 6; depth++ {
		for rate := uint64(0); rate <= 7; rate++ {
			q, ref := NewQueue(depth, rate), newDrainQueue(rate, depth)
			var now, refNow uint64
			for i := 0; i < 2000; i++ {
				step := uint64(rng.Intn(10))
				var stall, refStall uint64
				stall, now = q.Push(now + step)
				refStall, refNow = ref.push(refNow + step)
				if stall != refStall || now != refNow {
					t.Fatalf("depth %d rate %d push %d: queue (stall %d, now %d), drainQueue (stall %d, now %d)",
						depth, rate, i, stall, now, refStall, refNow)
				}
			}
			if allocs := testing.AllocsPerRun(100, func() { now += 2; _, now = q.Push(now) }); allocs != 0 {
				t.Errorf("depth %d rate %d: %v allocations per push", depth, rate, allocs)
			}
		}
	}
}

// FuzzQueueMatchesReferences draws a depth, a retire rate, merging on
// or off and a schedule, one byte per event: the high nibble is the
// cycles since the last event, the low three bits pick one of eight
// 8-byte words (four 16-byte lines), and bit 3 makes the event a read.
// Without merging, every event pushes one entry into a Queue and into
// drainQueue; with it, every event steps a Buffer and slidingBuffer.
// Stalls, clocks and merge counts must agree after every event.
func FuzzQueueMatchesReferences(f *testing.F) {
	f.Add(uint8(0), uint8(5), false, []byte{0x00, 0x10, 0x00, 0x31})
	f.Add(uint8(2), uint8(9), false, []byte{0x00, 0x00, 0x00, 0x50, 0x00, 0x00})
	f.Add(uint8(8), uint8(8), true, []byte{0x00, 0x01, 0x02, 0x13, 0x04, 0x0d, 0x25, 0x06, 0x07, 0x00})
	f.Add(uint8(1), uint8(0), true, []byte{0x00, 0x00, 0x11, 0x01})
	f.Add(uint8(3), uint8(40), true, []byte{0x00, 0x02, 0x04, 0x06, 0x00, 0xf1, 0x03})
	f.Fuzz(func(t *testing.T, depth, rate uint8, merge bool, schedule []byte) {
		d, r := int(depth%10), int(rate%50)
		if !merge {
			q, ref := NewQueue(d, uint64(r)), newDrainQueue(uint64(r), d)
			var now, refNow uint64
			for i, b := range schedule {
				step := uint64(b >> 4)
				var stall, refStall uint64
				stall, now = q.Push(now + step)
				refStall, refNow = ref.push(refNow + step)
				if stall != refStall || now != refNow {
					t.Fatalf("depth %d rate %d push %d: queue (stall %d, now %d), drainQueue (stall %d, now %d)",
						d, r, i, stall, now, refStall, refNow)
				}
			}
			return
		}
		cfg := Config{Entries: max(d, 1), LineSize: 16, RetireInterval: r}
		buf, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := &slidingBuffer{cfg: cfg}
		for i, b := range schedule {
			e := trace.Event{Addr: uint32(b&7) * 8, Size: 8, Gap: uint16(b >> 4), Kind: trace.Write}
			if b&8 != 0 {
				e.Kind = trace.Read
			}
			buf.Step(e)
			ref.Step(e)
			if buf.Stats() != ref.stats || buf.now != ref.now {
				t.Fatalf("%+v event %d: stats %+v at cycle %d, slidingBuffer %+v at cycle %d",
					cfg, i, buf.Stats(), buf.now, ref.stats, ref.now)
			}
		}
	})
}

// TestRingMatchesSlidingSlice replays random streams through the ring
// and the sliding-slice reference at every depth from 1 to 9 and every
// retire interval from 0 to 48: the counters and the pending lines,
// oldest first, must agree after every step.
func TestRingMatchesSlidingSlice(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for entries := 1; entries <= 9; entries++ {
		for interval := 0; interval <= 48; interval++ {
			cfg := Config{Entries: entries, LineSize: 16, RetireInterval: interval}
			ring, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := &slidingBuffer{cfg: cfg}
			for step := range 400 {
				e := trace.Event{Addr: uint32(r.Intn(12)) * 8, Size: 8, Gap: uint16(r.Intn(24))}
				if r.Intn(10) < 7 {
					e.Kind = trace.Write
				}
				ring.Step(e)
				ref.Step(e)
				if ring.Stats() != ref.stats {
					t.Fatalf("entries %d interval %d step %d: stats %+v, reference %+v", entries, interval, step, ring.Stats(), ref.stats)
				}
				if got, want := ring.PendingLineAddrs(), ref.PendingLineAddrs(); !reflect.DeepEqual(got, want) {
					t.Fatalf("entries %d interval %d step %d: pending %v, reference %v", entries, interval, step, got, want)
				}
			}
		}
	}
}

// TestStepZeroAlloc: Step allocates nothing, however long the buffer
// runs. (The sliding slice reallocated every few retirements, too
// rarely for a per-call average to round up, so each run here is a
// thousand steps.)
func TestStepZeroAlloc(t *testing.T) {
	b, err := New(Config{Entries: 8, LineSize: 16, RetireInterval: 16})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(10, func() {
		for range 1000 {
			b.Step(trace.Event{Addr: uint32(i%29) * 16, Size: 4, Gap: uint16(i % 5), Kind: trace.Write})
			i++
		}
	})
	if allocs != 0 {
		t.Fatalf("1000 Steps allocate %.0f objects, want 0", allocs)
	}
}
