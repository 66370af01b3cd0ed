package writebuffer

import (
	"math/rand"
	"reflect"
	"testing"

	"cachewrite/internal/trace"
)

// slidingBuffer is Buffer as it was before the ring: a FIFO slice that
// appends at its tail and reslices its head away, kept as the
// reference the ring must match.
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
		b.stats.Retired++
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
	b.stats.Retired++
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
