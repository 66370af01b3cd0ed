package cache

import (
	"slices"
	"testing"

	"cachewrite/internal/trace"
	"cachewrite/internal/workload"
)

// These tests hold the byte encoding of a Log to the live cache it
// stands for at the encoding's edges; replay_test.go holds the models
// fed by a Log to theirs.

// logCall is one back-side or victim call, tagged with the event that
// made it (-1 for the flush).
type logCall struct {
	event       int
	op          op
	addr        uint32
	size, dirty int
}

// callSink is a Backside and VictimObserver that keeps every call.
type callSink struct {
	event int
	calls []logCall
}

func (s *callSink) FetchLine(addr uint32, size int) {
	s.calls = append(s.calls, logCall{s.event, opFetch, addr, size, 0})
}

func (s *callSink) WritebackLine(addr uint32, size, dirty int) {
	s.calls = append(s.calls, logCall{s.event, opWriteback, addr, size, dirty})
}

func (s *callSink) WriteWord(addr uint32, size uint8) {
	s.calls = append(s.calls, logCall{s.event, opWriteWord, addr, int(size), 0})
}

func (s *callSink) ObserveVictim(addr uint32, size, dirty int) {
	s.calls = append(s.calls, logCall{s.event, opVictim, addr, size, dirty})
}

// checkLog records tr through cfg, requires its replay to make the
// calls a live cache makes, and returns the log and the live calls.
func checkLog(t *testing.T, cfg Config, tr *trace.Trace) (*Log, []logCall) {
	t.Helper()
	l, err := NewLog(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	c := MustNew(cfg)
	var want, got callSink
	c.SetBackside(&want)
	for i, e := range tr.Events {
		want.event = i
		c.Access(e)
	}
	want.event = -1
	c.Flush()
	p := l.Replayer(&got)
	for i := range tr.Events {
		got.event = i
		p.Next()
	}
	got.event = -1
	l.ReplayFlush(&got)
	if !slices.Equal(got.calls, want.calls) {
		t.Fatalf("%s: replayed %d calls, live cache made %d, or they differ", cfg, len(got.calls), len(want.calls))
	}
	if l.FlushedStats() != c.Stats() {
		t.Fatalf("%s: log flushed stats\n%+v\nlive\n%+v", cfg, l.FlushedStats(), c.Stats())
	}
	return l, want.calls
}

// followed reports whether some pass call at address b comes right
// after one at address a.
func followed(calls []logCall, a, b uint32) bool {
	for i := 1; i < len(calls) && calls[i].event >= 0; i++ {
		if calls[i-1].addr == a && calls[i].addr == b {
			return true
		}
	}
	return false
}

func TestLogEncodingEdges(t *testing.T) {
	// A 4-line direct-mapped write-back cache: lines 64 bytes apart
	// conflict, so each miss below evicts the line before it.
	wb := Config{Size: 64, LineSize: 16, Assoc: 1, WriteHit: WriteBack, WriteMiss: FetchOnWrite}

	t.Run("event gaps", func(t *testing.T) {
		// A write miss makes a dirty victim, so the next miss makes a
		// write-back, a victim and a fetch in one event (gap 0); the
		// hits between misses set the gap to the next miss.
		tr := &trace.Trace{Name: "gaps"}
		gaps := []int{1, 14, 15, 16, 1<<14 + 15, 1<<21 + 3, 1}
		for i, g := range gaps {
			addr := uint32(i%2) * 64
			tr.Append(trace.Event{Addr: addr, Size: 4, Kind: trace.Write})
			for range g - 1 {
				tr.Append(trace.Event{Addr: addr, Size: 4, Kind: trace.Read})
			}
		}
		_, calls := checkLog(t, wb, tr)
		seen := map[int]bool{}
		for i := 1; i < len(calls) && calls[i].event >= 0; i++ {
			seen[calls[i].event-calls[i-1].event] = true
		}
		for _, g := range []int{0, 14, 15, 16, 1<<14 + 15, 1<<21 + 3} {
			if !seen[g] {
				t.Errorf("no two calls %d events apart", g)
			}
		}
	})

	t.Run("wrapping address deltas", func(t *testing.T) {
		// Lines 0 and 0xFFFFFFF0 sit in sets 0 and 3. Each write-back
		// below follows a fetch at the other end of the address space.
		tr := &trace.Trace{Name: "wrap", Events: []trace.Event{
			{Addr: 0xFFFFFFF0, Size: 4, Kind: trace.Write},
			{Addr: 0x00, Size: 4, Kind: trace.Read},
			{Addr: 0x30, Size: 4, Kind: trace.Read}, // write-back of 0xFFFFFFF0
			{Addr: 0x00, Size: 4, Kind: trace.Write},
			{Addr: 0xFFFFFFF0, Size: 4, Kind: trace.Read},
			{Addr: 0x40, Size: 4, Kind: trace.Read}, // write-back of 0
		}}
		_, calls := checkLog(t, wb, tr)
		if !followed(calls, 0, 0xFFFFFFF0) || !followed(calls, 0xFFFFFFF0, 0) {
			t.Errorf("no call follows one across the wrap: %v", calls)
		}
	})

	t.Run("sector fetches", func(t *testing.T) {
		sector := Config{Size: 256, LineSize: 32, Assoc: 2, WriteHit: WriteBack, WriteMiss: WriteValidate,
			ValidGranularity: 4, SectorFetch: true}
		tr := &trace.Trace{Name: "sectors"}
		for i := range 4000 {
			k := trace.Read
			if i%3 == 0 {
				k = trace.Write
			}
			tr.Append(trace.Event{Addr: uint32(i*37%1024) &^ 1, Size: uint8(1 << (i % 4)), Kind: k})
		}
		_, calls := checkLog(t, sector, tr)
		partial := 0
		for _, c := range calls {
			if c.op == opFetch && c.size < sector.LineSize {
				partial++
			}
		}
		if partial == 0 {
			t.Error("no fetch moved less than a line")
		}
	})

	t.Run("dirty counts", func(t *testing.T) {
		// Write k bytes of line 0, one at a time, then evict it.
		tr := &trace.Trace{Name: "dirty"}
		for k := 0; k <= wb.LineSize; k++ {
			tr.Append(trace.Event{Addr: 0, Size: 1, Kind: trace.Read})
			for b := range k {
				tr.Append(trace.Event{Addr: uint32(b), Size: 1, Kind: trace.Write})
			}
			tr.Append(trace.Event{Addr: 64, Size: 1, Kind: trace.Read})
		}
		_, calls := checkLog(t, wb, tr)
		seen := map[int]bool{}
		for _, c := range calls {
			if c.op == opVictim && c.addr == 0 {
				seen[c.dirty] = true
			}
		}
		for k := 0; k <= wb.LineSize; k++ {
			if !seen[k] {
				t.Errorf("no victim with %d dirty bytes", k)
			}
		}
	})

	// A write-through write-around cache makes one WriteWord per write,
	// and each encodes in its header byte alone when the writes are
	// consecutive events.
	wt := Config{Size: 64, LineSize: 16, Assoc: 1, WriteHit: WriteThrough, WriteMiss: WriteAround}
	t.Run("a call ends a chunk exactly", func(t *testing.T) {
		tr := &trace.Trace{Name: "full chunk"}
		for i := range logChunk + 10 {
			tr.Append(trace.Event{Addr: uint32(i * 4), Size: 4, Kind: trace.Write})
		}
		l, _ := checkLog(t, wt, tr)
		if len(l.pass) != 2 || len(l.pass[0]) != logChunk || len(l.pass[1]) != 10 {
			t.Errorf("chunks of %d bytes, want %d and 10", chunkLens(l), logChunk)
		}
	})
	t.Run("a call that does not fit starts a chunk", func(t *testing.T) {
		// A fetch of line 0, logChunk-2 writes, each one byte; then
		// hits to line 0 and a write 16 events on, whose escaped event
		// gap takes two bytes.
		tr := &trace.Trace{Name: "split"}
		tr.Append(trace.Event{Addr: 0, Size: 4, Kind: trace.Read})
		for i := range logChunk - 2 {
			tr.Append(trace.Event{Addr: uint32(i * 4), Size: 4, Kind: trace.Write})
		}
		for range 15 {
			tr.Append(trace.Event{Addr: 0, Size: 4, Kind: trace.Read})
		}
		tr.Append(trace.Event{Addr: 8, Size: 4, Kind: trace.Write})
		l, _ := checkLog(t, wt, tr)
		if lens := chunkLens(l); !slices.Equal(lens, []int{logChunk - 1, 2}) {
			t.Errorf("chunks of %d bytes, want %d and 2", lens, logChunk-1)
		}
	})
}

func chunkLens(l *Log) []int {
	var n []int
	for _, ch := range l.pass {
		n = append(n, len(ch))
	}
	return n
}

// logBudget is the most bytes a recorded call may take, on average,
// over the paper's logs: the 8KB/16B direct-mapped write-back and
// write-through L1s over the six scale-1 traces. Their passes make
// about seven million calls; a 12-byte record per call held 80 MiB.
const logBudget = 3.0

func TestLogSizeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("real workloads in -short mode")
	}
	ts, err := workload.GenerateAllCached("", 1)
	if err != nil {
		t.Fatal(err)
	}
	var calls, bytes int
	for _, hit := range []WriteHitPolicy{WriteBack, WriteThrough} {
		cfg := Config{Size: 8 << 10, LineSize: 16, Assoc: 1, WriteHit: hit, WriteMiss: FetchOnWrite}
		for _, tr := range ts {
			l, err := NewLog(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			var n callCounter
			p := l.Replayer(&n)
			for range tr.Events {
				p.Next()
			}
			calls += int(n)
			for _, ch := range l.pass {
				bytes += len(ch)
			}
		}
	}
	per := float64(bytes) / float64(calls)
	t.Logf("%d calls in %d bytes, %.2f bytes a call", calls, bytes, per)
	if per > logBudget {
		t.Errorf("%.2f bytes a call, over the %.1f budget", per, logBudget)
	}
}

// callCounter is a Backside and VictimObserver that counts calls.
type callCounter int

func (n *callCounter) FetchLine(uint32, int)          { *n++ }
func (n *callCounter) WritebackLine(uint32, int, int) { *n++ }
func (n *callCounter) WriteWord(uint32, uint8)        { *n++ }
func (n *callCounter) ObserveVictim(uint32, int, int) { *n++ }
