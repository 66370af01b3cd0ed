package cache_test

import (
	"math/rand"
	"slices"
	"testing"

	"cachewrite/internal/burst"
	"cachewrite/internal/cache"
	"cachewrite/internal/hierarchy"
	"cachewrite/internal/timing"
	"cachewrite/internal/trace"
	"cachewrite/internal/writecache"
)

// These tests hold a recorded L1 pass (cache.Log) to the live cache it
// stands for: the same back-side calls in the same order, the same L1
// statistics, and the same results from every model fed by it —
// timing.Replay against timing.Evaluate, burst.ReplayVictims against
// burst.AnalyzeVictims and hierarchy.Replay against a live hierarchy.

// call is one back-side or victim call, tagged with the event that
// made it (-1 for the flush).
type call struct {
	event       int
	op          byte
	addr        uint32
	size, dirty int
}

// callLog is a Backside and VictimObserver that keeps every call.
type callLog struct {
	event int
	calls []call
}

func (l *callLog) FetchLine(addr uint32, size int) {
	l.calls = append(l.calls, call{l.event, 'F', addr, size, 0})
}

func (l *callLog) WritebackLine(addr uint32, size, dirty int) {
	l.calls = append(l.calls, call{l.event, 'B', addr, size, dirty})
}

func (l *callLog) WriteWord(addr uint32, size uint8) {
	l.calls = append(l.calls, call{l.event, 'W', addr, int(size), 0})
}

func (l *callLog) ObserveVictim(addr uint32, size, dirty int) {
	l.calls = append(l.calls, call{l.event, 'V', addr, size, dirty})
}

// replayConfigs is every write-hit × write-miss pair, then sub-block,
// sector, set-associative and replacement variants.
func replayConfigs() []cache.Config {
	var cfgs []cache.Config
	for _, hit := range []cache.WriteHitPolicy{cache.WriteBack, cache.WriteThrough} {
		for _, miss := range cache.WriteMissPolicies() {
			cfgs = append(cfgs, cache.Config{Size: 512, LineSize: 16, Assoc: 1, WriteHit: hit, WriteMiss: miss})
		}
	}
	return append(cfgs,
		cache.Config{Size: 512, LineSize: 16, Assoc: 1, WriteHit: cache.WriteBack, WriteMiss: cache.WriteValidate, ValidGranularity: 4},
		cache.Config{Size: 512, LineSize: 16, Assoc: 1, WriteHit: cache.WriteThrough, WriteMiss: cache.WriteValidate, ValidGranularity: 4},
		cache.Config{Size: 1024, LineSize: 32, Assoc: 2, WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite, ValidGranularity: 8, SectorFetch: true},
		cache.Config{Size: 1024, LineSize: 32, Assoc: 2, WriteHit: cache.WriteBack, WriteMiss: cache.WriteValidate, ValidGranularity: 4, SectorFetch: true, Replacement: cache.Random},
		cache.Config{Size: 512, LineSize: 16, Assoc: 4, WriteHit: cache.WriteBack, WriteMiss: cache.WriteValidate, WVMissWriteThrough: true, Replacement: cache.FIFO},
		cache.Config{Size: 256, LineSize: 8, Assoc: 1, WriteHit: cache.WriteThrough, WriteMiss: cache.FetchOnWrite},
	)
}

// replayTrace is a random trace over a small address space, so the
// caches above hit, miss and evict, with sizes from a byte to a whole
// 64B line at any alignment, so events span lines.
func replayTrace(seed int64, n int) *trace.Trace {
	r := rand.New(rand.NewSource(seed))
	sizes := []uint8{1, 2, 3, 4, 4, 4, 8, 8, 16, 64}
	t := &trace.Trace{Name: "replay"}
	for i := 0; i < n; i++ {
		size := sizes[r.Intn(len(sizes))]
		addr := uint32(r.Intn(4096))
		if r.Intn(4) > 0 {
			addr &^= uint32(size) - 1 // mostly aligned
		}
		k := trace.Read
		if r.Intn(5) < 2 {
			k = trace.Write
		}
		t.Append(trace.Event{Addr: addr, Size: size, Gap: uint16(r.Intn(4)), Kind: k})
	}
	return t
}

// hierarchyConfigs is the levels put behind l1: none, an L2 under
// each write-policy pair, and behind a write-through L1 a write cache
// with and without victim mode, alone and in front of an L2.
func hierarchyConfigs(l1 cache.Config) []hierarchy.Config {
	hcs := []hierarchy.Config{{L1: l1}}
	l2 := func(hit cache.WriteHitPolicy, miss cache.WriteMissPolicy) *cache.Config {
		return &cache.Config{Size: 2048, LineSize: max(32, l1.LineSize), Assoc: 2, WriteHit: hit, WriteMiss: miss}
	}
	for _, hit := range []cache.WriteHitPolicy{cache.WriteBack, cache.WriteThrough} {
		for _, miss := range cache.WriteMissPolicies() {
			hcs = append(hcs, hierarchy.Config{L1: l1, L2: l2(hit, miss)})
		}
	}
	if l1.WriteHit == cache.WriteThrough {
		wc := &writecache.Config{Entries: 4, LineSize: l1.LineSize}
		hcs = append(hcs,
			hierarchy.Config{L1: l1, WriteCache: &writecache.Config{Entries: 4, LineSize: 8}},
			hierarchy.Config{L1: l1, WriteCache: wc},
			hierarchy.Config{L1: l1, WriteCache: wc, VictimMode: true},
			hierarchy.Config{L1: l1, WriteCache: wc, VictimMode: true, L2: l2(cache.WriteBack, cache.FetchOnWrite)},
		)
	}
	return hcs
}

// checkReplay records tr through cfg and requires the log and every
// model fed by it to match the live cache.
func checkReplay(t *testing.T, cfg cache.Config, tr *trace.Trace) {
	t.Helper()
	log, err := cache.NewLog(cfg, tr)
	if err != nil {
		t.Fatalf("%s: %v", cfg, err)
	}

	// The calls and the L1 statistics, before and after the flush.
	live := cache.MustNew(cfg)
	var want, got callLog
	live.SetBackside(&want)
	for i, e := range tr.Events {
		want.event = i
		live.Access(e)
	}
	if log.Stats() != live.Stats() {
		t.Fatalf("%s: log stats\n%+v\nlive\n%+v", cfg, log.Stats(), live.Stats())
	}
	want.event = -1
	live.Flush()
	if log.FlushedStats() != live.Stats() {
		t.Fatalf("%s: log flushed stats\n%+v\nlive\n%+v", cfg, log.FlushedStats(), live.Stats())
	}
	p := log.Replayer(&got)
	for i := range tr.Events {
		got.event = i
		p.Next()
	}
	got.event = -1
	log.ReplayFlush(&got)
	if !slices.Equal(got.calls, want.calls) {
		t.Fatalf("%s: replayed %d calls, live cache made %d, or they differ", cfg, len(got.calls), len(want.calls))
	}

	// The cycle model, under every organization and buffer depth.
	for _, org := range append([]timing.Organization{0}, timing.Organizations()...) {
		if org == timing.DirectMappedWriteThrough && cfg.Assoc != 1 {
			continue
		}
		for _, depth := range []int{0, 1, 3} {
			tc := timing.Config{L1: cfg, Org: org, FetchLatency: 7,
				WriteBufferEntries: depth, WriteRetire: 3, VictimBufferEntries: depth, WritebackCycles: 5}
			want, err := timing.Evaluate(tc, tr)
			if err != nil {
				t.Fatal(err)
			}
			got, err := timing.Replay(tc, log)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s, %s, depth %d: timing replay\n%+v\nlive\n%+v", cfg, org, depth, got, want)
			}
		}
	}

	// Dirty-victim bursts, behind a write-back L1.
	if cfg.WriteHit == cache.WriteBack {
		want, err := burst.AnalyzeVictims(tr, cfg, 2, 16)
		if err != nil {
			t.Fatal(err)
		}
		got, err := burst.ReplayVictims(log, 2, 16)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: burst replay\n%+v\nlive\n%+v", cfg, got, want)
		}
	}

	// The levels behind the L1, with and without the flush.
	for _, hc := range hierarchyConfigs(cfg) {
		for _, flush := range []bool{false, true} {
			h, err := hierarchy.New(hc)
			if err != nil {
				t.Fatal(err)
			}
			h.AccessTrace(tr)
			l1 := log.Stats()
			if flush {
				h.Flush()
				l1 = log.FlushedStats()
			}
			got, err := hierarchy.Replay(hc, log, flush)
			if err != nil {
				t.Fatal(err)
			}
			if got != h.Stats() || l1 != h.L1().Stats() {
				t.Fatalf("%s, L2 %v, write cache %v, victim mode %v, flush %v: hierarchy replay\n%+v\nlive\n%+v",
					cfg, hc.L2, hc.WriteCache, hc.VictimMode, flush, got, h.Stats())
			}
		}
	}
}

func TestReplayMatchesLive(t *testing.T) {
	for i, cfg := range replayConfigs() {
		checkReplay(t, cfg, replayTrace(int64(i+1), 3000))
	}
}

// TestReplayEmptyTrace: an empty trace records nothing and replays to
// zeros.
func TestReplayEmptyTrace(t *testing.T) {
	checkReplay(t, replayConfigs()[0], &trace.Trace{Name: "empty"})
}

func TestReplayRejects(t *testing.T) {
	wb := replayConfigs()[0]
	log, err := cache.NewLog(wb, replayTrace(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	other := wb
	other.Size *= 2
	if _, err := timing.Replay(timing.Config{L1: other}, log); err == nil {
		t.Error("timing replayed a log of another L1")
	}
	if _, err := hierarchy.Replay(hierarchy.Config{L1: other}, log, false); err == nil {
		t.Error("hierarchy replayed a log of another L1")
	}
	l2 := cache.Config{Size: 2048, LineSize: 32, Assoc: 2, WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
	if _, err := hierarchy.Replay(hierarchy.Config{L1: wb, L2: &l2, Inclusive: true}, log, false); err == nil {
		t.Error("an inclusive hierarchy replayed a log")
	}
	wt := wb
	wt.WriteHit = cache.WriteThrough
	wtLog, err := cache.NewLog(wt, replayTrace(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := burst.ReplayVictims(wtLog, 2, 16); err == nil {
		t.Error("burst replayed the victims of a write-through L1")
	}
	bad := &trace.Trace{Events: []trace.Event{{Size: 4, Kind: trace.Kind(2)}}}
	if _, err := cache.NewLog(wb, bad); err == nil {
		t.Error("a trace with an event neither read nor write was recorded")
	}
}

// FuzzReplayMatchesLive runs checkReplay on a fuzzed trace through one
// of replayConfigs. Each 4-byte group is one event: a 12-bit address,
// a size from a byte to a 64B line, the kind and a gap.
func FuzzReplayMatchesLive(f *testing.F) {
	f.Add(uint8(0), []byte{0x00, 0x10, 0x02, 0x00, 0x10, 0x10, 0x82, 0x01, 0x20, 0x10, 0x03, 0x00})
	f.Add(uint8(5), []byte{0xff, 0xf7, 0x86, 0x00, 0x00, 0x0f, 0x03, 0x02, 0x40, 0x08, 0x85, 0x01})
	f.Add(uint8(9), []byte{0x01, 0x13, 0x81, 0x00, 0x02, 0x11, 0x06, 0x03, 0x81, 0x1e, 0x84, 0x00})
	cfgs := replayConfigs()
	sizes := []uint8{1, 2, 3, 4, 8, 16, 32, 64}
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		tr := &trace.Trace{Name: "fuzz"}
		for ; len(data) >= 4 && tr.Len() < 512; data = data[4:] {
			k := trace.Read
			if data[2]&0x80 != 0 {
				k = trace.Write
			}
			tr.Append(trace.Event{
				Addr: uint32(data[0])<<4 | uint32(data[1]&0xf),
				Size: sizes[data[2]&7],
				Gap:  uint16(data[3] & 7),
				Kind: k,
			})
		}
		checkReplay(t, cfgs[int(sel)%len(cfgs)], tr)
	})
}
