package coherence

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
)

// refSystem is the protocol without a snoop filter: every broadcast
// visits every remote core, sharing misses are found through per-core
// maps of removed line numbers, and Run merges the per-core cursors
// event by event. It drives the embedded System's caches and counters
// and never reads the directory, so a System fed the same workload
// must end in exactly the same state.
type refSystem struct {
	*System
	invalidated []map[uint32]struct{}
}

func newRefSystem(t *testing.T, cfg Config) *refSystem {
	r := &refSystem{System: mustSystem(t, cfg), invalidated: make([]map[uint32]struct{}, cfg.Cores)}
	for i := range r.invalidated {
		r.invalidated[i] = make(map[uint32]struct{})
	}
	return r
}

func (s *refSystem) Access(c int, e trace.Event) {
	if len(s.cores) > 1 {
		addr := e.Addr
		remaining := uint32(e.Size)
		for remaining > 0 {
			off := addr & (s.lineSize - 1)
			n := s.lineSize - off
			if n > remaining {
				n = remaining
			}
			s.snoopSpan(c, e.Kind, addr, n)
			addr += n
			remaining -= n
		}
	}
	s.cores[c].l1.Access(e)
}

func (s *refSystem) snoopSpan(c int, kind trace.Kind, addr, n uint32) {
	lineNum := addr >> s.lineShift
	lineAddr := lineNum << s.lineShift
	me := &s.cores[c]

	local := me.l1.Probe(addr)
	if !local.Present {
		if _, ok := s.invalidated[c][lineNum]; ok {
			delete(s.invalidated[c], lineNum)
			me.stats.SharingMisses++
		}
	}
	if s.cfg.Scheme == Hybrid {
		delete(me.hybrid, lineNum)
	}
	mask := spanMask(addr&(s.lineSize-1), n)
	covered := local.Present && local.Valid&mask == mask
	if kind == trace.Read {
		if !covered {
			s.downgradeAll(c, lineAddr)
		}
		return
	}
	switch s.cfg.Scheme {
	case Invalidate:
		s.invalidateAll(c, lineAddr, lineNum)
	case Update, Hybrid:
		if s.writeWillFetch(local, covered, addr, n) {
			s.downgradeAll(c, lineAddr)
		}
		s.updateAll(c, addr, n, lineNum, lineAddr)
	}
}

func (s *refSystem) downgradeAll(c int, lineAddr uint32) {
	for j := range s.cores {
		if j != c {
			s.downgrade(&s.cores[j], lineAddr)
		}
	}
}

func (s *refSystem) invalidateAll(c int, lineAddr, lineNum uint32) {
	hit := false
	for j := range s.cores {
		if j == c {
			continue
		}
		r := &s.cores[j]
		s.downgrade(r, lineAddr)
		if lines, _ := r.l1.InvalidateRange(lineAddr, int(s.lineSize)); lines > 0 {
			hit = true
			r.stats.InvalidationsReceived++
			s.invalidated[j][lineNum] = struct{}{}
		}
	}
	if hit {
		s.cores[c].stats.InvalidationsSent++
	}
}

func (s *refSystem) updateAll(c int, addr, n uint32, lineNum, lineAddr uint32) {
	hit := false
	for j := range s.cores {
		if j == c {
			continue
		}
		r := &s.cores[j]
		if !r.l1.Probe(lineAddr).Present {
			if s.cfg.Scheme == Hybrid {
				delete(r.hybrid, lineNum)
			}
			continue
		}
		if s.cfg.Scheme == Hybrid {
			cnt := r.hybrid[lineNum] + 1
			if cnt >= s.hybridK {
				delete(r.hybrid, lineNum)
				s.downgrade(r, lineAddr)
				r.l1.InvalidateRange(lineAddr, int(s.lineSize))
				r.stats.HybridInvalidations++
				s.invalidated[j][lineNum] = struct{}{}
				hit = true
				continue
			}
			r.hybrid[lineNum] = cnt
		}
		r.l1.SnoopUpdate(addr, uint8(n))
		hit = true
		r.stats.UpdatesReceived++
	}
	if hit {
		s.cores[c].stats.UpdatesSent++
		s.stats.UpdateTrafficBytes += uint64(n)
	}
}

// Run merges the per-core streams with one cursor per core, picking
// the earliest (lowest core on ties) before every event.
func (s *refSystem) Run(w *Workload) {
	type cursor struct {
		c, i int
		when uint64
	}
	var cs []cursor
	for c, t := range w.PerCore {
		if t.Len() > 0 {
			cs = append(cs, cursor{c: c, when: w.Offsets[c] + t.Events[0].Instructions()})
		}
	}
	for len(cs) > 0 {
		best := 0
		for i := 1; i < len(cs); i++ {
			if cs[i].when < cs[best].when {
				best = i
			}
		}
		cu := &cs[best]
		t := w.PerCore[cu.c]
		s.Access(cu.c, t.Events[cu.i])
		cu.i++
		if cu.i >= t.Len() {
			cs = append(cs[:best], cs[best+1:]...)
			continue
		}
		cu.when += t.Events[cu.i].Instructions()
	}
}

// filterCase is one differential run of the snoop filter.
type filterCase struct {
	cores          int
	l1             cache.Config
	withL2         bool
	scheme         Scheme
	hybridK        int
	sharedFraction float64
	stagger        uint64
	footprint      uint32
	events         int
	seed           uint64
	// handBuilt replays a Workload with no precomputed schedule.
	handBuilt bool
}

func (fc filterCase) String() string {
	return fmt.Sprintf("%d cores %s l2=%v %s k=%d shared=%.2f stagger=%d footprint=%d events=%d seed=%d hand=%v",
		fc.cores, fc.l1, fc.withL2, fc.scheme, fc.hybridK, fc.sharedFraction, fc.stagger, fc.footprint, fc.events, fc.seed, fc.handBuilt)
}

// residentState lists every resident line of every L1.
func residentState(s *System) [][]string {
	out := make([][]string, len(s.cores))
	for i := range s.cores {
		s.cores[i].l1.VisitResident(func(addr uint32, st cache.LineState) {
			out[i] = append(out[i], fmt.Sprintf("%#x v%#x d%#x", addr, st.Valid, st.Dirty))
		})
	}
	return out
}

// withoutL2 zeroes st's counters at the back of the shared L2.
func withoutL2(st Stats) Stats {
	st.L2ToMemTransactions, st.L2ToMemBytes = 0, 0
	st.L2ToMemWritebacks, st.L2ToMemWritebackBytes, st.L2ToMemDirtyBytes = 0, 0, 0
	return st
}

// checkFilter replays fc's workload on a System and on the reference
// and fails t unless every counter, every resident line and every
// Hybrid update counter agree, before and after the final flush, and
// the single-writer invariant holds. A case with an L2 is also
// replayed without one, which must leave every L1-side counter
// unchanged: nothing flows back from the shared level.
func checkFilter(t *testing.T, fc filterCase) {
	t.Helper()
	base := synthTrace(fc.events, fc.seed, fc.footprint)
	// 1MB windows fit MaxCores cores in the address space.
	w, err := BuildWorkload(base, WorkloadConfig{Cores: fc.cores, SharedFraction: fc.sharedFraction, Stride: 1 << 20, Stagger: fc.stagger})
	if err != nil {
		t.Fatalf("%v: %v", fc, err)
	}
	if fc.handBuilt {
		w = &Workload{Name: w.Name, PerCore: w.PerCore, Offsets: w.Offsets}
	}
	cfg := Config{Cores: fc.cores, L1: fc.l1, Scheme: fc.scheme, HybridK: fc.hybridK}
	var noL2 *System
	if fc.withL2 {
		noL2 = mustSystem(t, cfg)
		cfg.L2 = l2cfg()
	}
	sys := mustSystem(t, cfg)
	ref := newRefSystem(t, cfg)
	for _, s := range []*System{sys, noL2} {
		if s == nil {
			continue
		}
		if err := s.Run(w); err != nil {
			t.Fatalf("%v: %v", fc, err)
		}
	}
	ref.Run(w)
	if err := sys.CheckSingleWriter(); err != nil {
		t.Fatalf("%v: %v", fc, err)
	}
	for _, stage := range []string{"run", "flush"} {
		if stage == "flush" {
			sys.Flush()
			ref.Flush()
			if noL2 != nil {
				noL2.Flush()
			}
		}
		if got, want := sys.Stats(), ref.Stats(); got != want {
			t.Fatalf("%v: after %s: Stats differ:\n got %+v\nwant %+v", fc, stage, got, want)
		}
		for i := 0; i < fc.cores; i++ {
			if got, want := sys.CoreStats(i), ref.CoreStats(i); got != want {
				t.Fatalf("%v: after %s: CoreStats(%d) differ:\n got %+v\nwant %+v", fc, stage, i, got, want)
			}
			if got, want := sys.cores[i].hybrid, ref.cores[i].hybrid; !maps.Equal(got, want) {
				t.Fatalf("%v: after %s: core %d Hybrid counters differ:\n got %v\nwant %v", fc, stage, i, got, want)
			}
		}
		if got, want := sys.AggregateL1(), ref.AggregateL1(); got != want {
			t.Fatalf("%v: after %s: AggregateL1 differs:\n got %+v\nwant %+v", fc, stage, got, want)
		}
		if got, want := residentState(sys), residentState(ref.System); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: after %s: resident L1 lines differ", fc, stage)
		}
		if noL2 == nil {
			continue
		}
		if got, want := noL2.AggregateL1(), sys.AggregateL1(); got != want {
			t.Fatalf("%v: after %s: AggregateL1 without the L2 differs:\n got %+v\nwant %+v", fc, stage, got, want)
		}
		for i := 0; i < fc.cores; i++ {
			if got, want := noL2.CoreStats(i), sys.CoreStats(i); got != want {
				t.Fatalf("%v: after %s: CoreStats(%d) without the L2 differ:\n got %+v\nwant %+v", fc, stage, i, got, want)
			}
		}
		if got, want := noL2.Stats(), withoutL2(sys.Stats()); got != want {
			t.Fatalf("%v: after %s: Stats without the L2 differ:\n got %+v\nwant %+v", fc, stage, got, want)
		}
	}
}

// randomCase draws a filter case: caches from tiny (four lines, so
// evictions leave stale holder bits) to 1KB, with and without an L2
// and 4-byte valid granularity, over a contended synthetic workload.
func randomCase(rng *rand.Rand) filterCase {
	lineSize := 8 << rng.Intn(3)
	l1 := cache.Config{Size: 4 * lineSize, LineSize: lineSize, Assoc: 1,
		WriteHit: cache.WriteHitPolicy(rng.Intn(2)), WriteMiss: cache.WriteMissPolicies()[rng.Intn(4)]}
	switch rng.Intn(3) {
	case 1:
		l1.Size, l1.Assoc = 16*lineSize, 2
	case 2:
		l1.Size = 1 << 10
	}
	if rng.Intn(3) == 0 {
		l1.ValidGranularity = 4
	}
	hybridK := 0
	if rng.Intn(2) == 0 {
		hybridK = 1
	}
	return filterCase{
		cores:          1 + rng.Intn(8),
		l1:             l1,
		withL2:         rng.Intn(2) == 0,
		scheme:         Scheme(rng.Intn(3)),
		hybridK:        hybridK,
		sharedFraction: []float64{0, 0.25, 0.5, 1}[rng.Intn(4)],
		stagger:        uint64(rng.Intn(200)),
		footprint:      512 << rng.Intn(6),
		events:         300 + rng.Intn(1200),
		seed:           rng.Uint64(),
		handBuilt:      rng.Intn(4) == 0,
	}
}

// snoopCases returns TestSnoopFilterMatchesReference's cases: two
// random cases for every write-hit × write-miss pair under every
// scheme (Hybrid at HybridK 1 and the default), and for 64 cores under
// every scheme, with a 1KB or smaller and a four-line L1.
func snoopCases() []filterCase {
	rng := rand.New(rand.NewSource(23))
	var cases []filterCase
	for _, l1 := range hitMissCombos() {
		for _, scheme := range Schemes() {
			for _, k := range []int{1, 0} {
				if k == 1 && scheme != Hybrid {
					continue
				}
				for rep := 0; rep < 2; rep++ {
					fc := randomCase(rng)
					fc.l1.WriteHit, fc.l1.WriteMiss = l1.WriteHit, l1.WriteMiss
					fc.scheme, fc.hybridK = scheme, k
					cases = append(cases, fc)
				}
			}
		}
	}
	for _, scheme := range Schemes() {
		for _, tiny := range []bool{false, true} {
			fc := randomCase(rng)
			fc.cores, fc.scheme, fc.events, fc.sharedFraction = MaxCores, scheme, 300, 0.5
			if tiny {
				fc.l1.Size, fc.l1.Assoc = 4*fc.l1.LineSize, 1
			}
			cases = append(cases, fc)
		}
	}
	return cases
}

// TestSnoopFilterMatchesReference: on every snoopCases case the
// filtered system ends in the reference's state.
func TestSnoopFilterMatchesReference(t *testing.T) {
	for _, fc := range snoopCases() {
		checkFilter(t, fc)
	}
}

// TestHybridEndpoints: Hybrid reduces to its neighbours at the ends of
// its HybridK range, on every snoopCases workload with no L2. At 65535
// no copy ever sees that many updates, so Hybrid is Update on every
// counter. At 1 each remote copy drops at the first update, as under
// Invalidate, so every miss, fetch and sharing miss matches, and
// Hybrid's self-invalidations are Invalidate's invalidations received;
// only the traffic differs, as the writer still broadcasts the update
// that makes the copies drop.
func TestHybridEndpoints(t *testing.T) {
	run := func(fc filterCase, w *Workload, scheme Scheme, k int) *System {
		t.Helper()
		sys := mustSystem(t, Config{Cores: fc.cores, L1: fc.l1, Scheme: scheme, HybridK: k})
		if err := sys.Run(w); err != nil {
			t.Fatalf("%v: %v", fc, err)
		}
		sys.Flush()
		return sys
	}
	var updates, drops uint64
	for _, fc := range snoopCases() {
		w, err := BuildWorkload(synthTrace(fc.events, fc.seed, fc.footprint),
			WorkloadConfig{Cores: fc.cores, SharedFraction: fc.sharedFraction, Stride: 1 << 20, Stagger: fc.stagger})
		if err != nil {
			t.Fatalf("%v: %v", fc, err)
		}
		upd, never := run(fc, w, Update, 0), run(fc, w, Hybrid, math.MaxUint16)
		updates += upd.Stats().UpdatesReceived
		if got, want := never.AggregateL1(), upd.AggregateL1(); got != want {
			t.Errorf("%v: Hybrid at HybridK %d: AggregateL1 differs from Update's:\n got %+v\nwant %+v", fc, math.MaxUint16, got, want)
		}
		if got, want := never.Stats(), upd.Stats(); got != want {
			t.Errorf("%v: Hybrid at HybridK %d: Stats differ from Update's:\n got %+v\nwant %+v", fc, math.MaxUint16, got, want)
		}
		inv, first := run(fc, w, Invalidate, 0), run(fc, w, Hybrid, 1)
		got, want := first.AggregateL1(), inv.AggregateL1()
		if got.ReadMissEvents != want.ReadMissEvents || got.WriteMissEvents != want.WriteMissEvents || got.Fetches != want.Fetches {
			t.Errorf("%v: Hybrid at HybridK 1: read misses %d, write misses %d, fetches %d; Invalidate %d, %d, %d",
				fc, got.ReadMissEvents, got.WriteMissEvents, got.Fetches, want.ReadMissEvents, want.WriteMissEvents, want.Fetches)
		}
		hs, is := first.Stats(), inv.Stats()
		drops += hs.HybridInvalidations
		if hs.SharingMisses != is.SharingMisses {
			t.Errorf("%v: Hybrid at HybridK 1: %d sharing misses, Invalidate %d", fc, hs.SharingMisses, is.SharingMisses)
		}
		if hs.HybridInvalidations != is.InvalidationsReceived {
			t.Errorf("%v: Hybrid at HybridK 1: %d self-invalidations, Invalidate received %d invalidations",
				fc, hs.HybridInvalidations, is.InvalidationsReceived)
		}
	}
	if updates == 0 || drops == 0 {
		t.Errorf("the cases made %d updates and %d self-invalidations; both endpoints need some", updates, drops)
	}
}

// FuzzSnoopFilter checks the filtered system against the reference on
// the random case seed draws, with 1 to 8 cores or MaxCores (cores
// wraps into [0, 8]; 0 selects MaxCores). A MaxCores case gets 8/MaxCores
// of the events per core, so it costs about what an 8-core case does
// instead of dominating the fuzz time; TestSnoopFilterMatchesReference
// keeps the full-length MaxCores runs.
func FuzzSnoopFilter(f *testing.F) {
	f.Add(int64(1), uint8(2))
	f.Add(int64(2), uint8(3))
	f.Add(int64(3), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, cores uint8) {
		fc := randomCase(rand.New(rand.NewSource(seed)))
		fc.cores = int(cores) % 9
		fc.events = 50 + fc.events/4
		if fc.cores == 0 {
			fc.cores = MaxCores
			fc.events = fc.events * 8 / MaxCores
		}
		checkFilter(t, fc)
	})
}

// TestAccessZeroAlloc: once the directory pages of a working set
// exist, replaying it allocates nothing under Invalidate and Update.
func TestAccessZeroAlloc(t *testing.T) {
	w, err := BuildWorkload(synthTrace(2000, 5, 1<<13), WorkloadConfig{Cores: 4, SharedFraction: 0.25, Stagger: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{Invalidate, Update} {
		sys := mustSystem(t, Config{Cores: 4, L1: l1cfg(cache.WriteBack, cache.FetchOnWrite), L2: l2cfg(), Scheme: scheme})
		replay := func() {
			for c, pc := range w.PerCore {
				for _, e := range pc.Events {
					sys.Access(c, e)
				}
			}
		}
		replay()
		if allocs := testing.AllocsPerRun(3, replay); allocs != 0 {
			t.Errorf("%s: %v allocations per replay of %d events", scheme, allocs, 4*2000)
		}
	}
}
