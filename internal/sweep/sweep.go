// Package sweep implements single-pass gang simulation: many cache
// configurations driven by one walk over a shared trace, plus a bounded
// parallel scheduler for running whole sweeps.
//
// Every figure in the paper's evaluation is a sweep — the same six
// traces replayed across dozens of (size, line, policy) points. Walking
// the event slice once per configuration reads the same trace memory N
// times; the gang engine reads it once and fans each event out to a
// gang of cache instances. Large gangs are sharded so each
// (trace, config-shard) pair stays an independent unit of work for the
// scheduler, keeping all cores busy without giving up the single-pass
// memory behaviour within a unit.
//
// Caches simulated by a gang are completely independent, so gang
// results are bit-identical to simulating each configuration on its
// own (sweep_test.go pins this for every write-policy combination).
//
// Long sweeps are crash-safe: with Options.Checkpoint set, completed
// (trace, config-shard) units are journaled through
// internal/resilience, so a killed run re-invoked with the same sweep
// resumes mid-gang and finishes with byte-identical results
// (resume_test.go pins this). A unit either finishes or is cancelled:
// simulation is deterministic, so a failed unit (a config cache.New
// rejects) fails the sweep on its first attempt instead of being
// retried into the same failure. A cancelled context stops a unit
// part-way through, at its next pulse.
package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cachewrite/internal/cache"
	"cachewrite/internal/resilience"
	"cachewrite/internal/trace"
	"cachewrite/internal/vfs"
)

// DefaultShard is the number of configurations driven by one gang
// pass; every sweep shards by it. Large enough to amortize the
// per-event fan-out loop, small enough that a full paper sweep still
// splits into several times more units than cores.
const DefaultShard = 8

// Gang simulates every configuration over the trace in a single pass
// over its events, applying a final Flush to each cache (the
// accounting the paper's flush-stop methodology and Env.CacheStats
// use). It returns one Stats per configuration, in input order. The
// results are bit-identical to running each configuration alone.
func Gang(t *trace.Trace, cfgs []cache.Config) ([]cache.Stats, error) {
	return gang(context.Background(), t, cfgs)
}

// pulseStride is how many trace events a gang processes between
// cancellation checks, and the size of its pre-decode window. Small
// enough that cancellation lands well inside a second, large enough to
// stay invisible in the hot loop.
const pulseStride = 8192

// gang is Gang under a context: every pulseStride events it polls ctx,
// so cancellation lands mid-unit instead of only between units.
func gang(ctx context.Context, t *trace.Trace, cfgs []cache.Config) ([]cache.Stats, error) {
	caches := make([]*cache.Cache, len(cfgs))
	for i, cfg := range cfgs {
		c, err := cache.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("sweep: %s on %s: %w", cfg, t.Name, err)
		}
		caches[i] = c
	}
	groups := groupByGeometry(caches)
	events := t.Events
	scratch := pulseStride
	if len(events) < scratch {
		scratch = len(events)
	}
	dec := make([]cache.Decoded, scratch)
	for start := 0; start < len(events); start += pulseStride {
		end := start + pulseStride
		if end > len(events) {
			end = len(events)
		}
		fanout(events[start:end], groups, dec)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	out := make([]cache.Stats, len(caches))
	for i, c := range caches {
		c.Flush()
		out[i] = c.Stats()
	}
	return out, nil
}

// geomGroup is the subset of one gang sharing an address-decode
// geometry (cache.Geometry): one DecodeBatch serves every member, so
// the per-event address arithmetic is paid once per group per window
// instead of once per cache per event. In the paper sweep, each
// (size, line) point carries four policy configs, so a shard's decode
// cost is amortized 4× before the kernels even start.
type geomGroup struct {
	caches []*cache.Cache
}

// groupByGeometry buckets gang members by geometry key, preserving
// first-appearance group order and input order within each group, so
// the fan-out stays deterministic. Setup-time only — never in the hot
// loop.
func groupByGeometry(caches []*cache.Cache) []geomGroup {
	groups := make([]geomGroup, 0, len(caches))
	index := make(map[uint64]int, len(caches))
	for _, c := range caches {
		key := c.Geometry()
		i, ok := index[key]
		if !ok {
			i = len(groups)
			index[key] = i
			groups = append(groups, geomGroup{})
		}
		groups[i].caches = append(groups[i].caches, c)
	}
	return groups
}

// fanout is the gang inner loop: one pulse window is pre-decoded once
// per geometry group (hoisted line-number/tag/byte-mask computation
// into the dec scratch array) and every group member consumes the
// decoded batch through its specialized kernel. It dominates sweep
// wall-clock, so it is under the simlint zero-allocation contract
// together with cache.AccessBatch and cache.Access.
//
//simlint:hotpath
func fanout(events []trace.Event, groups []geomGroup, dec []cache.Decoded) {
	for _, g := range groups {
		g.caches[0].DecodeBatch(events, dec)
		for _, c := range g.caches {
			c.AccessBatch(events, dec)
		}
	}
}

// Unit is one independent unit of scheduled work: one trace against a
// shard of configurations.
type Unit struct {
	// TraceIndex identifies the trace within the caller's trace slice
	// (carried through so collectors can file results).
	TraceIndex int
	// Trace is the reference stream to replay.
	Trace *trace.Trace
	// Cfgs is the configuration shard simulated in one gang pass.
	Cfgs []cache.Config
	// Base is the index of Cfgs[0] within the caller's full
	// configuration slice.
	Base int
}

// Shard splits cfgs into shards of at most DefaultShard configurations
// and pairs each with the trace, producing independent units. The
// shards partition cfgs in order (unit i covers
// cfgs[i*DefaultShard : (i+1)*DefaultShard]).
func Shard(ti int, t *trace.Trace, cfgs []cache.Config) []Unit {
	units := make([]Unit, 0, (len(cfgs)+DefaultShard-1)/DefaultShard)
	for base := 0; base < len(cfgs); base += DefaultShard {
		end := min(base+DefaultShard, len(cfgs))
		units = append(units, Unit{TraceIndex: ti, Trace: t, Cfgs: cfgs[base:end], Base: base})
	}
	return units
}

// Key identifies the unit stably across runs of the same sweep: the
// journal files completed results under it.
func (u Unit) Key() string {
	return fmt.Sprintf("%s#%d/cfgs[%d:%d]", u.Trace.Name, u.TraceIndex, u.Base, u.Base+len(u.Cfgs))
}

// EventKind classifies scheduler progress events.
type EventKind uint8

const (
	// UnitDone: a unit was freshly simulated and collected.
	UnitDone EventKind = iota
	// UnitRestored: a unit's results were recovered from the checkpoint
	// journal instead of being recomputed.
	UnitRestored
	// JournalFallback: the checkpoint journal was corrupt or stale and
	// was (partially) discarded.
	JournalFallback
	// JournalDegraded: a checkpoint snapshot or cleanup failed. The
	// sweep continues — a checkpoint is an optimization, and losing one
	// costs recomputation, never correctness — but the degradation is
	// surfaced so operators see the disk misbehaving.
	JournalDegraded
)

// Event is one structured scheduler observation, delivered through
// Options.OnEvent.
type Event struct {
	// Kind says what happened.
	Kind EventKind
	// Unit is the affected unit's Key (empty for journal-level events).
	Unit string
	// Err carries context for JournalFallback and the failure for
	// JournalDegraded.
	Err error
	// Worker is the scheduler pool index that produced a UnitDone event
	// (-1 for events with no owning worker, e.g. UnitRestored and
	// journal-level events), so progress reports can show what each
	// worker ran and when.
	Worker int
}

// Options tunes a Sweep.
type Options struct {
	// Workers is the scheduler pool size; < 1 means GOMAXPROCS.
	Workers int
	// Checkpoint, when non-empty, makes the sweep crash-safe: completed
	// unit results are journaled here (atomically, with CRC and
	// previous-snapshot fallback), and a later run of the same sweep
	// resumes from the journal instead of recomputing. The journal is
	// removed when the sweep completes.
	Checkpoint string
	// CheckpointEvery snapshots the journal after this many newly
	// completed units (default 4). Cancellation always flushes a final
	// snapshot regardless.
	CheckpointEvery int
	// OnEvent, when non-nil, receives structured progress events. It is
	// called under the scheduler's collect lock — keep it fast.
	OnEvent func(Event)
	// FS is the filesystem the checkpoint journal writes through; nil
	// means the real one. Fault-injection tests and the chaos harness
	// pass a vfs.Faulty to prove sweeps survive storage failures.
	FS vfs.FS
}

// journalVersion is the sweep checkpoint schema version; bump it when
// journalState or cache.Stats changes shape.
const journalVersion = 2

// journalState is the persisted progress of a sweep: the fingerprint
// binding it to one exact (traces, configs, sharding) request and the
// completed units' results. Journals from builds that also recorded a
// "poisoned" map still load: decoding ignores the unknown field.
type journalState struct {
	Fingerprint string                   `json:"fingerprint"`
	Done        map[string][]cache.Stats `json:"done"`
}

// fingerprint binds a journal to the exact sweep that wrote it: trace
// names and lengths, shard boundaries, and every configuration. Any
// difference — reordered traces, a changed axis, different sharding —
// changes the fingerprint, and the journal reads as stale.
func fingerprint(units []Unit) string {
	h := sha256.New()
	for _, u := range units {
		fmt.Fprintf(h, "%s|%d|%d|%d|", u.Trace.Name, u.Trace.Len(), u.TraceIndex, u.Base)
		for _, cfg := range u.Cfgs {
			fmt.Fprintf(h, "%s;", cfg)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// RunUnits executes the units on a bounded worker pool and reports each
// unit's gang results through collect (which may be nil). On the first
// unit error — returned as "sweep: unit <key>: <err>" — or when ctx is
// cancelled, the remaining units are abandoned and RunUnits returns
// promptly with that error. opt adds checkpoint/resume through the
// resilience journal. collect is called serially,
// in completion order; restored units are delivered through it before
// any fresh simulation starts.
func RunUnits(ctx context.Context, units []Unit, opt Options, collect func(Unit, []cache.Stats)) error {
	var mu sync.Mutex // serializes collect, state updates and OnEvent
	emit := func(e Event) {
		if opt.OnEvent != nil {
			mu.Lock()
			opt.OnEvent(e)
			mu.Unlock()
		}
	}

	// Load and replay the journal, if any.
	var journal *resilience.Journal[journalState]
	state := journalState{Done: map[string][]cache.Stats{}}
	if opt.Checkpoint != "" {
		jfs := opt.FS
		if jfs == nil {
			jfs = vfs.OS{}
		}
		journal = resilience.NewJournalFS[journalState](jfs, opt.Checkpoint, "sweep", journalVersion)
		fp := fingerprint(units)
		prev, info, err := journal.Load()
		if err != nil {
			return fmt.Errorf("sweep: checkpoint: %w", err)
		}
		for _, w := range info.Warnings {
			emit(Event{Kind: JournalFallback, Err: fmt.Errorf("%s", w), Worker: -1})
		}
		if info.Found && prev.Fingerprint == fp && prev.Done != nil {
			state = prev
		} else if info.Found {
			emit(Event{Kind: JournalFallback, Worker: -1,
				Err: fmt.Errorf("checkpoint %s belongs to a different sweep; starting fresh", opt.Checkpoint)})
		}
		state.Fingerprint = fp
	}
	var pending []Unit
	for _, u := range units {
		if stats, ok := state.Done[u.Key()]; ok && len(stats) == len(u.Cfgs) {
			if collect != nil {
				mu.Lock()
				collect(u, stats)
				mu.Unlock()
			}
			emit(Event{Kind: UnitRestored, Unit: u.Key(), Worker: -1})
			continue
		}
		pending = append(pending, u)
	}

	workers := opt.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	ckEvery := opt.CheckpointEvery
	if ckEvery < 1 {
		ckEvery = 4
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		errOnce   sync.Once
		firstErr  error
		sinceSnap int
		wg        sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	// Workers claim pending units in input order through one shared
	// cursor; an idle worker always takes the next unclaimed unit.
	var cursor atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if gctx.Err() != nil {
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= len(pending) {
					return
				}
				u := pending[i]
				key := u.Key()
				stats, err := gang(gctx, u.Trace, u.Cfgs)
				if err != nil {
					if gctx.Err() == nil {
						// A cancelled unit returns the bare context error;
						// anything else is the unit's own, deterministic
						// failure, and a rerun would only repeat it.
						err = fmt.Errorf("sweep: unit %s: %w", key, err)
					}
					fail(err)
					return
				}
				var degraded error
				mu.Lock()
				if collect != nil {
					collect(u, stats)
				}
				if journal != nil {
					state.Done[key] = stats
					sinceSnap++
					if sinceSnap >= ckEvery && len(state.Done) < len(units) {
						// A failed snapshot degrades (the next one retries, a
						// resume just recomputes more) — it never fails a
						// sweep whose simulation work is succeeding.
						//simlint:allow lockheld the checkpoint must serialize an atomic snapshot of state; snapshots are paced by ckEvery so contention is bounded
						degraded = journal.Save(state)
						sinceSnap = 0
					}
				}
				mu.Unlock()
				if degraded != nil {
					emit(Event{Kind: JournalDegraded, Unit: key, Err: degraded, Worker: w})
				}
				emit(Event{Kind: UnitDone, Unit: key, Worker: w})
			}
		}(w)
	}
	wg.Wait()

	err := firstErr
	if err == nil {
		err = ctx.Err()
	}
	if journal != nil {
		if err != nil {
			// Flush a final snapshot so the interrupted (or failed) run
			// resumes from everything that did complete. A failed flush
			// degrades — it must not mask why the run stopped.
			if serr := journal.Save(state); serr != nil {
				emit(Event{Kind: JournalDegraded, Err: serr, Worker: -1})
			}
			return err
		}
		if rerr := journal.Remove(); rerr != nil {
			// Cleanup failure costs a leftover file, not correctness: a
			// rerun of the same sweep restores from it instantly, any
			// other sweep reads it as stale and starts fresh.
			emit(Event{Kind: JournalDegraded, Err: rerr, Worker: -1})
		}
		return nil
	}
	return err
}

// Sweep runs every configuration over every trace with the gang engine
// on a bounded worker pool and returns stats indexed [trace][config],
// matching the input slices. It is the single-call form of
// Shard + RunUnits for full cartesian sweeps, including the
// checkpoint/resume behaviour of Options.
func Sweep(ctx context.Context, traces []*trace.Trace, cfgs []cache.Config, opt Options) ([][]cache.Stats, error) {
	out := make([][]cache.Stats, len(traces))
	var units []Unit
	for ti, t := range traces {
		out[ti] = make([]cache.Stats, len(cfgs))
		units = append(units, Shard(ti, t, cfgs)...)
	}
	err := RunUnits(ctx, units, opt, func(u Unit, stats []cache.Stats) {
		copy(out[u.TraceIndex][u.Base:], stats)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
