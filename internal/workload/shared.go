package workload

import (
	"context"
	"fmt"
	"sync"

	"cachewrite/internal/trace"
)

// SharedTraces is a process-wide trace provider for multi-session
// callers (the simserved sessions): many concurrent requests for the
// same (workload, scale) pair share one generation and one decoded
// in-memory copy instead of each paying for generation or a disk
// decode. It layers two mechanisms over GenerateCached:
//
//   - single-flight: the first request for a key generates (or decodes
//     from the on-disk cache); every concurrent duplicate blocks on
//     that one flight and shares its result;
//   - a bounded in-memory LRU of decoded traces, so a hot working set
//     of workloads is served without touching the disk cache at all.
//
// Returned traces are shared between callers and must be treated as
// read-only; use Trace.Slice for capped views (it shares the backing
// array without mutating it).
type SharedTraces struct {
	dir string
	max int

	mu       sync.Mutex
	entries  map[sharedKey]*sharedEntry
	order    []sharedKey // LRU order: front is coldest
	inflight int
}

type sharedKey struct {
	name  string
	scale int
}

type sharedEntry struct {
	ready chan struct{} // closed once t/err are set
	done  bool          // set under the owning SharedTraces' mu, before close(ready)
	t     *trace.Trace
	err   error
}

// NewSharedTraces returns a shared provider over the on-disk trace
// cache at dir (empty dir disables the disk layer; generation still
// works). maxEntries bounds the decoded in-memory traces kept live
// (< 1 means 16).
func NewSharedTraces(dir string, maxEntries int) *SharedTraces {
	if maxEntries < 1 {
		maxEntries = 16
	}
	return &SharedTraces{dir: dir, max: maxEntries, entries: map[sharedKey]*sharedEntry{}}
}

// Get returns the trace for (name, scale), generating it at most once
// per process no matter how many sessions ask concurrently. Waiting on
// another session's in-flight generation honors ctx; the flight itself
// is never cancelled (another waiter may still want it).
func (s *SharedTraces) Get(ctx context.Context, name string, scale int) (*trace.Trace, error) {
	scale = clampScale(scale)
	key := sharedKey{name, scale}
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.bump(key)
		s.mu.Unlock()
		select {
		case <-e.ready:
			return e.t, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &sharedEntry{ready: make(chan struct{})}
	s.entries[key] = e
	s.order = append(s.order, key)
	s.inflight++
	s.evictLocked()
	s.mu.Unlock()

	t, err := GenerateCached(s.dir, name, scale)
	s.mu.Lock()
	e.t, e.err = t, err
	e.done = true
	s.inflight--
	if err != nil {
		// Failed flights are not cached: the next Get retries (the
		// failure may have been transient — disk pressure, a corrupt
		// cache entry since quarantined).
		s.dropLocked(key)
	}
	s.mu.Unlock()
	close(e.ready)
	if err != nil {
		return nil, fmt.Errorf("workload: shared trace %s/s%d: %w", name, scale, err)
	}
	return t, nil
}

// Len reports how many decoded traces (including in-flight ones) are
// currently held.
func (s *SharedTraces) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// bump moves key to the hot end of the LRU order. Caller holds mu.
func (s *SharedTraces) bump(key sharedKey) {
	for i, k := range s.order {
		if k == key {
			copy(s.order[i:], s.order[i+1:])
			s.order[len(s.order)-1] = key
			return
		}
	}
}

// dropLocked removes key from the map and order. Caller holds mu.
func (s *SharedTraces) dropLocked(key sharedKey) {
	delete(s.entries, key)
	for i, k := range s.order {
		if k == key {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}

// evictLocked trims the coldest completed entries until the table fits
// the budget again. In-flight entries are never evicted — waiters hold
// their channel. Caller holds mu.
func (s *SharedTraces) evictLocked() {
	for i := 0; len(s.entries) > s.max && i < len(s.order); {
		key := s.order[i]
		e := s.entries[key]
		if e == nil || !e.done {
			i++
			continue
		}
		s.dropLocked(key)
	}
}
