// Multi-core workload construction: each core replays the base
// benchmark in a private address window (trace.Rebase), with a
// configurable fraction of 64-byte address granules overridden back to
// their base addresses so every core touches them at the same place —
// true sharing with deterministic, address-hashed selection. The
// per-core streams carry stagger offsets and are merged by instruction
// time by trace.MergeByTime, either once per workload into the issue
// order System.Run replays (coherent replay) or via
// trace.InterleaveOffset (a single-cache baseline stream).
package coherence

import (
	"fmt"

	"cachewrite/internal/trace"
)

// SharedGranule is the sharing decision granularity in bytes: whether
// an address is shared or private is decided per 64-byte granule, so
// the choice is stable across line sizes up to the cache maximum.
const SharedGranule = 64

// DefaultStride is the default private-window spacing: 128MB, so the
// 32-bit space holds 2^32/2^27 = 32 windows, and BuildWorkload rejects
// a 33rd core even for a footprint at the bottom of memory. A higher
// footprint leaves room for fewer (one at 0x7ffffff0 fits 17 cores),
// well short of MaxCores. The experiments compact a trace's regions
// first and use at most 8 cores; tests that need more cores than fit
// pass a smaller Stride. BuildWorkload verifies disjointness and range
// exactly rather than trusting the layout.
const DefaultStride = 1 << 27

// WorkloadConfig describes how to turn one benchmark trace into an
// N-core workload.
type WorkloadConfig struct {
	// Cores is the sharing degree (1..MaxCores).
	Cores int
	// SharedFraction in [0,1] is the fraction of 64-byte address
	// granules all cores share (selected by a deterministic address
	// hash); the rest of each core's references land in its private
	// window.
	SharedFraction float64
	// Stride is the private-window spacing in bytes (core i's private
	// addresses are base+i*Stride); 0 means DefaultStride. Must be a
	// power of two ≥ SharedGranule.
	Stride uint32
	// Stagger offsets core i's start by i*Stagger instructions,
	// breaking lockstep between the replicated streams.
	Stagger uint64
	// MaxEventsPerCore truncates the base trace to this many events
	// per core (0 = full trace) — the sweep experiments use a prefix
	// sample to bound simulation cost.
	MaxEventsPerCore int
}

// Workload is an N-core reference schedule: one trace per core plus
// per-core start offsets (instruction stagger). BuildWorkload also
// merges the streams into the issue order every System.Run of the
// workload replays, so PerCore and Offsets must not change afterwards.
type Workload struct {
	Name    string
	PerCore []*trace.Trace
	Offsets []uint64
	// order is the merged issue order as core ids (nil for a Workload
	// assembled by hand, which Run merges itself).
	order []uint8
}

// BuildWorkload constructs the N-core workload. It fails if any
// rebased access leaves the 32-bit address space or if two cores'
// private footprints (or a private and the shared footprint) collide
// at SharedGranule granularity — raise Stride if they do.
func BuildWorkload(base *trace.Trace, cfg WorkloadConfig) (*Workload, error) {
	if cfg.Cores < 1 || cfg.Cores > MaxCores {
		return nil, fmt.Errorf("coherence: %d cores outside [1,%d]", cfg.Cores, MaxCores)
	}
	if cfg.SharedFraction < 0 || cfg.SharedFraction > 1 {
		return nil, fmt.Errorf("coherence: shared fraction %v outside [0,1]", cfg.SharedFraction)
	}
	stride := cfg.Stride
	if stride == 0 {
		stride = DefaultStride
	}
	if stride < SharedGranule || stride&(stride-1) != 0 {
		return nil, fmt.Errorf("coherence: stride %d must be a power of two >= %d", stride, SharedGranule)
	}
	t := base
	if cfg.MaxEventsPerCore > 0 && base.Len() > cfg.MaxEventsPerCore {
		t = &trace.Trace{Name: base.Name, Events: base.Events[:cfg.MaxEventsPerCore]}
	}
	threshold := uint64(cfg.SharedFraction * float64(1<<32))

	w := &Workload{
		Name:    fmt.Sprintf("%s/x%d", base.Name, cfg.Cores),
		PerCore: make([]*trace.Trace, cfg.Cores),
		Offsets: make([]uint64, cfg.Cores),
	}
	// owner records, per shared granule, whether it belongs to the
	// shared footprint (-1) or one core's private image; a conflicting
	// claim means two windows collided and the workload would alias.
	owner := make(map[uint32]int)
	claim := func(g uint32, who int) error {
		if prev, ok := owner[g]; ok {
			if prev != who {
				return fmt.Errorf("coherence: address windows collide at granule %#x (stride %d too small for this footprint)",
					uint64(g)*SharedGranule, stride)
			}
			return nil
		}
		owner[g] = who
		return nil
	}
	// A claim depends only on the event's base granule, because the
	// stride is a multiple of SharedGranule. So each core claims each
	// distinct base granule once, at its first occurrence (firsts holds
	// those event indices in trace order): the first collision, and its
	// error, are the ones an event-by-event pass would meet.
	shared := make([]bool, t.Len())
	var firsts []int
	seen := make(map[uint32]struct{})
	last := ^uint32(0)
	for i, e := range t.Events {
		g := e.Addr / SharedGranule
		shared[i] = sharedGranule(g, threshold)
		if g == last {
			continue
		}
		last = g
		if _, ok := seen[g]; !ok {
			seen[g] = struct{}{}
			firsts = append(firsts, i)
		}
	}
	for c := 0; c < cfg.Cores; c++ {
		img, err := trace.Rebase(t, int64(stride)*int64(c))
		if err != nil {
			return nil, fmt.Errorf("coherence: core %d window: %w", c, err)
		}
		img.Name = fmt.Sprintf("%s/core%d", base.Name, c)
		for i, e := range t.Events {
			if shared[i] {
				// Shared granule: every core references the base
				// address, so the cores genuinely collide here.
				img.Events[i].Addr = e.Addr
			}
		}
		for _, i := range firsts {
			g, who := img.Events[i].Addr/SharedGranule, c
			if shared[i] {
				who = -1
			}
			if err := claim(g, who); err != nil {
				return nil, err
			}
		}
		w.PerCore[c] = img
		w.Offsets[c] = uint64(c) * cfg.Stagger
	}
	w.order = mergeOrder(w.PerCore, w.Offsets)
	return w, nil
}

// schedule returns w's merged issue order.
func (w *Workload) schedule() []uint8 {
	if w.order != nil {
		return w.order
	}
	return mergeOrder(w.PerCore, w.Offsets)
}

// mergeOrder merges the per-core streams by global instruction time
// (each core's offset applied, ties lowest-core-first; see
// trace.MergeByTime) and returns the core id of each event in issue
// order.
func mergeOrder(perCore []*trace.Trace, offsets []uint64) []uint8 {
	n := 0
	for _, t := range perCore {
		n += t.Len()
	}
	order := make([]uint8, 0, n)
	trace.MergeByTime(offsets, perCore, func(c int, _ trace.Event, _ uint64) {
		order = append(order, uint8(c))
	})
	return order
}

// sharedGranule decides, by deterministic hash, whether a granule is
// part of the shared region. The hash is a 32-bit splitmix-style
// mixer, so the shared set is a uniform pseudo-random sample of the
// footprint rather than one contiguous region.
func sharedGranule(g uint32, threshold uint64) bool {
	x := g + 0x9e3779b9
	x ^= x >> 16
	x *= 0x21f0aaad
	x ^= x >> 15
	x *= 0x735a2d97
	x ^= x >> 15
	return uint64(x) < threshold
}

// Interleaved merges the per-core streams (with their stagger offsets)
// into a single trace — the reference schedule one shared cache would
// observe. The stats report how faithfully the merged gaps fit the
// trace format (see trace.InterleaveStats).
func (w *Workload) Interleaved() (*trace.Trace, trace.InterleaveStats) {
	return trace.InterleaveOffset(w.Name, w.Offsets, w.PerCore...)
}
