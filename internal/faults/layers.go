package faults

import (
	"fmt"
	"strings"

	"cachewrite/internal/cache"
	"cachewrite/internal/hierarchy"
	"cachewrite/internal/trace"
	"cachewrite/internal/writebuffer"
)

// Hierarchy-wide fault injection. The paper's §3 error-tolerance
// argument is stated for the first-level cache, but every buffering
// structure between the CPU and memory holds data whose only copy may
// be in flight: the coalescing write buffer, the write cache and the
// L2 all have the same clean-vs-dirty recoverability split. This file
// models every one of them, the L1 included, and classifies every
// upset into the standard reliability taxonomy:
//
//   - corrected: the error was repaired — in place (ECC), by
//     refetching clean data from the next level, or by replaying a
//     pending store from the still-resident write-through L1 line.
//   - DUE (detected unrecoverable error): protection detected the
//     upset but no good copy exists; the run must stop or the data is
//     known-lost. Dirty data under parity-only protection lands here.
//   - SDC (silent data corruption): no protection, so the corrupted
//     value is consumed or written onward without anyone noticing —
//     the worst outcome.
//
// Recovery mechanisms modelled: refetch of clean lines, word-SEC ECC
// correction, periodic scrubbing of accumulated single-bit upsets
// (bounding ECC double-bit windows), replay of buffered stores from
// the L1, and bounded retry of transiently-faulting back-side
// transactions.

// Layer identifies one buffering level of the simulated hierarchy.
type Layer uint8

const (
	// LayerL1 is the first-level data cache.
	LayerL1 Layer = iota
	// LayerWriteBuffer is the coalescing write buffer (paper §3.2,
	// Fig 5) behind a write-through L1.
	LayerWriteBuffer
	// LayerWriteCache is the paper's proposed write cache (§3.2, Fig 6).
	LayerWriteCache
	// LayerL2 is the second-level cache.
	LayerL2
	// NumLayers bounds per-layer arrays.
	NumLayers = 4
)

// String returns the CLI name of the layer: l1, wb, wcache or l2.
func (l Layer) String() string {
	switch l {
	case LayerL1:
		return "l1"
	case LayerWriteBuffer:
		return "wb"
	case LayerWriteCache:
		return "wcache"
	case LayerL2:
		return "l2"
	default:
		return fmt.Sprintf("Layer(%d)", uint8(l))
	}
}

// AllLayers lists every layer in hierarchy order.
func AllLayers() []Layer {
	return []Layer{LayerL1, LayerWriteBuffer, LayerWriteCache, LayerL2}
}

// ParseLayers reads a comma-separated layer list ("l1,wb,wcache,l2"),
// deduplicating and preserving hierarchy order.
func ParseLayers(s string) ([]Layer, error) {
	var have [NumLayers]bool
	for _, f := range strings.Split(s, ",") {
		switch strings.TrimSpace(f) {
		case "l1":
			have[LayerL1] = true
		case "wb":
			have[LayerWriteBuffer] = true
		case "wcache":
			have[LayerWriteCache] = true
		case "l2":
			have[LayerL2] = true
		case "":
		default:
			return nil, fmt.Errorf("faults: unknown layer %q (want l1, wb, wcache, l2)", strings.TrimSpace(f))
		}
	}
	var out []Layer
	for _, l := range AllLayers() {
		if have[l] {
			out = append(out, l)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("faults: no layers in %q", s)
	}
	return out, nil
}

// LayerReport classifies every upset injected into one layer. The
// invariant Injected == Corrected + DUE + SDC always holds; the
// Recovered*/CorrectedInPlace counters break Corrected down by
// mechanism.
type LayerReport struct {
	// Injected counts upsets that actually struck resident data.
	Injected uint64 `json:"injected"`
	// Corrected counts upsets repaired by any mechanism.
	Corrected uint64 `json:"corrected"`
	// DUE counts detected-unrecoverable errors (data known lost).
	DUE uint64 `json:"due"`
	// SDC counts silent data corruptions (unprotected data struck).
	SDC uint64 `json:"sdc"`
	// CorrectedInPlace counts ECC single-bit corrections.
	CorrectedInPlace uint64 `json:"correctedInPlace"`
	// RecoveredByRefetch counts clean data healed by re-reading the
	// next level.
	RecoveredByRefetch uint64 `json:"recoveredByRefetch"`
	// RecoveredByReplay counts buffered stores healed by replaying the
	// still-resident write-through L1 line.
	RecoveredByReplay uint64 `json:"recoveredByReplay"`
	// Scrubbed counts words whose accumulated upsets a periodic scrub
	// cleared before they could pair into a double-bit error.
	Scrubbed uint64 `json:"scrubbed"`
	// RefetchTraffic is the extra fetch bytes spent healing.
	RefetchTraffic uint64 `json:"refetchTraffic"`
}

// add accumulates o into r (campaign aggregation).
func (r *LayerReport) add(o LayerReport) {
	r.Injected += o.Injected
	r.Corrected += o.Corrected
	r.DUE += o.DUE
	r.SDC += o.SDC
	r.CorrectedInPlace += o.CorrectedInPlace
	r.RecoveredByRefetch += o.RecoveredByRefetch
	r.RecoveredByReplay += o.RecoveredByReplay
	r.Scrubbed += o.Scrubbed
	r.RefetchTraffic += o.RefetchTraffic
}

// XactReport accounts transient back-side transaction faults and
// their bounded-retry recovery.
type XactReport struct {
	// Transactions counts back-side transactions observed (L1->L2 and
	// L2->memory).
	Transactions uint64 `json:"transactions"`
	// Faults counts injected transient transaction faults.
	Faults uint64 `json:"faults"`
	// Retries counts retry attempts issued.
	Retries uint64 `json:"retries"`
	// Corrected counts faults that a retry recovered.
	Corrected uint64 `json:"corrected"`
	// DUE counts faults that exhausted the retry budget.
	DUE uint64 `json:"due"`
}

func (x *XactReport) add(o XactReport) {
	x.Transactions += o.Transactions
	x.Faults += o.Faults
	x.Retries += o.Retries
	x.Corrected += o.Corrected
	x.DUE += o.DUE
}

// HierarchyReport aggregates one injection run over every layer.
type HierarchyReport struct {
	// Accesses is the number of trace events replayed.
	Accesses uint64 `json:"accesses"`
	// Layers holds per-layer outcomes, indexed by Layer.
	Layers [NumLayers]LayerReport `json:"layers"`
	// Xact accounts transient back-side transaction faults.
	Xact XactReport `json:"xact"`
}

// Layer returns the report for one layer.
func (r HierarchyReport) Layer(l Layer) LayerReport { return r.Layers[l] }

// Add accumulates o into r (campaign aggregation across trials).
func (r *HierarchyReport) Add(o HierarchyReport) {
	r.Accesses += o.Accesses
	for i := range r.Layers {
		r.Layers[i].add(o.Layers[i])
	}
	r.Xact.add(o.Xact)
}

// Total sums the per-layer reports.
func (r HierarchyReport) Total() LayerReport {
	var t LayerReport
	for i := range r.Layers {
		t.add(r.Layers[i])
	}
	return t
}

// HierarchyConfig parameterizes a hierarchy-wide injection run.
type HierarchyConfig struct {
	// Hierarchy is the memory system under test: L1, optional write
	// cache, optional L2.
	Hierarchy hierarchy.Config
	// Buffer, if non-nil, adds a coalescing write buffer fed by the
	// CPU's store stream. It needs a write-through L1, as in the
	// paper's Fig 5: behind one, every store is written through.
	Buffer *writebuffer.Config
	// Layers selects which layers upsets strike. Layers absent from
	// the configured topology (no write cache, no L2, no buffer) are
	// skipped and report zeroes.
	Layers []Layer
	// Schemes assigns a protection scheme to each layer, indexed by
	// Layer.
	Schemes [NumLayers]Scheme
	// ErrorEvery injects one upset per layer per this many accesses.
	// Must be positive.
	ErrorEvery int
	// Seed randomizes strike targets; deterministic for a given value.
	Seed uint64
	// ScrubInterval, when positive, scrubs accumulated single-bit
	// upsets in ECC-protected arrays every this many accesses,
	// bounding the window in which a second upset can pair into an
	// uncorrectable double.
	ScrubInterval int
	// XactFaultEvery, when positive, injects one transient back-side
	// transaction fault per this many transactions. A faulted
	// transaction is retried up to xactRetryLimit times, each retry
	// succeeding with probability xactRetrySuccessPct percent.
	XactFaultEvery int
}

// Retry model of a faulted back-side transaction.
const (
	xactRetryLimit      = 3
	xactRetrySuccessPct = 90
)

// Validate reports whether the configuration is usable.
func (c HierarchyConfig) Validate() error {
	if err := c.Hierarchy.Validate(); err != nil {
		return fmt.Errorf("faults: %w", err)
	}
	if c.Buffer != nil {
		if c.Hierarchy.L1.WriteHit != cache.WriteThrough {
			return fmt.Errorf("faults: a write buffer needs a write-through L1, not %s", c.Hierarchy.L1.WriteHit)
		}
		if err := c.Buffer.Validate(); err != nil {
			return fmt.Errorf("faults: %w", err)
		}
	}
	if c.ErrorEvery <= 0 {
		return fmt.Errorf("faults: ErrorEvery must be positive")
	}
	if len(c.Layers) == 0 {
		return fmt.Errorf("faults: no layers selected")
	}
	for _, l := range c.Layers {
		if l >= NumLayers {
			return fmt.Errorf("faults: bad layer %d", l)
		}
	}
	if c.ScrubInterval < 0 {
		return fmt.Errorf("faults: ScrubInterval must be non-negative")
	}
	if c.XactFaultEvery < 0 {
		return fmt.Errorf("faults: XactFaultEvery must be non-negative")
	}
	return nil
}

// wordKey names one 32-bit word of a line: ECC-protected arrays count
// accumulated upsets per word so double-bit failures can be detected.
type wordKey struct {
	lineAddr uint32
	word     uint8
}

// injector carries one run's mutable state.
type injector struct {
	cfg HierarchyConfig
	h   *hierarchy.Hierarchy
	buf *writebuffer.Buffer
	rng uint64
	rep HierarchyReport
	// accumulated single-bit upsets per (line, word) for ECC-protected
	// cache arrays.
	l1Upsets map[wordKey]int
	l2Upsets map[wordKey]int
	// lastXacts tracks the back-side transaction count already examined
	// for transient faults.
	lastXacts uint64
}

func (in *injector) next() uint64 {
	in.rng ^= in.rng >> 12
	in.rng ^= in.rng << 25
	in.rng ^= in.rng >> 27
	return in.rng * 0x2545f4914f6cdd1d
}

// InjectHierarchy replays the trace through the configured hierarchy,
// striking every selected layer once per ErrorEvery accesses and
// classifying each upset as corrected, DUE or SDC under that layer's
// protection scheme. The functional simulation is unaffected — errors
// are modelled on the side, because the question is recoverability,
// not the corrupted values themselves. Injection is deterministic for
// a given configuration and trace.
func InjectHierarchy(cfg HierarchyConfig, t *trace.Trace) (HierarchyReport, error) {
	if err := cfg.Validate(); err != nil {
		return HierarchyReport{}, err
	}
	h, err := hierarchy.New(cfg.Hierarchy)
	if err != nil {
		return HierarchyReport{}, fmt.Errorf("faults: %w", err)
	}
	in := &injector{cfg: cfg, h: h, rng: cfg.Seed}
	if in.rng == 0 {
		in.rng = 0x9e3779b97f4a7c15
	}
	if cfg.Buffer != nil {
		if in.buf, err = writebuffer.New(*cfg.Buffer); err != nil {
			return HierarchyReport{}, fmt.Errorf("faults: %w", err)
		}
	}
	in.l1Upsets = make(map[wordKey]int)
	in.l2Upsets = make(map[wordKey]int)

	layerOn := [NumLayers]bool{}
	for _, l := range cfg.Layers {
		layerOn[l] = true
	}

	for i, e := range t.Events {
		h.Access(e)
		if in.buf != nil {
			in.buf.Step(e)
		}
		in.rep.Accesses++
		in.checkXactFaults()
		if cfg.ScrubInterval > 0 && (i+1)%cfg.ScrubInterval == 0 {
			in.scrub()
		}
		if (i+1)%cfg.ErrorEvery != 0 {
			continue
		}
		if layerOn[LayerL1] {
			in.strikeCacheLayer(LayerL1, e.Addr)
		}
		if layerOn[LayerWriteBuffer] && in.buf != nil {
			in.strikeWriteBuffer()
		}
		if layerOn[LayerWriteCache] && h.WriteCache() != nil {
			in.strikeWriteCache()
		}
		if layerOn[LayerL2] && h.L2() != nil {
			in.strikeCacheLayer(LayerL2, e.Addr)
		}
	}
	return in.rep, nil
}

// strikeCacheLayer injects one upset into a pseudo-random resident
// line of the L1 or L2 data array near addr and classifies the
// outcome under the layer's scheme.
func (in *injector) strikeCacheLayer(layer Layer, addr uint32) {
	c := in.h.L1()
	upsets := in.l1Upsets
	if layer == LayerL2 {
		c = in.h.L2()
		upsets = in.l2Upsets
	}
	lineSize := uint32(c.Config().LineSize)
	rep := &in.rep.Layers[layer]

	// Probe random addresses near this access until one is resident
	// (bounded tries).
	var struck uint32
	found := false
	for try := 0; try < 8; try++ {
		cand := (addr &^ (lineSize - 1)) + uint32(in.next()%64)*lineSize
		if c.Probe(cand).Present {
			struck = cand &^ (lineSize - 1)
			found = true
			break
		}
	}
	if !found {
		return // no resident victim; no upset this period
	}
	rep.Injected++
	wordsPerLine := lineSize / 4
	word := uint8(in.next() % uint64(wordsPerLine))
	st := c.Probe(struck)
	wordDirty := st.Dirty&(uint64(0xf)<<(uint32(word)*4)) != 0

	switch in.cfg.Schemes[layer] {
	case None:
		rep.SDC++
	case ByteParity:
		if wordDirty {
			// Detected, but the only copy of the dirty data is gone.
			rep.DUE++
		} else {
			rep.Corrected++
			rep.RecoveredByRefetch++
			rep.RefetchTraffic += uint64(lineSize)
		}
	case WordSECECC:
		key := wordKey{struck, word}
		upsets[key]++
		if upsets[key] == 1 {
			rep.Corrected++
			rep.CorrectedInPlace++
		} else {
			// Second upset in the same word before any scrub: SEC cannot
			// correct a double, but SEC-DED detects it.
			if wordDirty {
				rep.DUE++
			} else {
				rep.Corrected++
				rep.RecoveredByRefetch++
				rep.RefetchTraffic += uint64(lineSize)
			}
			delete(upsets, key) // correction or refetch scrubs the word
		}
	}
}

// strikeWriteBuffer injects one upset into a pseudo-random pending
// write-buffer entry. Buffer entries hold stores the next level has
// not seen; the recovery path for detected errors is replaying the
// line from the write-through L1, which still holds the stored data
// while the line stays resident.
func (in *injector) strikeWriteBuffer() {
	lines := in.buf.PendingLineAddrs()
	if len(lines) == 0 {
		return
	}
	lineAddr := lines[in.next()%uint64(len(lines))]
	in.rep.Layers[LayerWriteBuffer].Injected++
	in.classifyBufferedStore(LayerWriteBuffer, lineAddr)
}

// strikeWriteCache injects one upset into a pseudo-random resident
// write-cache entry. Dirty entries are buffered stores (replayable
// from the L1); clean full entries are captured victims (refetchable
// from the next level).
func (in *injector) strikeWriteCache() {
	entries := in.h.WriteCache().ResidentEntries()
	if len(entries) == 0 {
		return
	}
	entry := entries[in.next()%uint64(len(entries))]
	rep := &in.rep.Layers[LayerWriteCache]
	rep.Injected++
	if entry.Dirty {
		in.classifyBufferedStore(LayerWriteCache, entry.LineAddr)
		return
	}
	// Clean captured victim: the next level holds a good copy.
	switch in.cfg.Schemes[LayerWriteCache] {
	case None:
		rep.SDC++
	case ByteParity:
		rep.Corrected++
		rep.RecoveredByRefetch++
		rep.RefetchTraffic += uint64(in.h.WriteCache().LineSize())
	case WordSECECC:
		rep.Corrected++
		rep.CorrectedInPlace++
	}
}

// classifyBufferedStore classifies an upset on a buffered (dirty)
// store entry of the write buffer or write cache under that layer's
// scheme: ECC corrects in place; parity detects and replays from the
// L1 when the written line is still resident there; nothing else can
// recover the only in-flight copy.
func (in *injector) classifyBufferedStore(layer Layer, lineAddr uint32) {
	rep := &in.rep.Layers[layer]
	switch in.cfg.Schemes[layer] {
	case None:
		rep.SDC++
	case ByteParity:
		if st := in.h.L1().Probe(lineAddr); st.Present {
			rep.Corrected++
			rep.RecoveredByReplay++
		} else {
			rep.DUE++
		}
	case WordSECECC:
		rep.Corrected++
		rep.CorrectedInPlace++
	}
}

// scrub clears accumulated single-bit upsets in the ECC-protected
// cache arrays, counting the words each layer's scrubber repaired.
func (in *injector) scrub() {
	if in.cfg.Schemes[LayerL1] == WordSECECC {
		in.rep.Layers[LayerL1].Scrubbed += uint64(len(in.l1Upsets))
		clear(in.l1Upsets)
	}
	if in.cfg.Schemes[LayerL2] == WordSECECC {
		in.rep.Layers[LayerL2].Scrubbed += uint64(len(in.l2Upsets))
		clear(in.l2Upsets)
	}
}

// checkXactFaults observes new back-side transactions and injects
// transient faults with bounded retry.
func (in *injector) checkXactFaults() {
	if in.cfg.XactFaultEvery <= 0 {
		return
	}
	st := in.h.Stats()
	now := st.L1ToL2Transactions + st.L2ToMemTransactions
	for in.lastXacts < now {
		in.lastXacts++
		in.rep.Xact.Transactions++
		if in.rep.Xact.Transactions%uint64(in.cfg.XactFaultEvery) != 0 {
			continue
		}
		in.rep.Xact.Faults++
		recovered := false
		for r := 0; r < xactRetryLimit; r++ {
			in.rep.Xact.Retries++
			if in.next()%100 < xactRetrySuccessPct {
				recovered = true
				break
			}
		}
		if recovered {
			in.rep.Xact.Corrected++
		} else {
			in.rep.Xact.DUE++
		}
	}
}
