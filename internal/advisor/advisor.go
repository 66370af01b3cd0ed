// Package advisor turns the paper's findings into a recommendation:
// given a reference trace and a cache geometry, it evaluates the
// write-policy design space the paper maps out — write-through vs
// write-back, the four write-miss policies, and a write cache — and
// recommends a configuration with the measurements that justify it.
//
// The decision procedure follows the paper's §3.3 and §6 guidance:
//
//  1. Pick the write-miss policy by estimated CPI, which charges each
//     fetch-triggering miss (the latency-critical metric; Figs 13–16)
//     beside write-buffer and victim-buffer stalls. Write-validate
//     wins unless write-around saves additional read misses (the liver
//     case).
//  2. Pick write-back vs write-through by §3.3's criterion: prefer
//     write-through + write cache (parity suffices) unless write-back
//     at least halves the remaining write traffic.
//  3. Size the write cache at the knee of its curve.
package advisor

import (
	"fmt"
	"strings"

	"cachewrite/internal/cache"
	"cachewrite/internal/reuse"
	"cachewrite/internal/timing"
	"cachewrite/internal/trace"
)

// Request frames an advisory run.
type Request struct {
	// Size, LineSize, Assoc fix the cache geometry under study.
	Size, LineSize, Assoc int
	// FetchLatency feeds the CPI estimates; zero models a free fetch.
	FetchLatency int
}

// writeCacheMax bounds the write-cache sizing search.
const writeCacheMax = 16

// Advice is the recommendation with its supporting evidence.
type Advice struct {
	// WriteMiss is the recommended write-miss policy.
	WriteMiss cache.WriteMissPolicy
	// WriteHit is the recommended write-hit policy.
	WriteHit cache.WriteHitPolicy
	// WriteCacheEntries is the recommended write-cache size when
	// WriteHit is write-through (0 otherwise).
	WriteCacheEntries int

	// MissReduction is the chosen miss policy's total-miss reduction vs
	// fetch-on-write.
	MissReduction float64
	// CPI maps each write-miss policy to its estimated CPI.
	CPI map[cache.WriteMissPolicy]float64
	// WBTrafficCut and WCTrafficCut are the write-traffic fractions
	// removed by a write-back cache and by the sized write cache.
	WBTrafficCut, WCTrafficCut float64

	// Rationale is a human-readable justification.
	Rationale string
}

// Recommend runs the design-space evaluation on the trace.
func Recommend(req Request, t *trace.Trace) (Advice, error) {
	geom := cache.Config{Size: req.Size, LineSize: req.LineSize, Assoc: req.Assoc,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
	if err := geom.Validate(); err != nil {
		return Advice{}, fmt.Errorf("advisor: %w", err)
	}

	var adv Advice
	var why strings.Builder

	// Step 1: write-miss policy by estimated CPI. Each policy runs with
	// its paired write-hit policy; a configuration's fetch-triggering
	// misses do not depend on its write-hit policy (§4), so these four
	// runs also give the miss comparison.
	adv.CPI = make(map[cache.WriteMissPolicy]float64, 4)
	misses := make(map[cache.WriteMissPolicy]uint64, 4)
	best := cache.FetchOnWrite
	bestCPI := 0.0
	for _, p := range cache.WriteMissPolicies() {
		l1 := geom
		l1.WriteHit, l1.WriteMiss = p.PairedWriteHit(), p
		s, err := timing.Evaluate(timing.Config{
			L1:                  l1,
			FetchLatency:        req.FetchLatency,
			WriteBufferEntries:  4,
			WriteRetire:         req.FetchLatency / 2,
			VictimBufferEntries: 1,
			WritebackCycles:     req.FetchLatency / 2,
		}, t)
		if err != nil {
			return Advice{}, err
		}
		adv.CPI[p] = s.CPI()
		misses[p] = s.Cache.Misses()
		if p == cache.FetchOnWrite {
			// This run's L1 is geom, the write-back cache of step 2.
			adv.WBTrafficCut = s.Cache.WritesToDirtyFraction()
		}
		if bestCPI == 0 || s.CPI() < bestCPI {
			bestCPI = s.CPI()
			best = p
		}
	}
	adv.WriteMiss = best
	if fow := misses[cache.FetchOnWrite]; fow > 0 {
		adv.MissReduction = (float64(fow) - float64(misses[best])) / float64(fow)
	}
	fmt.Fprintf(&why, "%s minimizes estimated CPI (%.3f vs %.3f for fetch-on-write), removing %.0f%% of fetch-triggering misses.\n",
		best, adv.CPI[best], adv.CPI[cache.FetchOnWrite], 100*adv.MissReduction)

	// Step 2: write-back vs write-through + write cache (§3.3).
	entries, wcCut, err := sizeWriteCache(t)
	if err != nil {
		return Advice{}, err
	}
	adv.WCTrafficCut = wcCut

	remainWT := 1 - wcCut
	remainWB := 1 - adv.WBTrafficCut
	if remainWB > 0 && remainWT/remainWB >= 2 {
		adv.WriteHit = cache.WriteBack
		fmt.Fprintf(&why, "Write-back halves the write traffic remaining after a %d-entry write cache (%.0f%% vs %.0f%% removed): worth the ECC overhead (paper §3.3).\n",
			entries, 100*adv.WBTrafficCut, 100*wcCut)
	} else {
		adv.WriteHit = cache.WriteThrough
		adv.WriteCacheEntries = entries
		fmt.Fprintf(&why, "A %d-entry write cache removes %.0f%% of writes vs %.0f%% for write-back: keep write-through with byte parity (paper §3.3/§6).\n",
			entries, 100*wcCut, 100*adv.WBTrafficCut)
	}

	// Compatibility: no-allocate policies require write-through.
	if adv.WriteHit == cache.WriteBack && adv.WriteMiss.PairedWriteHit() == cache.WriteThrough {
		adv.WriteHit = cache.WriteThrough
		adv.WriteCacheEntries = entries
		fmt.Fprintf(&why, "(%s requires write-through; keeping the write cache.)\n", adv.WriteMiss)
	}
	adv.Rationale = why.String()
	return adv, nil
}

// sizeWriteCache finds the knee of the write-cache curve: the smallest
// entry count whose marginal gain drops below one percentage point.
func sizeWriteCache(t *trace.Trace) (entries int, removed float64, err error) {
	curve, err := reuse.WriteCacheCurve(t, 8, writeCacheMax)
	if err != nil {
		return 0, 0, err
	}
	prev := 0.0
	best := 0
	bestRemoved := 0.0
	for n := 1; n <= writeCacheMax; n++ {
		f := curve.RemovedFraction(n)
		if f-prev >= 0.01 {
			best = n
			bestRemoved = f
		}
		prev = f
	}
	if best == 0 {
		// Nothing coalesces (streaming writes): a single entry is the
		// honest minimum.
		best = 1
		bestRemoved = curve.RemovedFraction(1)
	}
	return best, bestRemoved, nil
}
