// Package burst studies the burstiness of write traffic and of dirty
// victims. The paper raises both and quantifies neither: §3 compares
// the organizations' "ability to handle bursty writes" qualitatively,
// and §5.2 closes with "this section did not study the burstiness of
// dirty victims ... dirty victims are likely to be bursty as well.
// This would imply that the write back port bandwidth would need to be
// made wider than that required by the average bandwidth and/or that
// buffering to hold more than one dirty victim could be useful."
//
// AnalyzeWrites measures store bursts in the instruction stream;
// AnalyzeVictims replays the trace through a write-back cache and
// measures when dirty victims emerge. Both report peak-to-average
// bandwidth over fixed instruction windows — the number a designer
// needs to size the write-back port and the victim buffer.
package burst

import (
	"fmt"

	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
)

// Buckets bounds the burst-length histogram: lengths 1, 2, 3-4, 5-8,
// 9-16, 17+.
var bucketBounds = []int{1, 2, 4, 8, 16}

// BucketLabels returns the histogram bucket labels.
func BucketLabels() []string {
	return []string{"1", "2", "3-4", "5-8", "9-16", "17+"}
}

func bucketOf(n int) int {
	for i, hi := range bucketBounds {
		if n <= hi {
			return i
		}
	}
	return len(bucketBounds)
}

// WriteReport summarizes store burstiness.
type WriteReport struct {
	// Writes is the total store count.
	Writes uint64
	// Bursts histograms maximal store runs (consecutive stores separated
	// by fewer than GapThreshold instructions) by length.
	Bursts [6]uint64
	// MaxBurst is the longest store run observed.
	MaxBurst int
	// Window is the instruction window used for rate measurements.
	Window uint64
	// PeakRate and AvgRate are stores per instruction in the busiest
	// window and on average.
	PeakRate, AvgRate float64
}

// PeakToAvg returns the over-provisioning factor the write path needs
// to absorb the worst window without stalling.
func (r WriteReport) PeakToAvg() float64 {
	if r.AvgRate == 0 {
		return 0
	}
	return r.PeakRate / r.AvgRate
}

// AnalyzeWrites scans the trace for store bursts. gapThreshold is the
// maximum instruction spacing within a burst (2 captures back-to-back
// and one-gap stores, the register-save pattern §3 describes); window
// is the rate-measurement window in instructions.
func AnalyzeWrites(t *trace.Trace, gapThreshold, window uint64) (WriteReport, error) {
	if gapThreshold == 0 || window == 0 {
		return WriteReport{}, fmt.Errorf("burst: gapThreshold and window must be positive")
	}
	r := WriteReport{Window: window}
	var (
		now        uint64 // instruction clock
		lastWrite  uint64
		runLen     int
		haveRun    bool
		winStart   uint64
		winWrites  uint64
		totalInstr uint64
	)
	endRun := func() {
		if haveRun && runLen > 0 {
			r.Bursts[bucketOf(runLen)]++
			if runLen > r.MaxBurst {
				r.MaxBurst = runLen
			}
		}
		runLen = 0
		haveRun = false
	}
	for _, e := range t.Events {
		now += e.Instructions()
		if e.Kind != trace.Write {
			continue
		}
		r.Writes++
		if haveRun && now-lastWrite <= gapThreshold {
			runLen++
		} else {
			endRun()
			haveRun = true
			runLen = 1
		}
		lastWrite = now

		// Windowed rate.
		for now-winStart >= window {
			rate := float64(winWrites) / float64(window)
			if rate > r.PeakRate {
				r.PeakRate = rate
			}
			winStart += window
			winWrites = 0
		}
		winWrites++
	}
	endRun()
	totalInstr = now
	if totalInstr > 0 {
		r.AvgRate = float64(r.Writes) / float64(totalInstr)
	}
	if rate := float64(winWrites) / float64(window); rate > r.PeakRate {
		r.PeakRate = rate
	}
	return r, nil
}

// VictimReport summarizes dirty-victim burstiness at the back of a
// write-back cache.
type VictimReport struct {
	// DirtyVictims is the total write-back count during execution.
	DirtyVictims uint64
	// Bursts histograms runs of dirty victims emerging within
	// GapThreshold instructions of each other.
	Bursts [6]uint64
	// MaxBurst is the longest run.
	MaxBurst int
	// MaxPending is the maximum number of dirty victims produced within
	// one window — the victim buffer depth needed to avoid stalling the
	// refill path if the next level retires one victim per window.
	MaxPending uint64
	// Window, PeakRate, AvgRate as in WriteReport, for write-backs.
	Window            uint64
	PeakRate, AvgRate float64
}

// PeakToAvg returns the peak-to-average write-back bandwidth ratio.
func (r VictimReport) PeakToAvg() float64 {
	if r.AvgRate == 0 {
		return 0
	}
	return r.PeakRate / r.AvgRate
}

// victimCount is a cache.Backside that counts the dirty victims of the
// access in flight; AnalyzeVictims resets it before each Access.
type victimCount uint64

func (n *victimCount) FetchLine(uint32, int)          {}
func (n *victimCount) WritebackLine(uint32, int, int) { *n++ }
func (n *victimCount) WriteWord(uint32, uint8)        {}

// AnalyzeVictims replays the trace through a write-back fetch-on-write
// cache of the given geometry and measures when dirty victims emerge.
func AnalyzeVictims(t *trace.Trace, cfg cache.Config, gapThreshold, window uint64) (VictimReport, error) {
	if gapThreshold == 0 || window == 0 {
		return VictimReport{}, fmt.Errorf("burst: gapThreshold and window must be positive")
	}
	if cfg.WriteHit != cache.WriteBack {
		return VictimReport{}, fmt.Errorf("burst: victim analysis requires a write-back cache (got %s)", cfg.WriteHit)
	}
	c, err := cache.New(cfg)
	if err != nil {
		return VictimReport{}, err
	}
	var newWBs victimCount
	c.SetBackside(&newWBs)
	r := VictimReport{Window: window}
	var (
		now      uint64
		lastWB   uint64
		runLen   int
		haveRun  bool
		winStart uint64
		winWBs   uint64
	)
	endRun := func() {
		if haveRun && runLen > 0 {
			r.Bursts[bucketOf(runLen)]++
			if runLen > r.MaxBurst {
				r.MaxBurst = runLen
			}
		}
		runLen = 0
		haveRun = false
	}
	for _, e := range t.Events {
		now += e.Instructions()
		newWBs = 0
		c.Access(e)

		for now-winStart >= window {
			rate := float64(winWBs) / float64(window)
			if rate > r.PeakRate {
				r.PeakRate = rate
			}
			if winWBs > r.MaxPending {
				r.MaxPending = winWBs
			}
			winStart += window
			winWBs = 0
		}

		for i := victimCount(0); i < newWBs; i++ {
			r.DirtyVictims++
			winWBs++
			if haveRun && now-lastWB <= gapThreshold {
				runLen++
			} else {
				endRun()
				haveRun = true
				runLen = 1
			}
			lastWB = now
		}
	}
	endRun()
	if winWBs > r.MaxPending {
		r.MaxPending = winWBs
	}
	if rate := float64(winWBs) / float64(window); rate > r.PeakRate {
		r.PeakRate = rate
	}
	if now > 0 {
		r.AvgRate = float64(r.DirtyVictims) / float64(now)
	}
	return r, nil
}
