package experiments

import (
	"fmt"

	"cachewrite/internal/burst"
	"cachewrite/internal/bus"
	"cachewrite/internal/cache"
	"cachewrite/internal/fanout"
	"cachewrite/internal/faults"
	"cachewrite/internal/hierarchy"
	"cachewrite/internal/reuse"
	"cachewrite/internal/stats"
	"cachewrite/internal/synth"
	"cachewrite/internal/timing"
	"cachewrite/internal/writebuffer"
	"cachewrite/internal/writecache"
)

func init() {
	register("ext-cpi", "EXTENSION: store-pipeline CPI breakdown per organization (quantifies Table 2's cycles-per-write row)", 300, extCPI)
	register("ext-burst", "EXTENSION: burstiness of writes and dirty victims (the study §5.2 calls for)", 310, extBurst)
	register("ext-victim", "EXTENSION: write cache with victim-cache functionality (§3.2's merged structure)", 320, extVictim)
	register("ext-perf", "EXTENSION: timing model — CPI per write-miss policy (the latency view of Figs 13-16)", 330, extPerf)
	register("ext-reuse", "EXTENSION: write reuse-distance profile — analytical prediction of Figs 1-2", 340, extReuse)
	register("ext-bus", "EXTENSION: back-side port occupancy and write/fetch bandwidth ratio (§5.2's sizing question)", 350, extBus)
	register("ext-faults", "EXTENSION: fault injection — the §3 parity-vs-ECC error-tolerance argument, measured", 360, extFaults)
	register("ext-switch", "EXTENSION: context-switch (multiprogramming) impact on write locality", 370, extSwitch)
	register("ext-warm", "EXTENSION: cold-stop vs flush-stop vs Emer warm-start accounting (§5 methodology)", 380, extWarm)
	register("ext-l2policy", "EXTENSION: second-level write policies (the Przybylski gap §1 notes)", 390, extL2Policy)
}

// extCPI evaluates the three store-pipeline organizations of §3/Fig 3
// on every benchmark: miss stalls, store interlocks, delayed-write
// drains and write-buffer stalls, composed into CPI.
func extCPI(e *Env) (Result, error) {
	tbl := &stats.Table{ID: "ext-cpi",
		Title:   "Store pipeline organizations: CPI breakdown (miss penalty 10, write buffer 8x16B, retire 8)",
		Columns: []string{"benchmark", "organization", "store cost (cyc/store)", "interlock CPI", "wbuf CPI", "miss CPI", "total CPI"},
	}
	wbuf := writebuffer.Config{Entries: 8, LineSize: 16, RetireInterval: 8}
	orgs := timing.Organizations()
	return fillTable(tbl, len(e.Traces)*len(orgs), func(i int) ([]string, error) {
		t, org := e.Traces[i/len(orgs)], orgs[i%len(orgs)]
		cc := stdConfig(StdCacheSize, StdLineSize)
		if org == timing.DirectMappedWriteThrough {
			cc.WriteHit = cache.WriteThrough
		}
		s, err := timing.Evaluate(timing.Config{L1: cc, Org: org, FetchLatency: 10}, t)
		if err != nil {
			return nil, err
		}
		if org == timing.DirectMappedWriteThrough {
			// The wbuf column is Fig 5's coalescing buffer run as fig5
			// runs it, on its own instruction clock, blind to miss
			// stalls. That makes it an upper bound: on the cycle model's
			// clock, where misses give the buffer time to drain, met and
			// liver read 0.0000.
			b, err := writebuffer.New(wbuf)
			if err != nil {
				return nil, err
			}
			b.Run(t)
			stall := b.Stats().StallCycles
			s.WriteBufferStalls += stall
			s.Cycles += stall
		}
		inst := float64(s.Instructions)
		return []string{t.Name, org.String(),
			fmt.Sprintf("%.3f", s.StoreCost()),
			fmt.Sprintf("%.4f", float64(s.InterlockStalls+s.DrainStalls)/inst),
			fmt.Sprintf("%.4f", float64(s.WriteBufferStalls)/inst),
			fmt.Sprintf("%.4f", float64(s.ReadMissStalls+s.WriteMissStalls)/inst),
			fmt.Sprintf("%.3f", s.CPI())}, nil
	})
}

// fillTable fans row(0), …, row(n-1) out with fanout.Run and returns tbl
// with the rows added in index order.
func fillTable(tbl *stats.Table, n int, row func(i int) ([]string, error)) (Result, error) {
	rows, err := fanout.Run(n, row)
	if err != nil {
		return Result{}, err
	}
	for _, r := range rows {
		tbl.AddRow(r...)
	}
	return Result{Table: tbl}, nil
}

// extBurst measures write and dirty-victim burstiness per benchmark at
// the paper's standard geometry — the quantitative answer to §5.2's
// closing question about write-back port sizing.
func extBurst(e *Env) (Result, error) {
	tbl := &stats.Table{ID: "ext-burst",
		Title:   "Burstiness of writes and dirty victims (8KB/16B WB cache; gap 2, window 64 instructions)",
		Columns: []string{"benchmark", "writes", "max write burst", "write peak/avg", "dirty victims", "max victim burst", "victim peak/avg", "victim buffer depth"},
	}
	return fillTable(tbl, len(e.Traces), func(ti int) ([]string, error) {
		t := e.Traces[ti]
		wr, err := burst.AnalyzeWrites(t, 2, 64)
		if err != nil {
			return nil, err
		}
		vr, err := burst.AnalyzeVictims(t, stdConfig(StdCacheSize, StdLineSize), 2, 64)
		if err != nil {
			return nil, err
		}
		return []string{t.Name,
			fmt.Sprint(wr.Writes),
			fmt.Sprint(wr.MaxBurst),
			fmt.Sprintf("%.1f", wr.PeakToAvg()),
			fmt.Sprint(vr.DirtyVictims),
			fmt.Sprint(vr.MaxBurst),
			fmt.Sprintf("%.1f", vr.PeakToAvg()),
			fmt.Sprint(vr.MaxPending)}, nil
	})
}

// extVictim measures the merged write/victim cache (§3.2's closing
// remark, Fig 6): per benchmark, how many L1 refills the victim-mode
// write cache captures and how much L1->L2 traffic that saves relative
// to the plain write-cache configuration.
func extVictim(e *Env) (Result, error) {
	tbl := &stats.Table{ID: "ext-victim",
		Title:   "Write cache with victim-cache functionality (8KB/16B WT L1, 8-entry write cache with 16B lines)",
		Columns: []string{"benchmark", "L1 fetches", "victim hits", "hit rate", "L1->L2 tx (plain)", "L1->L2 tx (victim)", "traffic saved"},
	}
	return fillTable(tbl, len(e.Traces), func(ti int) ([]string, error) {
		t := e.Traces[ti]
		l1 := stdConfig(StdCacheSize, StdLineSize)
		l1.WriteHit = cache.WriteThrough
		wc := &writecache.Config{Entries: 8, LineSize: StdLineSize}

		plain, err := hierarchy.New(hierarchy.Config{L1: l1, WriteCache: wc})
		if err != nil {
			return nil, err
		}
		plain.AccessTrace(t)

		victim, err := hierarchy.New(hierarchy.Config{L1: l1, WriteCache: wc, VictimMode: true})
		if err != nil {
			return nil, err
		}
		victim.AccessTrace(t)

		pTx := plain.Stats().L1ToL2Transactions
		vTx := victim.Stats().L1ToL2Transactions
		fetches := victim.L1().Stats().Fetches
		hits := victim.Stats().VictimHits
		saved := 0.0
		if pTx > 0 {
			saved = 1 - float64(vTx)/float64(pTx)
		}
		hitRate := 0.0
		if fetches > 0 {
			hitRate = float64(hits) / float64(fetches)
		}
		return []string{t.Name,
			fmt.Sprint(fetches),
			fmt.Sprint(hits),
			stats.FmtPct(hitRate),
			fmt.Sprint(pTx),
			fmt.Sprint(vTx),
			stats.FmtPct(saved)}, nil
	})
}

// extPerf runs the timing model: estimated CPI per write-miss policy on
// every benchmark — the latency consequence of the taxonomy, which the
// miss-count figures (13-16) can only imply. Latencies: 10-cycle
// fetch, 6-cycle write retire/write-back, 4-entry write buffer,
// 1-entry dirty-victim buffer.
func extPerf(e *Env) (Result, error) {
	tbl := &stats.Table{ID: "ext-perf",
		Title:   "Timing model: CPI per write-miss policy (8KB/16B L1, 10-cycle fetch)",
		Columns: []string{"benchmark", "fetch-on-write", "write-validate", "write-around", "write-invalidate", "WV speedup"},
	}
	order := []cache.WriteMissPolicy{cache.FetchOnWrite, cache.WriteValidate, cache.WriteAround, cache.WriteInvalidate}
	return fillTable(tbl, len(e.Traces), func(ti int) ([]string, error) {
		row := []string{e.Traces[ti].Name}
		var fow, wv float64
		for _, p := range order {
			cfg := timing.Config{
				L1:                  policyConfig(StdCacheSize, StdLineSize, p),
				FetchLatency:        10,
				WriteBufferEntries:  4,
				WriteRetire:         6,
				VictimBufferEntries: 1,
				WritebackCycles:     6,
			}
			s, err := timing.Evaluate(cfg, e.Traces[ti])
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.3f", s.CPI()))
			switch p {
			case cache.FetchOnWrite:
				fow = s.CPI()
			case cache.WriteValidate:
				wv = s.CPI()
			}
		}
		return append(row, fmt.Sprintf("%.2fx", fow/wv)), nil
	})
}

// extReuse profiles write reuse distances (the analytical counterpart
// of Figs 1-2): one pass predicts the writes-to-dirty fraction of a
// fully-associative LRU cache at every capacity; comparing with the
// measured direct-mapped values isolates how much mapping conflicts
// cost each benchmark.
func extReuse(e *Env) (Result, error) {
	tbl := &stats.Table{ID: "ext-reuse",
		Title:   "Write reuse-distance profile (16B lines): predicted fully-associative vs measured direct-mapped writes-to-dirty",
		Columns: []string{"benchmark", "cold writes", "mean depth", "pred 1KB", "meas 1KB", "pred 8KB", "meas 8KB", "pred 64KB", "meas 64KB"},
	}
	return fillTable(tbl, len(e.Traces), func(ti int) ([]string, error) {
		t := e.Traces[ti]
		p, err := reuse.Analyze(t, StdLineSize)
		if err != nil {
			return nil, err
		}
		row := []string{t.Name,
			stats.FmtPct(float64(p.Cold) / float64(p.Writes)),
			fmt.Sprintf("%.0f", p.MeanDepth()),
		}
		for _, size := range []int{1 << 10, 8 << 10, 64 << 10} {
			lines := size / StdLineSize
			cs, err := e.CacheStats(ti, stdConfig(size, StdLineSize))
			if err != nil {
				return nil, err
			}
			row = append(row,
				stats.FmtPct(p.PredictDirtyFraction(lines)),
				stats.FmtPct(cs.WritesToDirtyFraction()))
		}
		return row, nil
	})
}

// extBus answers §5.2's port-sizing questions with the bus model: the
// write-direction bandwidth requirement relative to the fetch
// direction (the paper's "about half"), and how much sub-block dirty
// bits shrink it, per benchmark at the standard geometry with an
// 8-byte port.
func extBus(e *Env) (Result, error) {
	tbl := &stats.Table{ID: "ext-bus",
		Title:   "Back-side port occupancy (8B port, 1-cycle overhead; 8KB/16B write-back L1)",
		Columns: []string{"benchmark", "fetch cyc/instr", "write cyc/instr", "write/fetch", "write/fetch (sub-block)"},
	}
	var ratios, subRatios float64
	for ti, t := range e.Traces {
		cc := stdConfig(StdCacheSize, StdLineSize)
		cs, err := e.CacheStats(ti, cc)
		if err != nil {
			return Result{}, err
		}
		full, err := bus.FromStats(bus.Config{WidthBytes: 8, OverheadCycles: 1}, cc, cs)
		if err != nil {
			return Result{}, err
		}
		sub, err := bus.FromStats(bus.Config{WidthBytes: 8, OverheadCycles: 1, SubblockWriteback: true}, cc, cs)
		if err != nil {
			return Result{}, err
		}
		ratios += full.WriteToFetchRatio()
		subRatios += sub.WriteToFetchRatio()
		tbl.AddRow(t.Name,
			fmt.Sprintf("%.4f", full.FetchPerInstr()),
			fmt.Sprintf("%.4f", full.WritePerInstr()),
			fmt.Sprintf("%.2f", full.WriteToFetchRatio()),
			fmt.Sprintf("%.2f", sub.WriteToFetchRatio()))
	}
	n := float64(len(e.Traces))
	tbl.AddRow("average", "", "", fmt.Sprintf("%.2f", ratios/n), fmt.Sprintf("%.2f", subRatios/n))
	return Result{Table: tbl}, nil
}

// extFaults quantifies §3's error-tolerance dimension by injecting
// single-bit upsets during trace replay: write-through + byte parity
// recovers everything by refetch; write-back + parity loses dirty
// data; write-back + ECC corrects singles but still loses dirty
// double-bit words — at 50% more check-bit overhead.
func extFaults(e *Env) (Result, error) {
	tbl := &stats.Table{ID: "ext-faults",
		Title:   "Fault injection (one upset per 200 accesses, 8KB/16B): recovery by organization",
		Columns: []string{"benchmark", "WT+parity losses", "WB+parity losses", "WB+ECC losses", "WB+ECC corrected", "injected (WB)"},
	}
	return fillTable(tbl, len(e.Traces), func(ti int) ([]string, error) {
		t := e.Traces[ti]
		// Only the L1 is struck, with no other level behind it.
		inject := func(c cache.Config, s faults.Scheme) (faults.LayerReport, error) {
			rep, err := faults.InjectHierarchy(faults.HierarchyConfig{
				Hierarchy:  hierarchy.Config{L1: c},
				Layers:     []faults.Layer{faults.LayerL1},
				Schemes:    [faults.NumLayers]faults.Scheme{faults.LayerL1: s},
				ErrorEvery: 200,
			}, t)
			return rep.Layer(faults.LayerL1), err
		}
		wt := stdConfig(StdCacheSize, StdLineSize)
		wt.WriteHit = cache.WriteThrough
		wb := stdConfig(StdCacheSize, StdLineSize)

		wtRep, err := inject(wt, faults.ByteParity)
		if err != nil {
			return nil, err
		}
		wbPar, err := inject(wb, faults.ByteParity)
		if err != nil {
			return nil, err
		}
		wbECC, err := inject(wb, faults.WordSECECC)
		if err != nil {
			return nil, err
		}
		return []string{t.Name,
			fmt.Sprint(wtRep.DUE + wtRep.SDC),
			fmt.Sprint(wbPar.DUE + wbPar.SDC),
			fmt.Sprint(wbECC.DUE + wbECC.SDC),
			fmt.Sprint(wbECC.CorrectedInPlace),
			fmt.Sprint(wbECC.Injected)}, nil
	})
}

// extSwitch measures the effect of multiprogramming context switches
// (explicitly outside the paper's scope, §2) on the paper's central
// write-hit metric: the six benchmarks are round-robin interleaved at
// several quanta, and the writes-to-dirty fraction of the standard
// cache is compared with the benchmarks run in isolation.
func extSwitch(e *Env) (Result, error) {
	tbl := &stats.Table{ID: "ext-switch",
		Title:   "Context switching: writes-to-dirty % of the 8KB/16B write-back cache under round-robin multiprogramming",
		Columns: []string{"schedule", "writes to dirty lines", "miss rate"},
	}
	// Baseline: weighted aggregate of isolated runs.
	var agg cache.Stats
	for ti := range e.Traces {
		cs, err := e.CacheStats(ti, stdConfig(StdCacheSize, StdLineSize))
		if err != nil {
			return Result{}, err
		}
		agg.Add(cs)
	}
	tbl.AddRow("isolated (no switching)", stats.FmtPct(agg.WritesToDirtyFraction()), stats.FmtPct(agg.MissRate()))

	quanta := []uint64{100_000, 10_000, 1_000}
	return fillTable(tbl, len(quanta), func(i int) ([]string, error) {
		mixed, err := synth.RoundRobin("mix", quanta[i], e.Traces...)
		if err != nil {
			return nil, err
		}
		c, err := cache.New(stdConfig(StdCacheSize, StdLineSize))
		if err != nil {
			return nil, err
		}
		c.AccessTrace(mixed)
		s := c.Stats()
		return []string{fmt.Sprintf("quantum %d instructions", quanta[i]),
			stats.FmtPct(s.WritesToDirtyFraction()), stats.FmtPct(s.MissRate())}, nil
	})
}

// extWarm compares the three §5 methodologies for end-of-simulation
// write-back accounting side by side: cold stop, flush stop, and the
// warm start the paper attributes to Emer ("it is probably best if the
// same program is run twice. The first execution will give the final
// percentage of dirty lines remaining. The second execution can start
// with the percentage of dirty lines left by the first execution").
func extWarm(e *Env) (Result, error) {
	tbl := &stats.Table{ID: "ext-warm",
		Title:   "End-of-run accounting methodologies (64KB/16B WB, where cold-stop distortion bites): % victims dirty",
		Columns: []string{"benchmark", "cold stop", "flush stop", "warm start", "resident dirty at end"},
	}
	// 64KB: large enough that several benchmarks end with most of their
	// writes still resident (the paper's liver/yacc anomaly).
	cfg := stdConfig(64<<10, StdLineSize)
	lines := cfg.Size / cfg.LineSize
	return fillTable(tbl, len(e.Traces), func(ti int) ([]string, error) {
		t := e.Traces[ti]
		// First run: measure the residual state.
		first, err := cache.New(cfg)
		if err != nil {
			return nil, err
		}
		first.AccessTrace(t)
		fracValid := float64(first.ResidentLines()) / float64(lines)
		fracDirty := 0.0
		if first.ResidentLines() > 0 {
			fracDirty = float64(first.DirtyLines()) / float64(first.ResidentLines())
		}
		s1 := first.Stats()
		first.Flush()
		flushed := first.Stats()

		// Second run: seeded with the first run's residual fractions.
		second, err := cache.New(cfg)
		if err != nil {
			return nil, err
		}
		if err := second.SeedDirty(fracValid, fracDirty, 0x3a11); err != nil {
			return nil, err
		}
		second.AccessTrace(t)
		warm := second.Stats()

		return []string{t.Name,
			stats.FmtPct(s1.DirtyVictimFraction()),
			stats.FmtPct(flushed.DirtyVictimFractionFlushed()),
			stats.FmtPct(warm.DirtyVictimFraction()),
			stats.FmtPct(fracValid * fracDirty)}, nil
	})
}

// extL2Policy addresses the gap §1 notes in Przybylski's work ("only
// considers the case of write-back caches at all levels"): with the L1
// fixed at the paper's standard configuration, the L2's write policies
// are swept and the traffic into memory compared. Averaged over the
// benchmarks; 64KB 4-way 64B-line L2 (small enough that L2 write
// misses actually occur on returning L1 victims).
func extL2Policy(e *Env) (Result, error) {
	tbl := &stats.Table{ID: "ext-l2policy",
		Title:   "Second-level write policies (8KB/16B WB+FOW L1; 64KB/64B 4-way L2): average traffic per 1000 instructions",
		Columns: []string{"L2 policy", "L1->L2 tx", "L2->mem tx", "L2->mem bytes"},
	}
	type combo struct {
		name string
		hit  cache.WriteHitPolicy
		miss cache.WriteMissPolicy
	}
	combos := []combo{
		{"write-through + fetch-on-write", cache.WriteThrough, cache.FetchOnWrite},
		{"write-through + write-around", cache.WriteThrough, cache.WriteAround},
		{"write-back + fetch-on-write", cache.WriteBack, cache.FetchOnWrite},
		{"write-back + write-validate", cache.WriteBack, cache.WriteValidate},
	}
	type run struct {
		traffic hierarchy.Traffic
		instr   uint64
	}
	nt := len(e.Traces)
	runs, err := fanout.Run(len(combos)*nt, func(i int) (run, error) {
		cb := combos[i/nt]
		l2 := cache.Config{Size: 64 << 10, LineSize: 64, Assoc: 4,
			WriteHit: cb.hit, WriteMiss: cb.miss}
		h, err := hierarchy.New(hierarchy.Config{
			L1: stdConfig(StdCacheSize, StdLineSize),
			L2: &l2,
		})
		if err != nil {
			return run{}, err
		}
		h.AccessTrace(e.Traces[i%nt])
		h.Flush()
		return run{h.Stats().Traffic, h.L1().Stats().Instructions}, nil
	})
	if err != nil {
		return Result{}, err
	}
	for ci, cb := range combos {
		var l12, l2m, l2b, instr float64
		for _, r := range runs[ci*nt : (ci+1)*nt] {
			l12 += float64(r.traffic.L1ToL2Transactions)
			l2m += float64(r.traffic.L2ToMemTransactions)
			l2b += float64(r.traffic.L2ToMemBytes)
			instr += float64(r.instr)
		}
		k := instr / 1000
		tbl.AddRow(cb.name,
			fmt.Sprintf("%.2f", l12/k),
			fmt.Sprintf("%.2f", l2m/k),
			fmt.Sprintf("%.1f", l2b/k))
	}
	return Result{Table: tbl}, nil
}
