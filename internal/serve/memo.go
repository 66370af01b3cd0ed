package serve

import (
	"sync"

	"cachewrite/internal/cache"
)

// maxCells bounds the finished-cell memo: at about 300 B a cell, it
// holds at most about 5 MB.
const maxCells = 1 << 14

// cellKey names one simulated cell: a workload's trace at a scale, cut
// to the events actually simulated, under one cache configuration.
// Traces are generated deterministically, so equal keys mean equal
// stats.
type cellKey struct {
	workload string
	scale    int
	events   int
	cfg      cache.Config
}

// cellMemo holds the flushed stats of finished cells, so a job that
// asks for a cell this server already simulated reads it instead. It
// lives in memory only: a restarted server starts empty. When an
// insert finds it full it clears it and starts over, which keeps it
// free of any eviction order.
type cellMemo struct {
	mu    sync.Mutex
	limit int
	cells map[cellKey]cache.Stats
}

func newCellMemo(limit int) *cellMemo {
	return &cellMemo{limit: limit, cells: map[cellKey]cache.Stats{}}
}

// lookup fills stats[i] for every cfgs[i] the memo holds under k and
// returns the indexes of the rest, in order.
func (m *cellMemo) lookup(k cellKey, cfgs []cache.Config, stats []cache.Stats) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var missing []int
	for i, cfg := range cfgs {
		k.cfg = cfg
		st, ok := m.cells[k]
		if !ok {
			missing = append(missing, i)
			continue
		}
		stats[i] = st
	}
	return missing
}

// store files stats[i] as the cell of cfgs[i] under k.
func (m *cellMemo) store(k cellKey, cfgs []cache.Config, stats []cache.Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, cfg := range cfgs {
		k.cfg = cfg
		if _, ok := m.cells[k]; !ok && len(m.cells) >= m.limit {
			clear(m.cells)
		}
		m.cells[k] = stats[i]
	}
}
