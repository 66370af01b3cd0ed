package serve

import (
	"reflect"
	"testing"

	"cachewrite/internal/cache"
)

// runSpec submits spec to a running server, requires it to end done,
// and returns its rows and how many cells it read from the memo.
func runSpec(t *testing.T, s *Server, spec JobSpec) ([]Row, int64) {
	t.Helper()
	before := s.MetricsSnapshot().CellsReused
	st := awaitTerminal(t, s, mustSubmit(t, s, spec).ID)
	if st.State != StateDone {
		t.Fatalf("job %s: state %s (error %q), want done", st.ID, st.State, st.Error)
	}
	if st.UnitsDone != st.UnitsTotal {
		t.Errorf("job %s: units %d/%d, want all", st.ID, st.UnitsDone, st.UnitsTotal)
	}
	return st.Results[0].Rows, s.MetricsSnapshot().CellsReused - before
}

// TestMemoRowsMatchCold: a job served wholly from the memo returns the
// rows a cold server computes for the same spec, and runs no unit.
func TestMemoRowsMatchCold(t *testing.T) {
	spec := testSpec("tenant-a", "")
	cold := newTestServer(t, nil)
	stopCold := startRun(t, cold)
	defer stopCold()
	want, _ := runSpec(t, cold, spec)

	s := newTestServer(t, nil)
	stop := startRun(t, s)
	defer stop()
	runSpec(t, s, spec)
	units := s.MetricsSnapshot().UnitsDone
	got, reused := runSpec(t, s, spec)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("memo-served rows differ from a cold server's:\n got  %+v\n want %+v", got, want)
	}
	if reused != int64(len(want)) {
		t.Errorf("cells_reused rose by %d, want all %d cells", reused, len(want))
	}
	if after := s.MetricsSnapshot().UnitsDone; after != units {
		t.Errorf("units_done %d -> %d: a memo-served job ran a sweep", units, after)
	}
}

// TestMemoReusesSharedCells: the memo keys a cell by workload, scale,
// the prefix actually simulated and the configuration, so a spec
// reuses exactly the cells it shares with what ran before.
func TestMemoReusesSharedCells(t *testing.T) {
	s := newTestServer(t, nil)
	stop := startRun(t, s)
	defer stop()
	base := testSpec("tenant-a", "")
	runSpec(t, s, base)

	events := base
	events.Events = testEvents / 2
	scale := base
	scale.Scale = 2
	// One write-miss policy changed: the two fow cells are shared, the
	// two wa cells are new.
	axis := base
	axis.WriteMisses = []string{"fow", "wa"}
	// liver is shorter than both caps, so both simulate the whole trace
	// and share its cell.
	full := base
	full.Events, full.Sizes, full.WriteMisses = 0, []int{4096}, []string{"fow"}
	whole := full
	whole.Events = 1_000_000

	for _, tc := range []struct {
		name string
		spec JobSpec
		want int64
	}{
		{"events", events, 0},
		{"scale", scale, 0},
		{"one axis", axis, 2},
		{"the same spec", base, 4},
		{"full trace", full, 0},
		{"full trace under a larger cap", whole, 1},
	} {
		rows, reused := runSpec(t, s, tc.spec)
		if reused != tc.want {
			t.Errorf("%s: cells_reused rose by %d, want %d", tc.name, reused, tc.want)
		}
		if want := golden(t, tc.spec); !reflect.DeepEqual(rows, want) {
			t.Errorf("%s: rows differ from golden", tc.name)
		}
	}
}

// TestMemoRacingWorkers: two job workers that take identical jobs at
// once may both simulate the cells; both jobs end done with identical
// rows. Meaningful under -race.
func TestMemoRacingWorkers(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.JobWorkers = 2 })
	a := mustSubmit(t, s, testSpec("tenant-a", ""))
	b := mustSubmit(t, s, testSpec("tenant-b", ""))
	stop := startRun(t, s)
	defer stop()
	want := golden(t, testSpec("tenant-a", ""))
	for _, id := range []string{a.ID, b.ID} {
		st := awaitTerminal(t, s, id)
		if st.State != StateDone {
			t.Fatalf("job %s: state %s (error %q), want done", id, st.State, st.Error)
		}
		if !reflect.DeepEqual(st.Results[0].Rows, want) {
			t.Errorf("job %s: rows differ from golden", id)
		}
	}
}

// TestCellMemoBound: the memo never holds more than its limit; an
// insert that finds it full clears it first, and re-filing a cell it
// holds clears nothing.
func TestCellMemoBound(t *testing.T) {
	const limit = 3
	m := newCellMemo(limit)
	cfg := func(i int) cache.Config { return cache.Config{Size: 1024 << i, LineSize: 16, Assoc: 1} }
	k := cellKey{workload: "liver", scale: 1, events: 100}
	for i := range 2 * limit {
		m.store(k, []cache.Config{cfg(i)}, []cache.Stats{{Reads: uint64(i)}})
		if n := len(m.cells); n > limit {
			t.Fatalf("after %d inserts the memo holds %d cells, limit %d", i+1, n, limit)
		}
	}
	// Inserts 0-2 filled it, insert 3 cleared it, 3-5 fill it again.
	if n := len(m.cells); n != limit {
		t.Fatalf("memo holds %d cells, want %d", n, limit)
	}
	m.store(k, []cache.Config{cfg(5)}, []cache.Stats{{Reads: 5}})
	cfgs := []cache.Config{cfg(2), cfg(3), cfg(4), cfg(5)}
	stats := make([]cache.Stats, len(cfgs))
	if missing := m.lookup(k, cfgs, stats); !reflect.DeepEqual(missing, []int{0}) {
		t.Fatalf("lookup missed %v, want [0] (cells 0-2 were cleared)", missing)
	}
	for i, st := range stats[1:] {
		if want := uint64(i + 3); st.Reads != want {
			t.Errorf("cell %d: Reads %d, want %d", i+3, st.Reads, want)
		}
	}
}
