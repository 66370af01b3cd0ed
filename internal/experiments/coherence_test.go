package experiments

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cachewrite/internal/cache"
	"cachewrite/internal/textplot"
	"cachewrite/internal/trace"
)

// renderID runs id on env and returns its text rendering.
func renderID(t *testing.T, env *Env, id string) string {
	t.Helper()
	res, err := Run(env, id)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return renderResult(res)
}

func renderResult(res Result) string {
	var b strings.Builder
	if res.Chart != nil {
		b.WriteString(textplot.RenderChart(res.Chart))
	}
	if res.Table != nil {
		b.WriteString(textplot.RenderTable(res.Table))
	}
	return b.String()
}

// sweepRuns is how many coherent runs one ext-coh sweep chart needs.
func sweepRuns(env *Env) uint64 {
	return uint64(len(cache.WriteMissPolicies()) * len(env.Traces) * len(cohDegrees))
}

// TestCohRunsComputedOnce: on one Env the three ext-coh experiments
// compact each trace once, ext-coh-traffic reuses every ext-coh-miss
// run, and ext-coh-schemes adds only its update and hybrid runs — while
// every rendering stays byte-identical to the experiment run alone.
func TestCohRunsComputedOnce(t *testing.T) {
	env := syntheticEnv()
	n := uint64(len(env.Traces))
	steps := []struct {
		id        string
		wantTotal uint64
	}{
		{"ext-coh-miss", sweepRuns(env)},
		{"ext-coh-traffic", sweepRuns(env)},
		{"ext-coh-schemes", sweepRuns(env) + 2*n},
	}
	for _, s := range steps {
		got := renderID(t, env, s.id)
		if sims := env.simulations.Load(); sims != s.wantTotal {
			t.Errorf("after %s: %d coherent simulations, want %d", s.id, sims, s.wantTotal)
		}
		if c := env.compactions.Load(); c != n {
			t.Errorf("after %s: %d compactions for %d traces", s.id, c, n)
		}
		if want := renderID(t, syntheticEnv(), s.id); got != want {
			t.Errorf("%s on a shared Env renders differently from a fresh Env", s.id)
		}
	}
	if env.Computes() != 0 {
		t.Errorf("coherence runs counted as %d cache simulations", env.Computes())
	}
}

// TestCohRunsConcurrent races ext-coh-miss and ext-coh-traffic on one
// Env (run under -race by `make check`): each run is still simulated
// once and both renderings match their solo runs.
func TestCohRunsConcurrent(t *testing.T) {
	env := syntheticEnv()
	ids := []string{"ext-coh-miss", "ext-coh-traffic"}
	got := make([]string, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Run(env, id)
			got[i], errs[i] = renderResult(res), err
		}()
	}
	wg.Wait()
	for i, id := range ids {
		if errs[i] != nil {
			t.Fatalf("%s: %v", id, errs[i])
		}
		if want := renderID(t, syntheticEnv(), id); got[i] != want {
			t.Errorf("%s raced on a shared Env renders differently from a fresh Env", id)
		}
	}
	if sims := env.simulations.Load(); sims != sweepRuns(env) {
		t.Errorf("%d coherent simulations, want %d", sims, sweepRuns(env))
	}
	if c := env.compactions.Load(); c != uint64(len(env.Traces)) {
		t.Errorf("%d compactions for %d traces", c, len(env.Traces))
	}
}

// TestCohWindowCollisionError: a trace occupying nine 16MB superblocks
// still spans nine after compaction, wider than the 128MB core window
// stride, so every multi-core workload collides. The pool must return
// that error (the first failing key's, deterministically), stop all
// its workers, and memoize the error for the next call.
func TestCohWindowCollisionError(t *testing.T) {
	tr := &trace.Trace{Name: "wide"}
	for sb := uint32(0); sb < 9; sb++ {
		for g := uint32(0); g < 64; g++ {
			tr.Append(trace.Event{Addr: sb<<24 | g*64, Size: 4, Gap: 1, Kind: trace.Write})
		}
	}
	env := NewEnvFromTraces([]*trace.Trace{tr})
	before := runtime.NumGoroutine()

	_, err := Run(env, "ext-coh-miss")
	if err == nil || !strings.Contains(err.Error(), "collide") {
		t.Fatalf("ext-coh-miss = %v, want a window-collision error", err)
	}
	if !strings.Contains(err.Error(), "wide x2:") {
		t.Errorf("error %q is not the first failing key's (2 cores)", err)
	}
	sims := env.simulations.Load()
	if want := uint64(len(cache.WriteMissPolicies())); sims != want {
		t.Errorf("%d coherent simulations, want %d (only the 1-core runs fit)", sims, want)
	}

	_, again := Run(env, "ext-coh-miss")
	if !errors.Is(again, err) {
		t.Errorf("second call returned %v, want the memoized %v", again, err)
	}
	if env.simulations.Load() != sims || env.compactions.Load() != 1 {
		t.Errorf("second call recomputed: %d simulations, %d compactions", env.simulations.Load(), env.compactions.Load())
	}

	// Workers call wg.Done as their last act, so they may still be
	// exiting when cohRuns returns; wait for them, bounded.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before, %d after: the pool leaked workers", before, after)
	}
}

// TestCohDensePrefixPinned: the memoized prefix is the full trace's
// compaction cut to cohMaxEvents. Compacting only the prefix is not
// equivalent when the suffix first touches a lower superblock: that
// superblock takes slot 0 and shifts every prefix address, so the
// shortcut would silently change every ext-coh number.
func TestCohDensePrefixPinned(t *testing.T) {
	tr := &trace.Trace{Name: "late-low"}
	for i := 0; i < cohMaxEvents+100; i++ {
		sb := uint32(5)
		if i >= cohMaxEvents {
			sb = 1
		}
		tr.Append(trace.Event{Addr: sb<<24 | uint32(i%4096)*8, Size: 8, Gap: 1, Kind: trace.Read})
	}
	env := NewEnvFromTraces([]*trace.Trace{tr})
	got, err := env.cohDense(0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := trace.CompactRegions(tr, 24)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Events, full.Events[:cohMaxEvents]) {
		t.Fatal("dense prefix differs from the full trace's compaction cut to cohMaxEvents")
	}
	short, err := trace.CompactRegions(tr.Slice(0, cohMaxEvents), 24)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(got.Events, short.Events) {
		t.Fatal("compacting only the prefix matched the full compaction; the test trace no longer pins the difference")
	}
}
