package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFanOutOrderAndLowestError: results come back in index order, and
// when several jobs fail the error is the lowest index's even though a
// higher one fails first.
func TestFanOutOrderAndLowestError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	got, err := fanOut(50, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}

	var ran atomic.Int64
	_, err = fanOut(8, func(i int) (struct{}, error) {
		ran.Add(1)
		switch i {
		case 2:
			time.Sleep(50 * time.Millisecond)
			return struct{}{}, fmt.Errorf("job %d", i)
		case 3, 5:
			return struct{}{}, fmt.Errorf("job %d", i)
		}
		return struct{}{}, nil
	})
	if err == nil || err.Error() != "job 2" {
		t.Errorf("error %v, want job 2's", err)
	}
	if ran.Load() != 8 {
		t.Errorf("%d of 8 jobs ran", ran.Load())
	}

	if _, err := fanOut(0, func(int) (int, error) { return 0, errors.New("ran") }); err != nil {
		t.Errorf("zero jobs: %v", err)
	}
}

// TestWriteCacheCurvesComputedOnce: Figs 5, 7, 8 and 9 raced on one
// Env need one curve per trace at each of two line sizes (8B for Figs
// 7-9, 16B for Fig 5's reference), and each renders byte-identical to
// a fresh Env.
func TestWriteCacheCurvesComputedOnce(t *testing.T) {
	env := syntheticEnv()
	ids := []string{"fig7", "fig8", "fig9", "fig5"}
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
	if got, want := env.curves.computed.Load(), uint64(2*len(env.Traces)); got != want {
		t.Errorf("%d write-cache curves computed, want %d", got, want)
	}
}

// TestFanOutRendersIndependentOfGOMAXPROCS: every experiment that fans
// its runs out renders byte-identical on one core and on four.
func TestFanOutRendersIndependentOfGOMAXPROCS(t *testing.T) {
	ids := []string{"fig5", "fig7", "fig8", "fig9",
		"ext-cpi", "ext-burst", "ext-victim", "ext-perf", "ext-reuse",
		"ext-faults", "ext-switch", "ext-warm", "ext-l2policy",
		"ext-coh-miss", "ext-coh-traffic", "ext-coh-schemes"}
	render := func(procs int) map[string]string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		env := syntheticEnv()
		out := map[string]string{}
		for _, id := range ids {
			out[id] = renderID(t, env, id)
		}
		return out
	}
	one, four := render(1), render(4)
	for _, id := range ids {
		if one[id] != four[id] {
			t.Errorf("%s renders differently at GOMAXPROCS 1 and 4", id)
		}
	}
}
