package experiments

import (
	"runtime"
	"sync"
	"testing"
)

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
	if got, want := env.curvesComputed.Load(), uint64(2*len(env.Traces)); got != want {
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
