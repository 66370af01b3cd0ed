// Package fanout runs independent jobs over all cores and gathers
// their results in a deterministic order.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Run runs job(0), …, job(n-1) on up to GOMAXPROCS goroutines and
// returns their results in index order. Every job runs, and the error
// returned is the lowest-index failing job's, so neither the results
// nor the error depend on scheduling: a caller that combines the
// results in index order produces the same output at any GOMAXPROCS.
func Run[T any](n int, job func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				out[i], errs[i] = job(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
