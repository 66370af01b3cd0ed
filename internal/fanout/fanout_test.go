package fanout

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunOrderAndLowestError: results come back in index order, and
// when several jobs fail the error is the lowest index's even though a
// higher one fails first.
func TestRunOrderAndLowestError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	got, err := Run(50, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}

	var ran atomic.Int64
	_, err = Run(8, func(i int) (struct{}, error) {
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

	if _, err := Run(0, func(int) (int, error) { return 0, errors.New("ran") }); err != nil {
		t.Errorf("zero jobs: %v", err)
	}
}
