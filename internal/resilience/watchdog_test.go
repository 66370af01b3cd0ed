package resilience

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stallCounter counts the stall episodes a watchdog reports; onStall
// runs on the monitor goroutine.
type stallCounter struct{ n atomic.Uint64 }

func (c *stallCounter) onStall(Stall) { c.n.Add(1) }

func TestWatchdogDetectsStall(t *testing.T) {
	var mu sync.Mutex
	var stalls []Stall
	w := NewWatchdog(WatchdogConfig{
		SoftDeadline: 50 * time.Millisecond,
		Poll:         10 * time.Millisecond,
		OnStall: func(s Stall) {
			mu.Lock()
			stalls = append(stalls, s)
			mu.Unlock()
		},
	})
	defer w.Stop()

	task := w.Begin("stuck-unit")
	defer w.End(task)
	reported := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(stalls)
	}
	deadline := time.Now().Add(5 * time.Second)
	for reported() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never reported the silent task")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(stalls) == 0 || stalls[0].Task != "stuck-unit" || stalls[0].Idle < 50*time.Millisecond {
		t.Fatalf("stalls = %+v", stalls)
	}
}

func TestWatchdogBeatingTaskNeverStalls(t *testing.T) {
	var sc stallCounter
	w := NewWatchdog(WatchdogConfig{SoftDeadline: 40 * time.Millisecond, Poll: 10 * time.Millisecond, OnStall: sc.onStall})
	defer w.Stop()
	task := w.Begin("busy-unit")
	stop := time.After(200 * time.Millisecond)
	for {
		select {
		case <-stop:
			w.End(task)
			if n := sc.n.Load(); n != 0 {
				t.Fatalf("beating task reported %d stalls", n)
			}
			return
		default:
			task.Beat()
			time.Sleep(time.Millisecond)
		}
	}
}

// TestWatchdogStallEpisodes: a task that stalls, resumes, and stalls
// again is two episodes, not a report per poll.
func TestWatchdogStallEpisodes(t *testing.T) {
	var sc stallCounter
	w := NewWatchdog(WatchdogConfig{SoftDeadline: 30 * time.Millisecond, Poll: 10 * time.Millisecond, OnStall: sc.onStall})
	defer w.Stop()
	task := w.Begin("bursty-unit")
	defer w.End(task)

	waitStalls := func(want uint64) {
		deadline := time.Now().Add(5 * time.Second)
		for sc.n.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("stalls stuck at %d, want %d", sc.n.Load(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitStalls(1)
	// Resume: the episode must end, and staying silent again must open
	// exactly one more.
	for i := 0; i < 5; i++ {
		task.Beat()
		time.Sleep(15 * time.Millisecond)
	}
	waitStalls(2)
	if n := sc.n.Load(); n != 2 {
		t.Fatalf("stalls = %d, want 2", n)
	}
}

func TestWatchdogInertWhenDisabled(t *testing.T) {
	var sc stallCounter
	w := NewWatchdog(WatchdogConfig{OnStall: sc.onStall})
	task := w.Begin("unit")
	task.Beat()
	w.End(task)
	w.Stop() // must not hang: no monitor goroutine exists
	if sc.n.Load() != 0 {
		t.Fatal("inert watchdog reported stalls")
	}
}
