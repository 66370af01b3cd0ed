package resilience

import (
	"sync"
	"sync/atomic"
	"time"
)

// Task is one watched unit of in-flight work. Workers call Beat as
// they make progress (every few thousand events is plenty); the
// watchdog's monitor declares the task stalled when the beat counter
// stops advancing for longer than the soft deadline. Beat is a single
// atomic add, safe for hot loops.
type Task struct {
	name  string
	beats atomic.Uint64

	// Monitor-goroutine state (no locking needed: one reader).
	lastBeats   uint64
	lastAdvance time.Time
	stalled     bool
}

// Beat records forward progress.
func (t *Task) Beat() { t.beats.Add(1) }

// Stall describes one stall episode observed by the watchdog.
type Stall struct {
	// Task is the stalled task's name.
	Task string
	// Idle is how long the task had made no progress when the stall
	// was declared.
	Idle time.Duration
}

// WatchdogConfig tunes a Watchdog.
type WatchdogConfig struct {
	// SoftDeadline is the maximum time a task may go without a beat
	// before it is reported stalled. Zero disables the watchdog
	// entirely (Begin returns tasks, but nothing monitors them).
	SoftDeadline time.Duration
	// Poll is the monitor wake-up interval (default SoftDeadline/4,
	// minimum 10ms).
	Poll time.Duration
	// OnStall, when non-nil, is called (from the monitor goroutine)
	// once per stall episode: when a task first exceeds the deadline,
	// and again only after it has resumed and stalled anew.
	OnStall func(Stall)
}

// Watchdog monitors the liveness of a pool of workers via heartbeat
// counters. It detects stalls — a worker stuck on one unit past its
// soft deadline — and surfaces them as structured events without
// killing anything: goroutines cannot be preempted, and a stall on an
// oversized unit is information, not necessarily failure.
type Watchdog struct {
	cfg    WatchdogConfig
	mu     sync.Mutex
	active map[*Task]struct{}
	stop   chan struct{}
	done   chan struct{}
}

// NewWatchdog starts a watchdog. Stop must be called to release its
// monitor goroutine; a zero SoftDeadline yields an inert watchdog with
// no goroutine at all.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	w := &Watchdog{cfg: cfg, active: make(map[*Task]struct{})}
	if cfg.SoftDeadline <= 0 {
		return w
	}
	if w.cfg.Poll <= 0 {
		w.cfg.Poll = cfg.SoftDeadline / 4
	}
	if w.cfg.Poll < 10*time.Millisecond {
		w.cfg.Poll = 10 * time.Millisecond
	}
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go w.monitor()
	return w
}

// Begin registers a unit of work under the given name and returns its
// heartbeat task. The caller must pair it with End.
func (w *Watchdog) Begin(name string) *Task {
	t := &Task{name: name, lastAdvance: time.Now()}
	w.mu.Lock()
	w.active[t] = struct{}{}
	w.mu.Unlock()
	return t
}

// End deregisters a finished unit.
func (w *Watchdog) End(t *Task) {
	w.mu.Lock()
	delete(w.active, t)
	w.mu.Unlock()
}

// Stop shuts the monitor down and waits for it to exit. Safe to call
// on an inert watchdog.
func (w *Watchdog) Stop() {
	if w.stop == nil {
		return
	}
	close(w.stop)
	<-w.done
}

// monitor compares each active task's beat counter against its value
// at the previous poll: a counter that has not advanced for longer
// than the soft deadline is a stall. Comparing counters in the monitor
// keeps time.Now out of the workers' beat path.
func (w *Watchdog) monitor() {
	defer close(w.done)
	ticker := time.NewTicker(w.cfg.Poll)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case now := <-ticker.C:
			w.mu.Lock()
			tasks := make([]*Task, 0, len(w.active))
			for t := range w.active {
				tasks = append(tasks, t)
			}
			w.mu.Unlock()
			for _, t := range tasks {
				beats := t.beats.Load()
				if beats != t.lastBeats {
					t.lastBeats = beats
					t.lastAdvance = now
					t.stalled = false
					continue
				}
				idle := now.Sub(t.lastAdvance)
				if idle >= w.cfg.SoftDeadline && !t.stalled {
					t.stalled = true
					if w.cfg.OnStall != nil {
						w.cfg.OnStall(Stall{Task: t.name, Idle: idle})
					}
				}
			}
		}
	}
}
