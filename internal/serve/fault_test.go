package serve

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachewrite/internal/vfs"
	"cachewrite/internal/workload"
)

// fakeClock is an injectable wall clock for the breaker cooldown tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestBreakerShedsAfterStorageFaultJobs drives the per-tenant circuit
// breaker end to end: a filesystem that eats every checkpoint read
// makes the tenant's jobs die on storage faults; after breakerThreshold
// of them the tenant's submits are shed with an honest Retry-After,
// and a clean probe job after the cooldown closes the breaker again.
func TestBreakerShedsAfterStorageFaultJobs(t *testing.T) {
	clk := newFakeClock()
	faulty := vfs.NewFaulty(vfs.NewMem(), vfs.Plan{})
	s := newTestServer(t, func(c *Config) {
		c.StateDir = "/state"
		c.FS = faulty
		c.Now = clk.Now
	})
	stop := startRun(t, s)
	defer stop()

	// From here on every read fails with EIO: the sweep checkpoint
	// Load at the start of each workload dies on a storage fault.
	faulty.Reset(vfs.Plan{Seed: 1, Rate: 1, Kinds: vfs.KindReadEIO})

	for i := 0; i < breakerThreshold; i++ {
		st := mustSubmit(t, s, testSpec("tenant-a", ""))
		st = awaitTerminal(t, s, st.ID)
		if st.State != StateFailed {
			t.Fatalf("job %d: state = %s (error %q), want failed", i, st.State, st.Error)
		}
		if len(st.Failures) == 0 || !st.Failures[0].Storage {
			t.Fatalf("job %d: failures %+v should be classified as storage faults", i, st.Failures)
		}
	}
	if m := s.MetricsSnapshot(); m.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d, want 1 after %d storage-fault jobs", m.BreakerOpens, breakerThreshold)
	}

	// The breaker is open: tenant-a is shed with the remaining cooldown.
	_, rej, err := s.Submit(testSpec("tenant-a", ""))
	if err != nil || rej == nil {
		t.Fatalf("open breaker should shed: rej=%v err=%v", rej, err)
	}
	if !strings.Contains(rej.Reason, "circuit breaker") {
		t.Errorf("reason %q should name the breaker", rej.Reason)
	}
	if rej.RetryAfterMs != breakerCooldown.Milliseconds() {
		t.Errorf("RetryAfterMs = %d, want the honest remaining cooldown %d",
			rej.RetryAfterMs, breakerCooldown.Milliseconds())
	}
	if m := s.MetricsSnapshot(); m.RejectedBreaker != 1 {
		t.Errorf("RejectedBreaker = %d, want 1", m.RejectedBreaker)
	}
	// Other tenants are unaffected: the breaker is per tenant. (The job
	// will fail on the same disk, but it is admitted.)
	st := mustSubmit(t, s, testSpec("tenant-b", ""))
	awaitTerminal(t, s, st.ID)

	// Cooldown over and the disk healed: the probe job runs clean and
	// closes the breaker.
	clk.Advance(breakerCooldown + time.Second)
	faulty.Reset(vfs.Plan{})
	st = mustSubmit(t, s, testSpec("tenant-a", ""))
	st = awaitTerminal(t, s, st.ID)
	if st.State != StateDone {
		t.Fatalf("probe job state = %s (error %q), want done", st.State, st.Error)
	}
	mustSubmit(t, s, testSpec("tenant-a", ""))
}

// TestBreakerHalfOpenProbeRace hammers the breaker's half-open
// transition from many goroutines at once (meaningful under -race):
// after the cooldown expires, concurrent submits race to clear
// openUntil, and none of them may be shed with a stale breaker
// rejection. A storage-fault probe outcome then reopens the breaker
// immediately for the next submit.
func TestBreakerHalfOpenProbeRace(t *testing.T) {
	clk := newFakeClock()
	s := newTestServer(t, func(c *Config) {
		c.StateDir = "/state"
		c.FS = vfs.NewMem()
		c.Now = clk.Now
	})

	// breakerThreshold storage-fault jobs trip the breaker.
	s.mu.Lock()
	for i := 0; i < breakerThreshold; i++ {
		s.recordJobStorageOutcomeLocked("tenant-a", true)
	}
	s.mu.Unlock()
	if _, rej, err := s.Submit(testSpec("tenant-a", "")); err != nil || rej == nil {
		t.Fatalf("open breaker should shed: rej=%v err=%v", rej, err)
	}

	// Cooldown over: half-open. Race the probe slot with as many
	// contenders as the per-tenant cap admits — every one must see the
	// expired cooldown, none may observe a torn breaker state.
	clk.Advance(breakerCooldown + time.Second)
	contenders := s.cfg.PerTenant
	var admitted, shedBreaker, shedOther atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < contenders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, rej, err := s.Submit(testSpec("tenant-a", ""))
			switch {
			case err != nil:
				t.Errorf("Submit: %v", err)
			case rej == nil && st.ID != "":
				admitted.Add(1)
			case rej != nil && strings.Contains(rej.Reason, "circuit breaker"):
				shedBreaker.Add(1)
			default:
				shedOther.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := shedBreaker.Load(); n != 0 {
		t.Errorf("%d submit(s) shed by a breaker whose cooldown had expired", n)
	}
	if n := admitted.Load(); n != int64(contenders) {
		t.Errorf("admitted = %d, want all %d half-open submits (other rejections: %d)",
			n, contenders, shedOther.Load())
	}

	// The probe died on another storage fault: the breaker reopens at
	// once, ahead of the queue and tenant caps in the submit path.
	s.mu.Lock()
	s.recordJobStorageOutcomeLocked("tenant-a", true)
	s.mu.Unlock()
	_, rej, err := s.Submit(testSpec("tenant-a", ""))
	if err != nil || rej == nil || !strings.Contains(rej.Reason, "circuit breaker") {
		t.Fatalf("storage-fault probe must reopen the breaker: rej=%+v err=%v", rej, err)
	}

	// A clean probe closes it: the tenant's submits flow again (here the
	// tenant cap rejects, which proves the breaker no longer does).
	s.mu.Lock()
	s.recordJobStorageOutcomeLocked("tenant-a", false)
	s.mu.Unlock()
	_, rej, err = s.Submit(testSpec("tenant-a", ""))
	if err != nil || rej == nil || strings.Contains(rej.Reason, "circuit breaker") {
		t.Fatalf("clean probe must close the breaker: rej=%+v err=%v", rej, err)
	}
}

// TestAckedJobSurvivesPowerCut is the serve half of the ack contract: a
// job the client saw admitted (Submit returned, i.e. the 202 was
// writable) survives a power cut — its record is saved and fsynced
// before it is visible. A power cut at every write boundary of one
// Submit leaves that job either absent with the submit shed, or present
// and queued: never torn, and never at the cost of an earlier job.
func TestAckedJobSurvivesPowerCut(t *testing.T) {
	spec := testSpec("tenant-a", "req-2")
	// submitCut admits one job cleanly, then submits spec under plan and
	// cuts the power.
	submitCut := func(plan vfs.Plan) (cfg Config, rej *Rejection, ops int) {
		mem := vfs.NewMem()
		faulty := vfs.NewFaulty(mem, vfs.Plan{})
		cfg = testConfig(t)
		cfg.StateDir = "/state"
		cfg.FS = faulty
		s1, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		mustSubmit(t, s1, testSpec("tenant-a", "req-1"))
		faulty.Reset(plan)
		_, rej, err = s1.Submit(spec)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		mem.Crash()
		cfg.FS = mem
		return cfg, rej, faulty.Ops()
	}
	_, rej, n := submitCut(vfs.Plan{})
	if rej != nil {
		t.Fatalf("probe Submit shed: %s", rej.Reason)
	}
	// op n+1 is past the Submit: the plain acked-then-power-cut case.
	for op := 1; op <= n+1; op++ {
		t.Run(fmt.Sprintf("crash-at-op-%d", op), func(t *testing.T) {
			cfg, rej, _ := submitCut(vfs.Plan{CrashAtOp: op})
			s2, err := New(cfg)
			if err != nil {
				t.Fatalf("New after crash: %v", err)
			}
			if _, ok := s2.Job("j000001"); !ok {
				t.Fatalf("earlier acked job j000001 lost")
			}
			st, present := s2.Job("j000002")
			switch {
			case rej == nil && !present:
				t.Fatalf("acked job j000002 lost across power cut")
			case rej == nil && st.State != StateQueued:
				t.Fatalf("resumed job state = %s, want queued", st.State)
			case rej != nil && present:
				t.Fatalf("shed submit (%s) left job j000002 behind", rej.Reason)
			}
			want := int64(1)
			if present {
				want = 2
			}
			if m := s2.MetricsSnapshot(); m.JobsResumed != want {
				t.Errorf("JobsResumed = %d, want %d", m.JobsResumed, want)
			}
			// A client retry lands on j000002 either way: deduplicated
			// onto the acked job, or admitted afresh under the id the
			// shed submit gave back.
			if again := mustSubmit(t, s2, spec); again.ID != "j000002" {
				t.Errorf("retry got %s, want j000002", again.ID)
			}
		})
	}
}

// TestStatuszSurfacesStoreDegraded: trace-cache stores downgraded by a
// full disk show up in the server's statusz counters, and the job that
// hit them still completes (degrade, don't fail).
func TestStatuszSurfacesStoreDegraded(t *testing.T) {
	oldFS := workload.FS
	workload.FS = vfs.NewFaulty(vfs.OS{}, vfs.Plan{Seed: 1, Rate: 1, Kinds: vfs.KindENOSPC})
	t.Cleanup(func() { workload.FS = oldFS })

	s := newTestServer(t, func(c *Config) { c.TraceDir = t.TempDir() })
	before := s.MetricsSnapshot().StoreDegraded
	stop := startRun(t, s)
	defer stop()

	st := mustSubmit(t, s, testSpec("tenant-a", ""))
	st = awaitTerminal(t, s, st.ID)
	if st.State != StateDone {
		t.Fatalf("state = %s (error %q): a failing trace cache must degrade, not fail the job", st.State, st.Error)
	}
	if after := s.MetricsSnapshot().StoreDegraded; after <= before {
		t.Errorf("StoreDegraded = %d -> %d, want an increase", before, after)
	}
}

// TestRemoveCkptsReapsTerminalJobs: a terminal job's sweep
// checkpoints are reaped, whether its workloads succeeded or failed —
// no later job reads them, since a resubmission gets a new id.
func TestRemoveCkptsReapsTerminalJobs(t *testing.T) {
	mem := vfs.NewMem()
	s := newTestServer(t, func(c *Config) {
		c.StateDir = "/state"
		c.FS = mem
	})

	plant := func(j *job) {
		for ti := range j.Spec.Workloads {
			f, err := mem.CreateTemp("/state/sweeps", "ckpt")
			if err != nil {
				t.Fatalf("CreateTemp: %v", err)
			}
			f.Close()
			if err := mem.Rename(f.Name(), s.ckptPath(j.ID, ti)); err != nil {
				t.Fatalf("Rename: %v", err)
			}
		}
	}
	exists := func(p string) bool { _, err := mem.Stat(p); return err == nil }

	clean := &job{ID: "j000001", Spec: testSpec("tenant-a", "")}
	failed := &job{
		ID:       "j000002",
		Spec:     testSpec("tenant-a", ""),
		Failures: []Failure{{Workload: "liver", Error: "sweep: unit liver#0/cfgs[0:8]: boom"}},
	}
	for _, j := range []*job{clean, failed} {
		plant(j)
		s.removeCkpts(j)
		if exists(s.ckptPath(j.ID, 0)) {
			t.Errorf("job %s: checkpoint should be reaped", j.ID)
		}
	}
}
