package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"cachewrite/internal/cache"
	"cachewrite/internal/sweep"
	"cachewrite/internal/vfs"
)

// Run processes jobs until ctx is cancelled, then drains: admissions
// close immediately (Submit starts shedding with a draining hint),
// running jobs get up to drainGrace to finish, stragglers are
// cancelled into their sweep checkpoints, and every job whose last
// record save failed is saved once more. Run returns nil on a clean
// drain; a killed process skips all of this and relies on the journals
// instead.
func (s *Server) Run(ctx context.Context) error {
	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.JobWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.runner(runCtx)
		}()
	}
	<-ctx.Done()

	s.mu.Lock()
	s.draining = true
	running := s.running
	s.mu.Unlock()
	s.logf("draining: admissions closed, %d job(s) running, grace %s", running, drainGrace)

	grace := time.NewTimer(drainGrace)
	defer grace.Stop()
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
wait:
	for {
		s.mu.Lock()
		running = s.running
		s.mu.Unlock()
		if running == 0 {
			break
		}
		select {
		case <-grace.C:
			s.logf("drain grace expired with %d job(s) running; checkpointing them", running)
			break wait
		case <-tick.C:
		}
	}
	cancel()
	wg.Wait()

	s.mu.Lock()
	queued := 0
	for _, j := range s.jobs {
		if j.unsaved {
			//simlint:allow lockheld final drain flush: every worker has exited wg.Wait above, so no contender can stall on mu
			_ = s.persistLocked(j) //simlint:allow errflow shutdown flush is best-effort; persistLocked logs the failure and the job resumes from its last good record on restart
		}
		if !j.State.Terminal() {
			queued++
		}
	}
	s.mu.Unlock()
	s.logf("drained: job records flushed, %d unfinished job(s) will resume on restart", queued)
	return nil
}

// runner is one job worker: claim the next fair-share job, run it,
// repeat. It observes ctx every iteration (the pulseStride contract —
// enforced by simlint's ctxloop analyzer on this package).
func (s *Server) runner(ctx context.Context) {
	for {
		if ctx.Err() != nil {
			return
		}
		j := s.next()
		if j == nil {
			select {
			case <-ctx.Done():
				return
			case <-s.wake:
			}
			continue
		}
		s.runJob(ctx, j)
	}
}

// runJob executes one job to a terminal state — or back to queued if
// the server itself is stopping. Workload sweeps run in spec order,
// each under the job's deadline context and its own crash-safe sweep
// checkpoint; completed workloads are journaled immediately, so a
// restart (crash or drain) resumes only what is missing. Failed
// workloads degrade gracefully into the job's failures manifest
// instead of failing the whole job.
func (s *Server) runJob(ctx context.Context, j *job) {
	start := s.now()
	jctx, cancel := context.WithTimeout(ctx, j.Spec.deadline())
	defer cancel()

	cfgs, cfgErr := j.Spec.Configs()
	perWL := unitsPerWorkload(len(cfgs))

	s.mu.Lock()
	// A resumed job already has some workloads' results journaled;
	// account for them and only simulate the rest.
	done := map[string]bool{}
	for _, r := range j.Results {
		done[r.Workload] = true
	}
	j.UnitsDone = len(j.Results) * perWL
	j.Failures = nil // failures are per-attempt; this attempt re-tries them
	j.Error = ""
	s.mu.Unlock()

	interrupted := false
	var failures []Failure
	for ti, name := range j.Spec.Workloads {
		if cfgErr != nil {
			failures = append(failures, Failure{Workload: name, Error: cfgErr.Error()})
			continue
		}
		if done[name] {
			continue
		}
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		res, failure, itr := s.runWorkload(ctx, jctx, j, ti, name, cfgs)
		if itr {
			interrupted = true
			break
		}
		if failure != nil {
			failures = append(failures, *failure)
			continue
		}
		s.mu.Lock()
		j.Results = append(j.Results, *res)
		j.UnitsDone = len(j.Results) * perWL
		//simlint:allow lockheld this job's record must persist atomically with the in-memory progress it records; a resumed job may not see results its record lacks
		_ = s.persistLocked(j) //simlint:allow errflow a failed progress checkpoint only costs recomputation on resume; persistLocked logs the cause and marks the job for the drain flush
		s.mu.Unlock()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	if interrupted {
		// The server is stopping (drain past its grace, or Run's ctx
		// cancelled). The job goes back to the queue; its journaled
		// results and sweep checkpoints make the next attempt cheap.
		j.State = StateQueued
		j.Failures = nil
		return
	}
	j.Failures = failures
	switch {
	case len(failures) == 0:
		j.State = StateDone
		s.metrics.JobsDone++
	case len(j.Results) > 0:
		j.State = StatePartial
		s.metrics.JobsPartial++
	default:
		j.State = StateFailed
		s.metrics.JobsFailed++
		if len(failures) > 0 {
			j.Error = failures[0].Error
		}
	}
	storageFault := false
	for _, f := range failures {
		if f.Storage {
			storageFault = true
		}
	}
	s.recordJobStorageOutcomeLocked(j.Tenant, storageFault)
	s.observeJobLocked(s.now().Sub(start))
	//simlint:allow lockheld this job's record must persist its terminal state atomically with the transition other goroutines will observe
	_ = s.persistLocked(j) //simlint:allow errflow a failed terminal flush re-runs the job's tail on restart; persistLocked logs the cause and marks the job for the drain flush
	//simlint:allow lockheld checkpoint reaping under mu keeps it atomic with the terminal transition; the files are tiny and local
	s.removeCkpts(j)
}

// runWorkload sweeps one workload of one job. It returns exactly one
// of: a result, a failure-manifest entry, or interrupted=true when the
// server (not the job) is stopping and the job should be re-queued.
func (s *Server) runWorkload(ctx, jctx context.Context, j *job, ti int, name string, cfgs []cache.Config) (*WorkloadResult, *Failure, bool) {
	if jctx.Err() != nil {
		// The job's deadline already expired (an earlier workload spent
		// the budget); record the miss without paying for trace
		// generation.
		if ctx.Err() != nil {
			return nil, nil, true
		}
		return nil, &Failure{Workload: name, Error: "deadline exceeded"}, false
	}
	t, err := s.traces.Get(jctx, name, j.Spec.Scale)
	if err != nil {
		if ctx.Err() != nil {
			return nil, nil, true
		}
		if errors.Is(err, context.DeadlineExceeded) {
			return nil, &Failure{Workload: name, Error: "deadline exceeded before trace was ready"}, false
		}
		return nil, &Failure{Workload: name, Error: err.Error(), Storage: vfs.IsStorageFault(err)}, false
	}
	if j.Spec.Events > 0 && t.Len() > j.Spec.Events {
		t = t.Slice(0, j.Spec.Events)
	}
	units := sweep.Shard(ti, t, cfgs)
	stats := make([]cache.Stats, len(cfgs))
	opt := sweep.Options{
		Workers:    s.cfg.SweepWorkers,
		Checkpoint: s.ckptPath(j.ID, ti),
		FS:         s.fs,
		OnEvent: func(e sweep.Event) {
			// Called under the sweep's collect lock; counter updates take
			// the server lock briefly.
			s.mu.Lock()
			switch e.Kind {
			case sweep.UnitDone:
				s.metrics.UnitsDone++
				j.UnitsDone++
			case sweep.UnitRestored:
				s.metrics.UnitsRestored++
				j.UnitsDone++
			case sweep.JournalDegraded:
				s.metrics.CheckpointDegraded++
			}
			s.mu.Unlock()
		},
	}
	err = sweep.RunUnits(jctx, units, opt, func(u sweep.Unit, st []cache.Stats) {
		copy(stats[u.Base:], st)
	})
	if err == nil {
		return &WorkloadResult{Workload: name, Rows: RowsFor(cfgs, stats)}, nil, false
	}
	if ctx.Err() != nil {
		return nil, nil, true
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return nil, &Failure{Workload: name, Error: "deadline exceeded"}, false
	}
	// A unit error reads "sweep: unit <key>: ...", so Error names the
	// unit that failed.
	return nil, &Failure{Workload: name, Error: err.Error(), Storage: vfs.IsStorageFault(err)}, false
}
