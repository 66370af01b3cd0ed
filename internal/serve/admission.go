package serve

import (
	"fmt"
	"time"
)

// Rejection is a shed submit: the 503 body. RetryAfterMs is the
// jittered backoff hint; the HTTP layer also rounds it up into the
// standard Retry-After header.
type Rejection struct {
	Reason       string `json:"error"`
	RetryAfterMs int64  `json:"retry_after_ms"`
}

// retrySeconds rounds the hint up to whole seconds for the
// Retry-After header (minimum 1).
func (r *Rejection) retrySeconds() int {
	sec := int((r.RetryAfterMs + 999) / 1000)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// pendingLocked counts admitted-but-unfinished jobs, total and for one
// tenant. Caller holds mu.
func (s *Server) pendingLocked(tenant string) (total, forTenant int) {
	for _, j := range s.jobs {
		if j.State.Terminal() {
			continue
		}
		total++
		if j.Tenant == tenant {
			forTenant++
		}
	}
	return total, forTenant
}

// retryAfterLocked estimates when capacity should free up: the depth
// of the queue ahead of the caller divided across the job workers,
// priced at the EWMA job duration, clamped to [250ms, 30s] and
// jittered ±25% so a rejected fleet of clients does not return in
// lockstep (the thundering-herd half of the paper's bounded-buffer
// lesson). Caller holds mu.
func (s *Server) retryAfterLocked(queued int) int64 {
	avg := s.avgJobNs
	if avg <= 0 {
		avg = float64(500 * time.Millisecond)
	}
	waves := float64(queued)/float64(s.cfg.JobWorkers) + 1
	est := avg * waves
	if min := float64(250 * time.Millisecond); est < min {
		est = min
	}
	if max := float64(30 * time.Second); est > max {
		est = max
	}
	est *= 0.75 + 0.5*s.rng.Float64()
	return int64(est / float64(time.Millisecond))
}

// observeJobLocked folds a finished job's duration into the EWMA that
// prices Retry-After hints. Caller holds mu.
func (s *Server) observeJobLocked(d time.Duration) {
	if d <= 0 {
		return
	}
	if s.avgJobNs == 0 {
		s.avgJobNs = float64(d)
		return
	}
	s.avgJobNs = 0.8*s.avgJobNs + 0.2*float64(d)
}

// Submit validates and admits one sweep job. Exactly one of the three
// returns is meaningful: a status (admitted, or deduplicated onto an
// existing job), a rejection (load shed / draining — the 503 path), or
// an error (invalid spec — the 400 path).
//
// Admission is durable before it is visible: the new job's record is
// saved before Submit returns, so a client that got its 202 can
// SIGKILL the server and still find the job after restart.
func (s *Server) Submit(spec JobSpec) (JobStatus, *Rejection, error) {
	spec.normalize()
	cfgs, err := spec.validate()
	if err != nil {
		return JobStatus{}, nil, err
	}
	if spec.Events == 0 || spec.Events > maxEvents {
		spec.Events = maxEvents
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	if spec.RequestID != "" {
		if j, ok := s.byRequest[requestKey(spec.Tenant, spec.RequestID)]; ok {
			s.metrics.Deduplicated++
			return j.status(false), nil, nil
		}
	}
	if s.draining {
		s.metrics.RejectedDraining++
		return JobStatus{}, &Rejection{
			Reason:       "server is draining; resubmit after restart",
			RetryAfterMs: s.retryAfterLocked(0) + drainGrace.Milliseconds(),
		}, nil
	}
	if wait, open := s.breakerWaitLocked(spec.Tenant); open {
		// The tenant's recent jobs kept dying on storage faults;
		// shedding with the remaining cooldown is more honest than
		// admitting a job onto a disk that keeps eating them.
		s.metrics.RejectedBreaker++
		return JobStatus{}, &Rejection{
			Reason: fmt.Sprintf("tenant %s circuit breaker open after repeated storage faults (cooldown %s)",
				spec.Tenant, wait.Round(time.Millisecond)),
			RetryAfterMs: wait.Milliseconds(),
		}, nil
	}
	total, forTenant := s.pendingLocked(spec.Tenant)
	if total >= s.cfg.Queue {
		s.metrics.RejectedQueue++
		return JobStatus{}, &Rejection{
			Reason:       fmt.Sprintf("run queue full (%d jobs pending)", total),
			RetryAfterMs: s.retryAfterLocked(total),
		}, nil
	}
	if forTenant >= s.cfg.PerTenant {
		s.metrics.RejectedTenant++
		return JobStatus{}, &Rejection{
			Reason:       fmt.Sprintf("tenant %s has %d jobs pending (cap %d)", spec.Tenant, forTenant, s.cfg.PerTenant),
			RetryAfterMs: s.retryAfterLocked(forTenant),
		}, nil
	}

	s.seq++
	j := &job{
		ID:         jobID(s.seq),
		Tenant:     spec.Tenant,
		RequestID:  spec.RequestID,
		Spec:       spec,
		State:      StateQueued,
		UnitsTotal: len(spec.Workloads) * unitsPerWorkload(len(cfgs)),
	}
	s.jobs = append(s.jobs, j)
	s.byID[j.ID] = j
	if j.RequestID != "" {
		s.byRequest[requestKey(j.Tenant, j.RequestID)] = j
	}
	//simlint:allow lockheld durable-before-visible: this job's record must be saved under mu, before any contender can observe the job
	if err := s.persistLocked(j); err != nil { //simlint:allow errflow the rollback below sheds the request; persistLocked already logged the cause and the client only needs the rejection
		// Admission must be durable before it is visible: roll the job
		// back and shed the request rather than acknowledge state a
		// crash would forget.
		s.jobs = s.jobs[:len(s.jobs)-1]
		delete(s.byID, j.ID)
		if j.RequestID != "" {
			delete(s.byRequest, requestKey(j.Tenant, j.RequestID))
		}
		s.seq--
		return JobStatus{}, &Rejection{
			Reason:       "job record save failed; admission refused",
			RetryAfterMs: s.retryAfterLocked(total),
		}, nil
	}
	s.metrics.Accepted++
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return j.status(false), nil, nil
}
