// Package serve is the multi-tenant simulation service behind
// cmd/simserved: long-lived sessions submit sweep jobs over HTTP/JSON
// and the server runs them on the gang engine with the same
// crash-safety contract the CLIs have — and the overload tolerance
// they never needed.
//
// The design carries the paper's write-buffer lesson (Jouppi §3: a
// bounded buffer must stall or shed when the arrival rate exceeds the
// retirement rate) up to the service layer:
//
//   - Admission control: the run queue is bounded globally and
//     per-tenant. A full queue sheds load with 503 + Retry-After
//     (a jittered hint derived from observed job durations) instead of
//     queueing unboundedly.
//   - Fair-share scheduling: job workers pick the next job round-robin
//     across tenants, so one tenant's burst cannot starve the rest.
//   - Crash safety: each job's record (<state>/jobs/<id>.journal) is
//     saved through internal/resilience before the client sees 202,
//     and each later commit re-saves only that job; each running
//     sweep checkpoints its completed (trace, config-shard) units. A
//     SIGKILLed server resumes every in-flight job on restart and
//     re-derives byte-identical results; client re-submits are
//     deduplicated by (tenant, request_id).
//   - Each cell simulated once: the server keeps the flushed stats of
//     every finished cell in memory, keyed by (workload, scale, prefix
//     length simulated, cache config), and a job sweeps only the cells
//     it does not find there. The memo holds at most maxCells cells and
//     is cleared when an insert finds it full. It is not persisted: a
//     restarted server starts empty, and a resumed job whose checkpoint
//     covered a different set of missing cells reads it as stale
//     through the sweep fingerprint and recomputes.
//   - Deadlines: each job's deadline context reaches the gang inner
//     loop (the pulseStride contract), so an expired or cancelled job
//     stops mid-unit, not at the next unit boundary.
//   - Graceful degradation: a job whose workloads partially fail still
//     returns every computable result plus a failures manifest.
//   - Graceful drain: Run(ctx) stops admitting when ctx is cancelled
//     (SIGTERM), waits a bounded grace for running jobs, checkpoints
//     whatever is still in flight, and re-saves every job record whose
//     last save failed.
//
// The package is in simlint's nopanic, determinism and ctxloop scopes:
// it never panics or exits, its result-producing paths are
// deterministic (the wall clock and jitter RNG are injected and feed
// only Retry-After hints), and its worker loops observe cancellation
// every iteration.
package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cachewrite/internal/resilience"
	"cachewrite/internal/sweep"
	"cachewrite/internal/vfs"
	"cachewrite/internal/workload"
)

// Config tunes a Server. The zero value of every field has a usable
// default (documented per field). What no caller varies is fixed: the
// per-job caps (maxConfigs, maxGridWalk, maxEvents, maxLinesPerConfig,
// maxScale), the deadlines (defaultDeadline, maxDeadline), the drain
// grace (drainGrace), the shared trace memory (traceMem) and the jitter
// seed (jitterSeed).
type Config struct {
	// StateDir holds the per-job records (jobs/) and per-job sweep
	// checkpoints (sweeps/) (default "simserved-state"). It must
	// persist across restarts for crash-safe resume.
	StateDir string
	// Queue bounds admitted-but-unfinished jobs across all tenants
	// (default 64). Submits beyond it are shed with 503.
	Queue int
	// PerTenant bounds one tenant's admitted-but-unfinished jobs
	// (default 8).
	PerTenant int
	// JobWorkers is how many jobs run concurrently (default 2).
	JobWorkers int
	// SweepWorkers is each job's gang scheduler pool size (default 0 =
	// GOMAXPROCS; with several JobWorkers, a smaller value avoids
	// oversubscription).
	SweepWorkers int
	// TraceDir is the on-disk trace cache shared by all sessions
	// ("" disables the disk layer).
	TraceDir string
	// FS is the filesystem under the durability surfaces — the job
	// journal, sweep checkpoints and checkpoint cleanup (default: the
	// real one). The chaos harness passes a vfs.Faulty here to prove
	// the service degrades honestly under storage faults.
	FS vfs.FS
	// Now is the clock (required by the determinism contract to be
	// injected; cmd/simserved passes time.Now). Wall-clock values feed
	// only Retry-After estimates, never results.
	Now func() time.Time
	// Logf receives operational log lines (default os.Stderr).
	Logf func(format string, args ...any)
}

// maxConfigs caps one job's configuration grid.
const maxConfigs = 4096

// maxGridWalk caps the combinations of a job's axes that admission
// visits while expanding its grid, valid or not, so a grid of invalid
// combinations costs no more to refuse than one past maxConfigs.
const maxGridWalk = 16 * maxConfigs

// maxLinesPerConfig caps size/line for every configuration in a
// submitted grid, so a client cannot size server memory: each line
// costs about 40 B of simulator state, and a sweep unit holds up to
// sweep.DefaultShard configurations at once. The paper's largest L1,
// 128 KB at 4 B lines, is 1<<15 lines.
const maxLinesPerConfig = 1 << 16

// maxScale caps a job's workload scale factor, which multiplies the
// generated trace length (and its memory) linearly.
const maxScale = 8

// maxEvents caps each trace of a job: a spec's events of 0 (the full
// trace) or above it is clamped to it.
const maxEvents = 2_000_000

// defaultDeadline is the per-attempt execution budget of a job that
// does not set deadline_ms; maxDeadline caps the ones that do.
const (
	defaultDeadline = 5 * time.Minute
	maxDeadline     = 10 * time.Minute
)

// drainGrace is how long Run waits for running jobs after its context
// is cancelled before cancelling them into their checkpoints.
const drainGrace = 5 * time.Second

// traceMem bounds the decoded traces shared in memory across sessions.
const traceMem = 16

// jitterSeed seeds the RNG behind the Retry-After jitter.
const jitterSeed = 1

// journalVersion is the job-record schema version; bump when job or
// JobSpec changes shape. Version 1 was one whole-table jobs.journal.
const journalVersion = 2

// recordSuffix names a job's record file, <state>/jobs/<id>.journal.
const recordSuffix = ".journal"

// Metrics is the statusz counter snapshot.
type Metrics struct {
	Accepted         int64 `json:"accepted"`
	Deduplicated     int64 `json:"deduplicated"`
	RejectedQueue    int64 `json:"rejected_queue_full"`
	RejectedTenant   int64 `json:"rejected_tenant_full"`
	RejectedDraining int64 `json:"rejected_draining"`
	// RejectedBreaker counts submits shed because the tenant's circuit
	// breaker was open after repeated storage-fault failures.
	RejectedBreaker int64 `json:"rejected_breaker_open"`
	// BreakerOpens counts circuit-breaker trips across all tenants.
	BreakerOpens  int64 `json:"breaker_opens"`
	JobsDone      int64 `json:"jobs_done"`
	JobsPartial   int64 `json:"jobs_partial"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsResumed   int64 `json:"jobs_resumed"`
	UnitsDone     int64 `json:"units_done"`
	UnitsRestored int64 `json:"units_restored"`
	// CellsReused counts (workload, prefix, config) cells read from the
	// finished-cell memo instead of simulated.
	CellsReused int64 `json:"cells_reused"`
	// UnitsRetried is always 0: a failed sweep unit is never retried,
	// since the same trace and config fail the same way every time.
	// It stays in statusz for readers that still decode it.
	UnitsRetried int64 `json:"units_retried"` //simlint:allow statsound kept for the statusz wire format; the benchmark module (perfbench/serve.go) still reads units_retried
	// CheckpointDegraded counts sweep checkpoint snapshots or cleanups
	// that failed and were degraded (the run continued).
	CheckpointDegraded int64 `json:"checkpoint_degraded"`
	// StoreDegraded mirrors the process-wide trace-cache counter: cache
	// stores downgraded to in-memory generation by a failing disk.
	StoreDegraded int64 `json:"store_degraded"`
}

// Server is the resident sweep service. Construct with New, serve its
// Handler, and call Run to process jobs until the context is
// cancelled.
type Server struct {
	cfg    Config
	now    func() time.Time
	logf   func(string, ...any)
	fs     vfs.FS
	traces *workload.SharedTraces
	cells  *cellMemo // finished cells; has its own lock, never held across a sweep

	mu         sync.Mutex
	jobs       []*job          // admission order; persisted in this order
	byID       map[string]*job // lookup only — never ranged over
	byRequest  map[string]*job // (tenant, request_id) dedup index
	breakers   map[string]*tenantBreaker
	seq        int
	draining   bool
	running    int
	lastTenant string  // fair-share round-robin cursor
	avgJobNs   float64 // EWMA of job durations, feeds Retry-After
	rng        *rand.Rand
	metrics    Metrics

	wake chan struct{}
}

// New builds a server over cfg.StateDir, loading every job record and
// re-queueing every job a previous process left unfinished. It does
// not start any goroutine; call Run.
func New(cfg Config) (*Server, error) {
	if cfg.StateDir == "" {
		cfg.StateDir = "simserved-state"
	}
	if cfg.Queue < 1 {
		cfg.Queue = 64
	}
	if cfg.PerTenant < 1 {
		cfg.PerTenant = 8
	}
	if cfg.JobWorkers < 1 {
		cfg.JobWorkers = 2
	}
	if cfg.FS == nil {
		cfg.FS = vfs.OS{}
	}
	if cfg.Now == nil {
		cfg.Now = func() time.Time { return time.Time{} }
	}
	if cfg.Logf == nil {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "simserved: "+format+"\n", args...)
		}
	}
	if err := cfg.FS.MkdirAll(filepath.Join(cfg.StateDir, "sweeps"), 0o755); err != nil {
		// A real mkdir of an existing directory is a no-op; only refuse
		// to start when the state dir genuinely is not there (a faulty
		// disk can report ENOSPC for the no-op case too).
		if _, serr := cfg.FS.Stat(filepath.Join(cfg.StateDir, "sweeps")); serr != nil {
			return nil, fmt.Errorf("serve: state dir: %w (stat: %w)", err, serr)
		}
	}
	s := &Server{
		cfg:       cfg,
		now:       cfg.Now,
		logf:      cfg.Logf,
		fs:        cfg.FS,
		traces:    workload.NewSharedTraces(cfg.TraceDir, traceMem),
		cells:     newCellMemo(maxCells),
		byID:      map[string]*job{},
		byRequest: map[string]*job{},
		breakers:  map[string]*tenantBreaker{},
		rng:       rand.New(rand.NewSource(jitterSeed)),
		wake:      make(chan struct{}, cfg.JobWorkers),
	}
	if err := s.restore(); err != nil {
		return nil, err
	}
	return s, nil
}

// restore loads every job record under jobs/ and re-queues unfinished
// jobs. There is no index file: the directory listing is the job set,
// and the numeric part of each id is its admission order.
func (s *Server) restore() error {
	old := filepath.Join(s.cfg.StateDir, "jobs.journal")
	if _, err := s.fs.Stat(old); err == nil {
		return fmt.Errorf("serve: %s is a version 1 whole-table job journal; drain the old server to completion or move the file aside, then restart", old)
	}
	entries, err := s.fs.ReadDir(s.jobsDir())
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: job records: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		// <id>.journal, or only <id>.journal.prev after a crash between
		// a save's rotate and commit renames (Load falls back to it).
		// Save's .journal-* temp files match neither.
		id, ok := strings.CutSuffix(strings.TrimSuffix(e.Name(), ".prev"), recordSuffix)
		digits, isJob := strings.CutPrefix(id, "j")
		if n, err := strconv.Atoi(digits); ok && isJob && err == nil && n > 0 {
			seqs = append(seqs, n)
		}
	}
	sort.Ints(seqs)
	seqs = slices.Compact(seqs)
	if len(seqs) > 0 {
		// Counting unloadable records too keeps a new job off the id
		// (and the sweep checkpoints) of one whose record was lost.
		s.seq = seqs[len(seqs)-1]
	}

	resumed := 0
	for _, n := range seqs {
		id := jobID(n)
		j, info, err := s.record(id).Load()
		if err != nil {
			return fmt.Errorf("serve: job %s record: %w", id, err)
		}
		for _, w := range info.Warnings {
			s.logf("job %s record: %s", id, w)
		}
		if !info.Found {
			continue
		}
		if !j.State.Terminal() {
			// Anything unfinished — queued, or running when the previous
			// process died — goes back to the queue; its sweep
			// checkpoints make the resume cheap and byte-identical.
			j.State = StateQueued
			resumed++
		}
		jp := &j
		s.jobs = append(s.jobs, jp)
		s.byID[j.ID] = jp
		if j.RequestID != "" {
			s.byRequest[requestKey(j.Tenant, j.RequestID)] = jp
		}
	}
	if resumed > 0 {
		s.metrics.JobsResumed += int64(resumed)
		s.logf("restored %d job(s) from their records, %d unfinished re-queued", len(s.jobs), resumed)
	}
	return nil
}

// jobID is the id of the n'th admitted job; past j999999 ids just grow
// wider, so admission order is the numeric order, not the string order.
func jobID(n int) string { return fmt.Sprintf("j%06d", n) }

func requestKey(tenant, requestID string) string {
	return tenant + "\x00" + requestID
}

func (s *Server) jobsDir() string { return filepath.Join(s.cfg.StateDir, "jobs") }

// record is one job's journal: atomic rename + CRC + previous-good
// fallback, scoped to that job alone.
func (s *Server) record(id string) *resilience.Journal[job] {
	return resilience.NewJournalFS[job](s.fs, filepath.Join(s.jobsDir(), id+recordSuffix), "simserved-job", journalVersion)
}

// persistLocked saves j's record — only j, so a commit costs the same
// however many jobs the server has seen — and returns the save error,
// marking j unsaved for the drain flush. Callers on the completion path
// log and continue (the server keeps serving from memory and re-saves
// j on its next state change); the admission path instead refuses to
// admit what it cannot make durable. Caller holds mu.
func (s *Server) persistLocked(j *job) error {
	if err := s.record(j.ID).Save(*j); err != nil {
		j.unsaved = true
		s.logf("job %s record save failed: %v", j.ID, err)
		return err
	}
	j.unsaved = false
	return nil
}

// ckptPath is the sweep checkpoint for one (job, workload-index) pair.
func (s *Server) ckptPath(jobID string, ti int) string {
	return filepath.Join(s.cfg.StateDir, "sweeps", fmt.Sprintf("%s-t%d.ckpt", jobID, ti))
}

// removeCkpts clears a terminal job's sweep checkpoints (successful
// sweeps already removed their own; this reaps the failed ones). No
// later job reads them: a resubmission gets a new id, and with it new
// checkpoint paths.
func (s *Server) removeCkpts(j *job) {
	for ti := range j.Spec.Workloads {
		p := s.ckptPath(j.ID, ti)
		_ = s.fs.Remove(p)           //simlint:allow errflow best-effort reap: successful sweeps already removed their checkpoint, so a missing file is the common case
		_ = s.fs.Remove(p + ".prev") //simlint:allow errflow best-effort reap of the journal's previous generation; a leftover is reclaimed by the next run
	}
}

// unitsPerWorkload is how many scheduler units one workload's sweep
// splits into under the default sharding.
func unitsPerWorkload(nConfigs int) int {
	return (nConfigs + sweep.DefaultShard - 1) / sweep.DefaultShard
}

// Job returns the status of one job (full results included).
func (s *Server) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.status(false), true
}

// TenantJobs lists a tenant's jobs in admission order (brief form:
// no result payloads).
func (s *Server) TenantJobs(tenant string) []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []JobStatus
	for _, j := range s.jobs {
		if j.Tenant == tenant {
			out = append(out, j.status(true))
		}
	}
	return out
}

// Health is the healthz payload.
type Health struct {
	Status  string `json:"status"` // "ok" or "draining"
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
	Jobs    int    `json:"jobs"`
}

// Health reports liveness and load.
func (s *Server) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{Status: "ok", Running: s.running, Jobs: len(s.jobs)}
	if s.draining {
		h.Status = "draining"
	}
	for _, j := range s.jobs {
		if j.State == StateQueued {
			h.Queued++
		}
	}
	return h
}

// MetricsSnapshot returns the statusz counters. StoreDegraded is read
// from the process-wide trace-cache counter at snapshot time.
func (s *Server) MetricsSnapshot() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.metrics
	m.StoreDegraded = workload.StoreDegraded()
	return m
}

// queuedTenantsLocked returns the sorted tenants that have at least
// one queued job. Caller holds mu.
func (s *Server) queuedTenantsLocked() []string {
	seen := map[string]bool{}
	var tenants []string
	for _, j := range s.jobs {
		if j.State == StateQueued && !seen[j.Tenant] {
			seen[j.Tenant] = true
			tenants = append(tenants, j.Tenant)
		}
	}
	sort.Strings(tenants)
	return tenants
}

// next claims the next job under fair-share scheduling: tenants with
// queued work are ordered by name and the pick rotates round-robin
// from the previously served tenant, taking that tenant's oldest
// queued job. Returns nil when nothing is runnable (or the server is
// draining).
func (s *Server) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil
	}
	tenants := s.queuedTenantsLocked()
	if len(tenants) == 0 {
		return nil
	}
	pick := tenants[0]
	for _, t := range tenants {
		if t > s.lastTenant {
			pick = t
			break
		}
	}
	for _, j := range s.jobs {
		if j.State == StateQueued && j.Tenant == pick {
			s.lastTenant = pick
			j.State = StateRunning
			s.running++
			return j
		}
	}
	return nil
}
