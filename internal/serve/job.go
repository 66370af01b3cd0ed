package serve

import (
	"fmt"
	"time"

	"cachewrite/internal/cache"
	"cachewrite/internal/workload"
)

// JobState is the lifecycle state of a submitted sweep job.
type JobState string

const (
	// StateQueued: admitted, waiting for a job worker (also the state a
	// crashed or drained server's in-flight jobs resume from).
	StateQueued JobState = "queued"
	// StateRunning: a job worker is simulating it right now.
	StateRunning JobState = "running"
	// StateDone: every workload completed; Results is full.
	StateDone JobState = "done"
	// StatePartial: some workloads completed and some failed; Results
	// holds the completed ones and Failures the manifest of the rest.
	StatePartial JobState = "partial"
	// StateFailed: no workload completed.
	StateFailed JobState = "failed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StatePartial || s == StateFailed
}

// JobSpec is one tenant's sweep request: a set of workloads crossed
// with a cartesian grid of cache configurations, plus an execution
// deadline. The zero values of the optional axes are filled in by
// normalize (documented per field).
type JobSpec struct {
	// Tenant is the owning session's identifier (required;
	// [A-Za-z0-9._-], at most 64 bytes).
	Tenant string `json:"tenant"`
	// RequestID, when set, makes the submit idempotent per tenant: a
	// re-submit with the same (tenant, request_id) — e.g. a client
	// retrying after the server was SIGKILLed between admitting and
	// responding — returns the already-admitted job instead of queueing
	// a duplicate.
	RequestID string `json:"request_id,omitempty"`
	// Workloads names the benchmark traces to sweep (no duplicates).
	Workloads []string `json:"workloads"`
	// Scale is the workload scale factor (default 1, at most maxScale).
	Scale int `json:"scale,omitempty"`
	// Events caps each trace to its first N events (0 = full trace;
	// silently clamped to the server's MaxEvents).
	Events int `json:"events,omitempty"`
	// Sizes are the cache sizes in bytes (required; at most
	// maxLinesPerConfig lines at each line size).
	Sizes []int `json:"sizes"`
	// Lines are the line sizes in bytes (default [16]).
	Lines []int `json:"lines,omitempty"`
	// Assocs are the set associativities (default [1]).
	Assocs []int `json:"assocs,omitempty"`
	// WriteHits are write-hit policy names (default ["wb"]).
	WriteHits []string `json:"write_hits,omitempty"`
	// WriteMisses are write-miss policy names (default ["fow"]).
	WriteMisses []string `json:"write_misses,omitempty"`
	// DeadlineMs bounds job execution wall-clock per attempt; the
	// deadline context reaches the gang inner loop, so an expired job
	// stops mid-unit. 0 means the server default; values above the
	// server maximum are clamped.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// normalize fills the defaulted axes in place so the spec that is
// journaled (and fingerprinted by the sweep checkpoints) is explicit.
func (s *JobSpec) normalize() {
	if s.Scale < 1 {
		s.Scale = 1
	}
	if len(s.Lines) == 0 {
		s.Lines = []int{16}
	}
	if len(s.Assocs) == 0 {
		s.Assocs = []int{1}
	}
	if len(s.WriteHits) == 0 {
		s.WriteHits = []string{"wb"}
	}
	if len(s.WriteMisses) == 0 {
		s.WriteMisses = []string{"fow"}
	}
}

// validTenant enforces the tenant charset: path- and filename-safe.
func validTenant(t string) bool {
	if t == "" || len(t) > 64 {
		return false
	}
	for i := 0; i < len(t); i++ {
		c := t[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// validate checks a normalized spec. The error text is safe to return
// to the client verbatim (400).
func (s *JobSpec) validate(maxConfigs int) error {
	if !validTenant(s.Tenant) {
		return fmt.Errorf("tenant must be 1-64 chars of [A-Za-z0-9._-], got %q", s.Tenant)
	}
	if len(s.RequestID) > 128 {
		return fmt.Errorf("request_id longer than 128 bytes")
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("workloads is required")
	}
	seen := map[string]bool{}
	for _, w := range s.Workloads {
		if _, err := workload.Get(w); err != nil {
			return fmt.Errorf("unknown workload %q", w)
		}
		if seen[w] {
			return fmt.Errorf("duplicate workload %q", w)
		}
		seen[w] = true
	}
	if s.Events < 0 {
		return fmt.Errorf("events must be >= 0")
	}
	if s.DeadlineMs < 0 {
		return fmt.Errorf("deadline_ms must be >= 0")
	}
	if s.Scale > maxScale {
		return fmt.Errorf("scale %d exceeds the server cap of %d", s.Scale, maxScale)
	}
	cfgs, err := s.Configs()
	if err != nil {
		return err
	}
	if len(cfgs) == 0 {
		return fmt.Errorf("no valid cache configuration in the sweep grid")
	}
	for _, cfg := range cfgs {
		if lines := cfg.Size / cfg.LineSize; lines > maxLinesPerConfig {
			return fmt.Errorf("size %d at %d B lines is %d lines, server cap is %d",
				cfg.Size, cfg.LineSize, lines, maxLinesPerConfig)
		}
	}
	if maxConfigs > 0 && len(cfgs) > maxConfigs {
		return fmt.Errorf("sweep grid has %d configurations, server cap is %d", len(cfgs), maxConfigs)
	}
	return nil
}

// Configs expands the normalized spec's cartesian grid in size, line,
// assoc, write-hit, write-miss order, skipping invalid combinations.
// It is the one grid expansion: cmd/cachesweep builds its sweep
// through it, and the load harness and the benchmark rebuild the
// server's exact configuration order with it.
func (s *JobSpec) Configs() ([]cache.Config, error) {
	var hits []cache.WriteHitPolicy
	for _, h := range s.WriteHits {
		p, err := cache.ParseWriteHit(h)
		if err != nil {
			return nil, err
		}
		hits = append(hits, p)
	}
	var misses []cache.WriteMissPolicy
	for _, m := range s.WriteMisses {
		p, err := cache.ParseWriteMiss(m)
		if err != nil {
			return nil, err
		}
		misses = append(misses, p)
	}
	var cfgs []cache.Config
	for _, size := range s.Sizes {
		for _, line := range s.Lines {
			for _, assoc := range s.Assocs {
				for _, hit := range hits {
					for _, miss := range misses {
						cfg := cache.Config{Size: size, LineSize: line, Assoc: assoc,
							WriteHit: hit, WriteMiss: miss}
						if cfg.Validate() == nil {
							cfgs = append(cfgs, cfg)
						}
					}
				}
			}
		}
	}
	return cfgs, nil
}

// deadline resolves the job's per-attempt execution budget against the
// server's default and cap.
func (s *JobSpec) deadline(def, max time.Duration) time.Duration {
	d := time.Duration(s.DeadlineMs) * time.Millisecond
	if d <= 0 {
		d = def
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}

// Row is one configuration's results. cmd/cachesweep prints the same
// rows as CSV columns and simserved returns them as JSON. Rows are
// derived deterministically from cache.Stats, so a resumed job reports
// bytes identical to an uninterrupted one.
type Row struct {
	Size                  int     `json:"size"`
	Line                  int     `json:"line"`
	Assoc                 int     `json:"assoc"`
	WriteHit              string  `json:"write_hit"`
	WriteMiss             string  `json:"write_miss"`
	MissRate              float64 `json:"miss_rate"`
	WriteMissPct          float64 `json:"write_miss_pct"`
	WritesToDirtyPct      float64 `json:"writes_to_dirty_pct"`
	BacksideTxPerInstr    float64 `json:"backside_tx_per_instr"`
	BacksideBytesPerInstr float64 `json:"backside_bytes_per_instr"`
}

// RowsFor derives the rows for one workload from the sweep's
// per-configuration stats. It is the one row derivation: the server,
// cmd/cachesweep, the load harness and the benchmark all use it.
func RowsFor(cfgs []cache.Config, stats []cache.Stats) []Row {
	rows := make([]Row, len(cfgs))
	for i, cfg := range cfgs {
		st := stats[i]
		inst := float64(st.Instructions)
		rows[i] = Row{
			Size: cfg.Size, Line: cfg.LineSize, Assoc: cfg.Assoc,
			WriteHit: cfg.WriteHit.String(), WriteMiss: cfg.WriteMiss.String(),
			MissRate:              st.MissRate(),
			WriteMissPct:          100 * st.WriteMissFraction(),
			WritesToDirtyPct:      100 * st.WritesToDirtyFraction(),
			BacksideTxPerInstr:    float64(st.BacksideTransactions()) / inst,
			BacksideBytesPerInstr: float64(st.BacksideBytes(false)) / inst,
		}
	}
	return rows
}

// WorkloadResult is the completed sweep of one workload.
type WorkloadResult struct {
	Workload string `json:"workload"`
	Rows     []Row  `json:"rows"`
}

// Failure is one entry of a job's graceful-degradation manifest — the
// failures.json idiom from cmd/paperfigs carried into the API: a job
// whose workloads partially fail still returns every computable result
// plus a machine-readable account of what is missing and why.
type Failure struct {
	Workload string `json:"workload"`
	// Error says why the workload has no result; a sweep unit's failure
	// reads "sweep: unit <key>: ...". Records from builds that also
	// wrote unit, attempts or poisoned still load: decoding ignores
	// the unknown fields.
	Error string `json:"error"`
	// Storage marks failures classified as storage faults
	// (vfs.IsStorageFault): injected faults, ENOSPC, EIO. These feed
	// the tenant's circuit breaker.
	Storage bool `json:"storage,omitempty"`
}

// JobStatus is the client-visible snapshot of a job.
type JobStatus struct {
	ID         string           `json:"id"`
	Tenant     string           `json:"tenant"`
	State      JobState         `json:"state"`
	UnitsDone  int              `json:"units_done"`
	UnitsTotal int              `json:"units_total"`
	Results    []WorkloadResult `json:"results,omitempty"`
	Failures   []Failure        `json:"failures,omitempty"`
	Error      string           `json:"error,omitempty"`
}

// job is the server-side record, journaled field for field as the
// job's record file. Mutable fields are guarded by the server mutex;
// unitsDone is read by status snapshots while the runner advances it,
// hence the dedicated counter on the server side.
type job struct {
	ID         string
	Tenant     string
	RequestID  string
	Spec       JobSpec
	State      JobState
	UnitsTotal int
	UnitsDone  int
	Results    []WorkloadResult
	Failures   []Failure
	Error      string

	// unsaved marks a job whose last record save failed, so the drain
	// flush re-saves it (unexported: never journaled).
	unsaved bool
}

// status snapshots the job. Caller holds the server mutex. brief drops
// the (potentially large) results payload for list endpoints.
func (j *job) status(brief bool) JobStatus {
	st := JobStatus{
		ID: j.ID, Tenant: j.Tenant, State: j.State,
		UnitsDone: j.UnitsDone, UnitsTotal: j.UnitsTotal,
		Error: j.Error,
	}
	if !brief {
		st.Results = j.Results
		st.Failures = j.Failures
	}
	return st
}
