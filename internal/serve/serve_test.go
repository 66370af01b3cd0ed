package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cachewrite/internal/sweep"
	"cachewrite/internal/workload"
)

// testEvents keeps sweeps quick enough for the -race suite while still
// spanning several scheduler units.
const testEvents = 20_000

func testConfig(t testing.TB) Config {
	t.Helper()
	return Config{
		StateDir:     t.TempDir(),
		Queue:        16,
		PerTenant:    8,
		JobWorkers:   2,
		SweepWorkers: 2,
		Now:          time.Now,
		Logf:         func(string, ...any) {}, // tests assert, they don't read logs
	}
}

func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := testConfig(t)
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// testSpec is a small but multi-config job: 2 sizes x 2 write-miss
// policies = 4 configurations.
func testSpec(tenant, reqID string) JobSpec {
	return JobSpec{
		Tenant:      tenant,
		RequestID:   reqID,
		Workloads:   []string{"liver"},
		Events:      testEvents,
		Sizes:       []int{4096, 8192},
		Lines:       []int{16},
		Assocs:      []int{1},
		WriteHits:   []string{"wb"},
		WriteMisses: []string{"fow", "wv"},
	}
}

// golden computes the rows the server must report for spec's single
// workload, with the same engine it uses.
func golden(t *testing.T, spec JobSpec) []Row {
	t.Helper()
	spec.normalize()
	cfgs, err := spec.Configs()
	if err != nil {
		t.Fatalf("Configs: %v", err)
	}
	tr, err := workload.Generate(spec.Workloads[0], spec.Scale)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if spec.Events > 0 && tr.Len() > spec.Events {
		tr = tr.Slice(0, spec.Events)
	}
	stats, err := sweep.Gang(tr, cfgs)
	if err != nil {
		t.Fatalf("Gang: %v", err)
	}
	return RowsFor(cfgs, stats)
}

// startRun launches Run on a cancellable context and returns a stop
// function that drains and waits for it.
func startRun(t *testing.T, s *Server) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	return func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Run: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("Run did not drain")
		}
	}
}

func awaitTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

func mustSubmit(t *testing.T, s *Server, spec JobSpec) JobStatus {
	t.Helper()
	st, rej, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if rej != nil {
		t.Fatalf("Submit shed unexpectedly: %s", rej.Reason)
	}
	return st
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []struct {
		name   string
		mutate func(*JobSpec)
		want   string
	}{
		{"empty tenant", func(sp *JobSpec) { sp.Tenant = "" }, "tenant"},
		{"bad tenant chars", func(sp *JobSpec) { sp.Tenant = "a/b" }, "tenant"},
		{"no workloads", func(sp *JobSpec) { sp.Workloads = nil }, "workloads"},
		{"unknown workload", func(sp *JobSpec) { sp.Workloads = []string{"doom"} }, "unknown workload"},
		{"duplicate workload", func(sp *JobSpec) { sp.Workloads = []string{"liver", "liver"} }, "duplicate"},
		{"no sizes", func(sp *JobSpec) { sp.Sizes = nil }, "no valid cache configuration"},
		{"bad policy", func(sp *JobSpec) { sp.WriteMisses = []string{"nope"} }, "nope"},
		{"negative deadline", func(sp *JobSpec) { sp.DeadlineMs = -1 }, "deadline_ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec("tenant-a", "")
			tc.mutate(&spec)
			_, rej, err := s.Submit(spec)
			if err == nil {
				t.Fatalf("want validation error, got rej=%v", rej)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// repeatInt returns n copies of v: a grid axis that lists one value
// n times expands to n configurations per value of the other axes.
func repeatInt(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestConfigGridCap: a grid of exactly maxConfigs configurations is
// admitted, and one configuration more is refused naming the cap.
func TestConfigGridCap(t *testing.T) {
	s := newTestServer(t, nil)
	grid := func(n int) JobSpec {
		spec := testSpec("tenant-a", "")
		spec.Sizes, spec.WriteMisses = repeatInt(4096, n), []string{"fow"}
		return spec
	}
	st := mustSubmit(t, s, grid(maxConfigs))
	if want := unitsPerWorkload(maxConfigs); st.UnitsTotal != want {
		t.Errorf("UnitsTotal = %d, want %d for a grid at the cap", st.UnitsTotal, want)
	}
	_, _, err := s.Submit(grid(maxConfigs + 1))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("server cap of %d", maxConfigs)) {
		t.Fatalf("want grid-cap error, got %v", err)
	}
}

// TestOversizedSpecRejected: a client cannot size server memory. A
// grid config with more than maxLinesPerConfig lines, a scale above
// maxScale, or a grid whose axes multiply out far past maxConfigs,
// valid or not, is a 400 at submit, while the load harness's mix (4-32 KB, 16 and 32 B
// lines, scale 1) is still admitted.
func TestOversizedSpecRejected(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	huge := testSpec("tenant-a", "")
	huge.Sizes, huge.Lines = []int{1 << 30}, []int{4}
	long := testSpec("tenant-a", "")
	long.Scale = 1_000_000
	// 1,500 sizes x 1,500 lines is about 15 KB of JSON, well inside
	// maxBodyBytes, and 2,250,000 valid configurations.
	blowup := testSpec("tenant-a", "")
	blowup.Sizes, blowup.Lines = repeatInt(1024, 1500), repeatInt(16, 1500)
	blowup.WriteMisses = []string{"fow"}
	// The same axes at a size that is not a power of two: 2,250,000
	// combinations and not one valid configuration.
	invalid := blowup
	invalid.Sizes = repeatInt(1000, 1500)
	for _, spec := range []JobSpec{huge, long, blowup, invalid} {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "server cap") {
			t.Errorf("%d sizes %d lines scale %d: status %d body %q, want 400 naming the cap",
				len(spec.Sizes), len(spec.Lines), spec.Scale, resp.StatusCode, msg)
		}
	}

	// Refusing either grid must not walk it: admission refuses axes
	// that multiply out past maxGridWalk before expanding them, and
	// stops expanding at maxConfigs, instead of visiting 2,250,000
	// combinations.
	for name, spec := range map[string]JobSpec{"blowup": blowup, "invalid": invalid} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := s.Submit(spec)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "server cap") {
			t.Fatalf("%s grid: err = %v, want a server cap", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
			t.Errorf("refusing the %s grid allocated %d B, want under 16 MiB", name, alloc)
		}
	}

	mix := testSpec("tenant-a", "")
	mix.Sizes, mix.Lines, mix.Scale = []int{4096, 8192, 16384, 32768}, []int{16, 32}, 1
	if _, rej, err := s.Submit(mix); err != nil || rej != nil {
		t.Fatalf("load-harness spec refused: err=%v rej=%v", err, rej)
	}
	if got := s.MetricsSnapshot().Accepted; got != 1 {
		t.Fatalf("Accepted = %d, want 1 (only the load-harness spec)", got)
	}
}

// TestAdmissionQueueBound: the global queue sheds with a jittered
// Retry-After hint once full. No Run loop — jobs stay queued.
func TestAdmissionQueueBound(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Queue = 2; c.PerTenant = 8 })
	mustSubmit(t, s, testSpec("tenant-a", ""))
	mustSubmit(t, s, testSpec("tenant-a", ""))
	_, rej, err := s.Submit(testSpec("tenant-b", ""))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if rej == nil {
		t.Fatalf("third submit should have been shed")
	}
	if !strings.Contains(rej.Reason, "queue full") {
		t.Errorf("reason %q should mention the full queue", rej.Reason)
	}
	if rej.RetryAfterMs < 250 || rej.RetryAfterMs > 30_000 {
		t.Errorf("RetryAfterMs %d outside the [250ms, 30s] clamp", rej.RetryAfterMs)
	}
	if rej.retrySeconds() < 1 {
		t.Errorf("Retry-After header value must be >= 1s, got %d", rej.retrySeconds())
	}
	if m := s.MetricsSnapshot(); m.RejectedQueue != 1 {
		t.Errorf("RejectedQueue = %d, want 1", m.RejectedQueue)
	}
}

func TestAdmissionPerTenantBound(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Queue = 16; c.PerTenant = 1 })
	mustSubmit(t, s, testSpec("tenant-a", ""))
	_, rej, err := s.Submit(testSpec("tenant-a", ""))
	if err != nil || rej == nil {
		t.Fatalf("tenant-a's second submit should be shed; rej=%v err=%v", rej, err)
	}
	if !strings.Contains(rej.Reason, "tenant-a") {
		t.Errorf("reason %q should name the capped tenant", rej.Reason)
	}
	// The cap is per tenant: another tenant still gets in.
	mustSubmit(t, s, testSpec("tenant-b", ""))
	if m := s.MetricsSnapshot(); m.RejectedTenant != 1 {
		t.Errorf("RejectedTenant = %d, want 1", m.RejectedTenant)
	}
}

// TestDedupRequestID: an idempotent re-submit maps onto the admitted
// job instead of double-queueing — the client-retry-after-crash path.
func TestDedupRequestID(t *testing.T) {
	s := newTestServer(t, nil)
	first := mustSubmit(t, s, testSpec("tenant-a", "req-1"))
	again := mustSubmit(t, s, testSpec("tenant-a", "req-1"))
	if first.ID != again.ID {
		t.Fatalf("dedup returned a different job: %s vs %s", first.ID, again.ID)
	}
	// Same request_id under another tenant is a distinct job.
	other := mustSubmit(t, s, testSpec("tenant-b", "req-1"))
	if other.ID == first.ID {
		t.Fatalf("request_id must be scoped per tenant")
	}
	if m := s.MetricsSnapshot(); m.Deduplicated != 1 || m.Accepted != 2 {
		t.Errorf("metrics = %+v, want 1 dedup / 2 accepted", m)
	}
}

// TestFairShareRoundRobin drives the scheduler directly: a burst from
// one tenant must not starve the others.
func TestFairShareRoundRobin(t *testing.T) {
	s := newTestServer(t, nil)
	for i := 0; i < 3; i++ {
		mustSubmit(t, s, testSpec("tenant-a", ""))
	}
	mustSubmit(t, s, testSpec("tenant-b", ""))
	mustSubmit(t, s, testSpec("tenant-c", ""))

	var order []string
	for {
		j := s.next()
		if j == nil {
			break
		}
		order = append(order, j.Tenant)
	}
	want := []string{"tenant-a", "tenant-b", "tenant-c", "tenant-a", "tenant-a"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("fair-share order = %v, want %v", order, want)
	}
}

// TestRunJobToCompletion is the end-to-end happy path: submit, run,
// and require the reported rows to equal an independently computed
// golden exactly.
func TestRunJobToCompletion(t *testing.T) {
	s := newTestServer(t, nil)
	stop := startRun(t, s)
	defer stop()

	spec := testSpec("tenant-a", "req-1")
	st := mustSubmit(t, s, spec)
	st = awaitTerminal(t, s, st.ID)
	if st.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", st.State, st.Error)
	}
	if st.UnitsDone != st.UnitsTotal || st.UnitsTotal == 0 {
		t.Errorf("units %d/%d, want all of a non-zero total", st.UnitsDone, st.UnitsTotal)
	}
	if len(st.Results) != 1 || st.Results[0].Workload != "liver" {
		t.Fatalf("results = %+v, want one liver entry", st.Results)
	}
	if want := golden(t, spec); !reflect.DeepEqual(st.Results[0].Rows, want) {
		t.Errorf("rows differ from golden:\n got  %+v\n want %+v", st.Results[0].Rows, want)
	}
	if m := s.MetricsSnapshot(); m.JobsDone != 1 || m.UnitsDone == 0 {
		t.Errorf("metrics = %+v, want a completed job with units", m)
	}
}

// TestJobDeadline: a 1ms deadline cannot finish a sweep; the job must
// degrade into a deadline failure, not hang or panic. The job is made
// deliberately heavy (full trace, wide grid, serial sweep) so the
// deadline expires mid-sweep even if the runtime timer fires late.
func TestJobDeadline(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.SweepWorkers = 1 })
	stop := startRun(t, s)
	defer stop()

	spec := testSpec("tenant-a", "")
	spec.Events = 0 // full trace (liver's 368,418 events are under maxEvents)
	spec.Sizes = []int{1024, 4096, 16384, 65536}
	spec.WriteHits = []string{"wb", "wt"}
	spec.DeadlineMs = 1
	st := mustSubmit(t, s, spec)
	st = awaitTerminal(t, s, st.ID)
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if len(st.Failures) != 1 || !strings.Contains(st.Failures[0].Error, "deadline") {
		t.Fatalf("failures = %+v, want one deadline entry", st.Failures)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Errorf("job error %q should surface the deadline", st.Error)
	}
}

// TestDrainClosesAdmissions: after ctx cancellation Run returns nil
// and Submit sheds with a draining hint.
func TestDrainClosesAdmissions(t *testing.T) {
	s := newTestServer(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Run did not return after cancel")
	}
	_, rej, err := s.Submit(testSpec("tenant-a", ""))
	if err != nil || rej == nil {
		t.Fatalf("submit while draining: rej=%v err=%v, want rejection", rej, err)
	}
	if !strings.Contains(rej.Reason, "draining") {
		t.Errorf("reason %q should say draining", rej.Reason)
	}
	if h := s.Health(); h.Status != "draining" {
		t.Errorf("health = %q, want draining", h.Status)
	}
}

// TestRestartResumesQueuedJobs is the crash half of the contract: jobs
// admitted (and 202-acknowledged) by a process that never ran them are
// re-queued by the next process and produce golden results.
func TestRestartResumesQueuedJobs(t *testing.T) {
	cfg := testConfig(t)
	s1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec := testSpec("tenant-a", "req-1")
	admitted := mustSubmit(t, s1, spec)
	mustSubmit(t, s1, testSpec("tenant-b", "req-2"))
	// s1 is never Run and never drained — the process just dies.

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("New after restart: %v", err)
	}
	if m := s2.MetricsSnapshot(); m.JobsResumed != 2 {
		t.Fatalf("JobsResumed = %d, want 2", m.JobsResumed)
	}
	// The dedup index must survive too: a client retrying its submit
	// against the restarted server maps onto the journaled job.
	again := mustSubmit(t, s2, spec)
	if again.ID != admitted.ID {
		t.Fatalf("post-restart dedup returned %s, want %s", again.ID, admitted.ID)
	}

	stop := startRun(t, s2)
	defer stop()
	st := awaitTerminal(t, s2, admitted.ID)
	if st.State != StateDone {
		t.Fatalf("resumed job state = %s (error %q), want done", st.State, st.Error)
	}
	if want := golden(t, spec); !reflect.DeepEqual(st.Results[0].Rows, want) {
		t.Errorf("resumed rows differ from golden")
	}
}

// TestCompletedJobSurvivesRestart: terminal jobs keep their results
// across restarts and are not re-run.
func TestCompletedJobSurvivesRestart(t *testing.T) {
	cfg := testConfig(t)
	s1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stop := startRun(t, s1)
	spec := testSpec("tenant-a", "req-1")
	st := mustSubmit(t, s1, spec)
	st = awaitTerminal(t, s1, st.ID)
	stop()
	if st.State != StateDone {
		t.Fatalf("state = %s, want done", st.State)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("New after restart: %v", err)
	}
	if m := s2.MetricsSnapshot(); m.JobsResumed != 0 {
		t.Errorf("JobsResumed = %d, want 0 (job was terminal)", m.JobsResumed)
	}
	got, ok := s2.Job(st.ID)
	if !ok {
		t.Fatalf("job %s lost across restart", st.ID)
	}
	if got.State != StateDone || !reflect.DeepEqual(got.Results, st.Results) {
		t.Errorf("restored job differs from the one that completed")
	}
}

// TestHTTPAPI covers the submit/poll/list/health endpoints end to end
// over real HTTP.
func TestHTTPAPI(t *testing.T) {
	s := newTestServer(t, nil)
	stop := startRun(t, s)
	defer stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := testSpec("tenant-a", "req-http")
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode 202: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/sweeps/"+st.ID {
		t.Errorf("Location = %q, want /v1/sweeps/%s", loc, st.ID)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err = http.Get(ts.URL + "/v1/sweeps/" + st.ID)
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode status: %v", err)
		}
		resp.Body.Close()
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished over HTTP; state %s", st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", st.State, st.Error)
	}
	if want := golden(t, spec); !reflect.DeepEqual(st.Results[0].Rows, want) {
		t.Errorf("HTTP rows differ from golden")
	}

	// Invalid JSON and unknown jobs.
	resp, _ = http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader("{"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d, want 400", resp.StatusCode)
	}
	resp, _ = http.Get(ts.URL + "/v1/sweeps/j999999")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}

	// Tenant listing and health.
	resp, _ = http.Get(ts.URL + "/v1/tenants/tenant-a/sweeps")
	var listing struct {
		Tenant string      `json:"tenant"`
		Jobs   []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatalf("decode tenant list: %v", err)
	}
	resp.Body.Close()
	if len(listing.Jobs) != 1 || listing.Jobs[0].ID != st.ID {
		t.Errorf("tenant listing = %+v, want the one job", listing)
	}
	if len(listing.Jobs) == 1 && listing.Jobs[0].Results != nil {
		t.Errorf("tenant listing must be brief (no result payloads)")
	}
	resp, _ = http.Get(ts.URL + "/healthz")
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode health: %v", err)
	}
	resp.Body.Close()
	if h.Status != "ok" {
		t.Errorf("health = %q, want ok", h.Status)
	}
}

// TestHTTPShedding: a full queue answers 503 with a Retry-After header
// and a structured body.
func TestHTTPShedding(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Queue = 1 }) // no Run: the job stays queued
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(testSpec("tenant-a", ""))
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST = %d, want 202", resp.StatusCode)
	}

	body, _ = json.Marshal(testSpec("tenant-b", ""))
	start := time.Now()
	resp, err = http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var rej Rejection
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		t.Fatalf("decode 503 body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second POST = %d, want 503", resp.StatusCode)
	}
	if lat := time.Since(start); lat > 5*time.Second {
		t.Errorf("shedding took %s; rejections must be fast", lat)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("503 without Retry-After header")
	}
	if rej.RetryAfterMs <= 0 || rej.Reason == "" {
		t.Errorf("rejection body %+v incomplete", rej)
	}
}

// TestConcurrentTenants is the in-process load test: many tenants
// submitting at once (riding out shed responses), every job verified
// against the golden, under the race detector.
func TestConcurrentTenants(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Queue = 8 // small enough that shedding actually happens
		c.PerTenant = 2
		c.JobWorkers = 4
		c.SweepWorkers = 1
	})
	stop := startRun(t, s)
	defer stop()

	spec0 := testSpec("x", "")
	want := golden(t, spec0)

	const tenants, jobsPer = 8, 2
	var wg sync.WaitGroup
	errs := make(chan error, tenants*jobsPer)
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			for ji := 0; ji < jobsPer; ji++ {
				spec := testSpec(fmt.Sprintf("tenant-%02d", ti), fmt.Sprintf("req-%d", ji))
				var st JobStatus
				for { // ride out 503s like a well-behaved client
					got, rej, err := s.Submit(spec)
					if err != nil {
						errs <- fmt.Errorf("tenant %d: %v", ti, err)
						return
					}
					if rej == nil {
						st = got
						break
					}
					time.Sleep(5 * time.Millisecond)
				}
				deadline := time.Now().Add(120 * time.Second)
				for {
					got, ok := s.Job(st.ID)
					if !ok {
						errs <- fmt.Errorf("job %s lost", st.ID)
						return
					}
					if got.State.Terminal() {
						st = got
						break
					}
					if time.Now().After(deadline) {
						errs <- fmt.Errorf("job %s stuck in %s", st.ID, got.State)
						return
					}
					time.Sleep(10 * time.Millisecond)
				}
				if st.State != StateDone {
					errs <- fmt.Errorf("job %s: state %s (error %q)", st.ID, st.State, st.Error)
					return
				}
				if !reflect.DeepEqual(st.Results[0].Rows, want) {
					errs <- fmt.Errorf("job %s: rows differ from golden", st.ID)
					return
				}
			}
		}(ti)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := s.MetricsSnapshot()
	if m.JobsDone != tenants*jobsPer {
		t.Errorf("JobsDone = %d, want %d", m.JobsDone, tenants*jobsPer)
	}
}
