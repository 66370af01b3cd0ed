package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"cachewrite/internal/cache"
	"cachewrite/internal/serve"
	"cachewrite/internal/sweep"
	"cachewrite/internal/trace"
	"cachewrite/internal/vfs"
	"cachewrite/internal/workload"
)

// The serve workload's open-loop load. The job count is the rate times
// --seconds, so a run is a fixed number of jobs; the rate stays below
// the capacity the server has left at the last job.
const (
	serveRate    = 10.0 // jobs per second
	serveTenants = 8
	serveScale   = 1
	jobEvents    = 100_000
	// pollEvery is the status poll interval, and so the resolution of
	// every poll-observed time (queue wait, run time, job latency).
	pollEvery = 5 * time.Millisecond
	// warmUpPoll polls the set-up's warm-up jobs finely, so the poll
	// interval adds little to the set-up time.
	warmUpPoll = time.Millisecond
	// sloLimit is the job latency above which a job misses its SLO.
	sloLimit = time.Second
	// maxLateP95 marks a run invalid: a generator this late no longer
	// offers the load it claims.
	maxLateP95 = 250 * time.Millisecond
	// jobTimeout bounds one job from due time to terminal state.
	jobTimeout = 60 * time.Second
)

// makeSpecs is cmd/simload's job mix: per client, seeded draws of one
// paper workload, a pair of adjacent sizes, lines 16/32,
// direct-mapped, write-back, and a pair of write-miss policies over
// the first events of the trace.
func makeSpecs(clients, jobs, scale, events int, seed int64) [][]serve.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	names := workload.PaperOrder()
	sizePool := []int{4096, 8192, 16384, 32768}
	missPool := [][]string{{"fow", "wv"}, {"wa", "wi"}, {"fow", "wa"}}
	out := make([][]serve.JobSpec, clients)
	for ci := range out {
		out[ci] = make([]serve.JobSpec, jobs)
		for ji := range out[ci] {
			wl := names[rng.Intn(len(names))]
			sz := sizePool[rng.Intn(len(sizePool)-1):][:2]
			out[ci][ji] = serve.JobSpec{
				Tenant:      fmt.Sprintf("tenant-%02d", ci),
				RequestID:   fmt.Sprintf("req-%02d-%d", ci, ji),
				Workloads:   []string{wl},
				Scale:       scale,
				Events:      events,
				Sizes:       sz,
				Lines:       []int{16, 32},
				Assocs:      []int{1},
				WriteHits:   []string{"wb"},
				WriteMisses: missPool[rng.Intn(len(missPool))],
			}
		}
	}
	return out
}

// jobMix is n jobs from makeSpecs, the tenants taking turns.
func jobMix(n int, seed int64) []serve.JobSpec {
	per := (n + serveTenants - 1) / serveTenants
	specs := makeSpecs(serveTenants, per, serveScale, jobEvents, seed)
	out := make([]serve.JobSpec, 0, n)
	for ji := 0; len(out) < n; ji++ {
		for ci := 0; ci < serveTenants && len(out) < n; ci++ {
			out = append(out, specs[ci][ji])
		}
	}
	return out
}

// server is one in-process serve.Server behind a loopback listener.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	state  string
	cancel context.CancelFunc
	ran    chan error // serve.Server.Run's result
	served chan error // http.Server.Serve's result
}

// startServer builds a server on a fresh state dir over fsys and starts
// its job workers and listener: JobWorkers × SweepWorkers = nproc.
func startServer(o *options, rec *Recorder, parent int, fsys vfs.FS) (*server, error) {
	state, err := os.MkdirTemp(o.stateDir, "serve-")
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{
		StateDir:     state,
		JobWorkers:   o.nproc,
		SweepWorkers: 1,
		TraceDir:     o.traceDir,
		FS:           fsys,
		Now:          time.Now,
		Logf:         func(string, ...any) {},
	}
	var srv *serve.Server
	timed(rec, "serve.New", parent, func() { srv, err = serve.New(cfg) })
	if err != nil {
		os.RemoveAll(state)
		return nil, err
	}
	var h http.Handler
	timed(rec, "serve.Handler", parent, func() { h = srv.Handler() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(state)
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{
		srv: srv, hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(),
		state: state, cancel: cancel, ran: make(chan error, 1), served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	go func() {
		// serve.Run spans the server's life, in a run of its own: it
		// overlaps every span of the benchmark's main run.
		id := rec.Start("serve.Run", 0, "server")
		err := srv.Run(ctx)
		rec.End(id)
		s.ran <- err
	}()
	return s, nil
}

// stop closes the listener and connections, drains the job workers,
// and returns once both goroutines have exited. The state dir stays
// until remove.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	herr := s.hs.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) && herr == nil {
		herr = err
	}
	s.cancel()
	if err := <-s.ran; err != nil {
		return err
	}
	return herr
}

func (s *server) remove() { os.RemoveAll(s.state) }

// client is the generator's HTTP client: at most nproc connections.
func newClient(nproc int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc},
		Timeout:   30 * time.Second,
	}
}

// submit posts one spec; shed reports a 503.
func submit(ctx context.Context, c *http.Client, base string, spec serve.JobSpec) (id string, shed bool, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return "", false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", false, err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		var st serve.JobStatus
		if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
			return "", false, fmt.Errorf("bad 202 body %q: %v", data, err)
		}
		return st.ID, false, nil
	case http.StatusServiceUnavailable:
		return "", true, nil
	default:
		return "", false, fmt.Errorf("submit: %d %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
}

// getJSON fetches base+path into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, v)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// jobObs is what the generator saw of one job.
type jobObs struct {
	spec serve.JobSpec
	due  time.Time
	sent time.Time
	// accepted is when the 202 arrived; notQueued is the first poll
	// that saw the job past queued, running the first that saw it
	// running, terminal the first that saw it terminal.
	accepted, notQueued, running, terminal time.Time
	polls                                  []time.Duration
	shed                                   bool
	err                                    error
	status                                 serve.JobStatus
}

// driveJob submits one job and polls it every poll until it reaches a
// terminal state. With a
// recorder, the job's spans share the run id run: load.job from due
// time to the terminal poll, split into the generator's lateness, the
// submit, and the wait, which holds the polls.
func driveJob(ctx context.Context, c *http.Client, base string, ob *jobObs, poll time.Duration, rec *Recorder, run string) {
	ctx, cancel := context.WithDeadline(ctx, ob.due.Add(jobTimeout))
	defer cancel()
	root := rec.Add("load.job", 0, run, ob.due, ob.due)
	defer rec.End(root)
	rec.Add("load.late", root, run, ob.due, ob.sent)
	sp := rec.Start("serve.submit", root, run)
	id, shed, err := submit(ctx, c, base, ob.spec)
	rec.End(sp)
	ob.accepted = time.Now()
	if err != nil || shed {
		ob.err, ob.shed = err, shed
		return
	}
	w := rec.Start("load.await", root, run)
	defer rec.End(w)
	for {
		if err := sleepCtx(ctx, poll); err != nil {
			ob.err = fmt.Errorf("job %s: %w", id, err)
			return
		}
		p := rec.Start("serve.poll", w, run)
		t0 := time.Now()
		var st serve.JobStatus
		err := getJSON(ctx, c, base+"/v1/sweeps/"+id, &st)
		now := time.Now()
		rec.End(p)
		ob.polls = append(ob.polls, now.Sub(t0))
		if err != nil {
			ob.err = err
			return
		}
		if st.State != serve.StateQueued && ob.notQueued.IsZero() {
			ob.notQueued = now
		}
		if st.State == serve.StateRunning && ob.running.IsZero() {
			ob.running = now
		}
		if st.State.Terminal() {
			ob.terminal, ob.status = now, st
			return
		}
	}
}

// openLoop offers specs to the server at serveRate, each job due at a
// fixed time whatever happened to earlier ones, and returns what every
// job saw and the phase's wall time, from the first due time to the
// last terminal poll.
func openLoop(ctx context.Context, o *options, s *server, rec *Recorder, specs []serve.JobSpec) ([]jobObs, time.Duration, error) {
	c := newClient(o.nproc)
	defer c.CloseIdleConnections()
	obs := make([]jobObs, len(specs))
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	var err error
	for i := range specs {
		due := start.Add(time.Duration(float64(i) * float64(time.Second) / serveRate))
		if err = sleepCtx(ctx, time.Until(due)); err != nil {
			break
		}
		obs[i].spec, obs[i].due, obs[i].sent = specs[i], due, time.Now()
		wg.Add(1)
		go func(ob *jobObs, run string) {
			defer wg.Done()
			driveJob(ctx, c, s.base, ob, pollEvery, rec, run)
		}(&obs[i], fmt.Sprintf("job-%d", i))
	}
	wg.Wait()
	return obs, time.Since(start), err
}

// warmUp runs one small job per paper workload, one after another, so
// every trace is decoded into the server's shared trace cache.
func warmUp(ctx context.Context, o *options, s *server) error {
	c := newClient(o.nproc)
	defer c.CloseIdleConnections()
	for _, name := range workload.PaperOrder() {
		now := time.Now()
		ob := jobObs{due: now, sent: now, spec: serve.JobSpec{
			Tenant: "warmup", RequestID: "warmup-" + name, Workloads: []string{name},
			Scale: serveScale, Events: jobEvents, Sizes: []int{8192},
		}}
		driveJob(ctx, c, s.base, &ob, warmUpPoll, nil, "")
		if ob.err != nil || ob.shed || ob.status.State != serve.StateDone {
			return fmt.Errorf("warm-up job %s: state %q shed %v: %v", name, ob.status.State, ob.shed, ob.err)
		}
	}
	return nil
}

// serveRun is one server's life in a serve run: set-up, and for the
// server that runs a phase, the phase's observations.
type serveRun struct {
	obs     []jobObs
	wall    time.Duration
	cpu     time.Duration // process CPU time over the phase
	statusz serve.Metrics
	journal int64 // jobs.journal size after the final drain
}

// runServe runs the serve workload.
func runServe(ctx context.Context, o *options, rec *Recorder) (*outcome, error) {
	out := newOutcome()
	n := max(1, int(serveRate*float64(o.seconds)))
	specs := jobMix(n, o.seed)
	out.attempted = n
	root := rec.Start("bench.run", 0, mainRun)

	// Fill the trace cache first (untimed): only the first run in a
	// checkout generates.
	var err error
	timed(rec, "workload.GenerateAllCached", root, func() { _, err = workload.GenerateAllCached(o.traceDir, serveScale) })
	if err != nil {
		return nil, err
	}
	var setups []time.Duration
	// life sets up one server, and when phase is set calls onPhase (if
	// any) and runs the open loop on it; then it stops the server and removes its
	// state. Its spans go under parent.
	life := func(fsys vfs.FS, phase bool, phaseRec *Recorder, parent int, onPhase func()) (serveRun, error) {
		var r serveRun
		debug.FreeOSMemory() // each set-up starts from the same heap, its memory fresh from the OS as in a new process
		sp := rec.Start("bench.setup", parent, mainRun)
		start := time.Now()
		s, err := startServer(o, rec, sp, fsys)
		if err != nil {
			rec.End(sp)
			return r, err
		}
		defer s.remove()
		timed(rec, "serve.warmup", sp, func() { err = warmUp(ctx, o, s) })
		setups = append(setups, time.Since(start))
		rec.End(sp)
		if err == nil && phase {
			c := newClient(1)
			defer c.CloseIdleConnections()
			if onPhase != nil {
				onPhase()
			}
			p := rec.Start("serve.phase", parent, mainRun)
			cpu0 := cpuTime()
			r.obs, r.wall, err = openLoop(ctx, o, s, phaseRec, specs)
			r.cpu = cpuTime() - cpu0
			rec.End(p)
			if err == nil {
				err = getJSON(ctx, c, s.base+"/statusz", &r.statusz)
			}
		}
		if serr := s.stop(); err == nil {
			err = serr
		}
		if fi, serr := os.Stat(filepath.Join(s.state, "jobs.journal")); serr == nil {
			r.journal = fi.Size()
		}
		return r, err
	}

	if !o.trace {
		for i := 0; i < setupRepeats-1; i++ {
			if _, err := life(nil, false, nil, root, nil); err != nil {
				return nil, err
			}
		}
		r, err := life(nil, true, nil, root, nil)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		ts, err := workload.GenerateAllCached(o.traceDir, serveScale)
		if err != nil {
			return nil, err
		}
		summarizeServe(out, r, ts)
		out.metrics["setup_s"] = medianDur(setups).Seconds()
		out.notef("set-up times %v", setups)
		out.metrics["wall_s"] = r.wall.Seconds()
		out.metrics["cpu_s"] = r.cpu.Seconds()
		out.metrics["peak_rss_mb"] = rss
		out.metrics["ok_frac"] = 1 - float64(out.failed)/float64(out.attempted)
		hashTraces(out, ts)
		return out, nil
	}

	// Traced run: a discarded set-up, the untraced phase as the overhead
	// baseline, then the traced phase on a server whose state dir sits
	// behind the counting filesystem.
	if _, err := life(nil, false, nil, root, nil); err != nil {
		return nil, err
	}
	b := rec.Start("bench.baseline", root, mainRun)
	base, err := life(nil, true, nil, b, nil)
	rec.End(b)
	if err != nil {
		return nil, err
	}
	cfs := NewCountingFS(vfs.OS{})
	var before FSCounts
	// The counts start after set-up, so they cover the phase alone.
	r, err := life(cfs, true, rec, root, func() { before = cfs.Counts() })
	if err != nil {
		return nil, err
	}
	after := cfs.Counts()
	var ts []*trace.Trace
	timed(rec, "workload.GenerateAllCached", root, func() { ts, err = workload.GenerateAllCached(o.traceDir, serveScale) })
	if err != nil {
		return nil, err
	}
	baseOut := newOutcome()
	summarizeServe(baseOut, base, ts)
	v := rec.Start("bench.verify", root, mainRun)
	summarizeServe(out, r, ts)
	rec.End(v)
	if baseOut.failed > 0 {
		out.fail(baseOut.failed, "untraced baseline phase: %d jobs failed", baseOut.failed)
	}
	out.attempted += n
	// The open loop fixes the phase's wall time, so the tracing overhead
	// is judged on the median job latency, which spans could slow.
	out.metrics["trace_overhead_frac"] = out.metrics["serve.job_p50_ms"]/baseOut.metrics["serve.job_p50_ms"] - 1
	jobs := float64(n)
	out.metrics["resilience.syncs_per_job"] = float64(after.Ops["Sync"]-before.Ops["Sync"]) / jobs
	out.metrics["resilience.bytes_per_job"] = float64(after.BytesWritten-before.BytesWritten) / jobs
	out.metrics["resilience.sync_ms_per_job"] = millis(after.SyncTime-before.SyncTime) / jobs
	out.metrics["resilience.journal_bytes_final"] = float64(r.journal)
	out.notef("counting FS over the phase: %v", diffOps(before.Ops, after.Ops))

	if err := cachePass(rec, root, out, ts, specConfigs(specs)); err != nil {
		return nil, err
	}
	rec.End(root)
	hashTraces(out, ts)
	out.metrics["fail_frac"] = float64(out.failed) / float64(out.attempted)
	return out, addBreakdown(out, rec, root)
}

// summarizeServe checks every job of a phase and reports its
// latencies. A job fails when it errs, is shed, does not end done, or
// returns rows that differ from serve.RowsFor over a local sweep.Gang
// of the same trace prefix and configurations (simload's golden rule).
// Job latency runs from due time to the terminal poll; a failed job
// also misses the SLO.
func summarizeServe(out *outcome, r serveRun, ts []*trace.Trace) {
	byName := map[string]*trace.Trace{}
	for _, t := range ts {
		byName[t.Name] = t
	}
	want := map[string][]serve.Row{}
	var (
		jobMs, submitMs, pollMs, lateMs, waitMs, runMs []float64
		failed, sloMiss, shed                          int
	)
	for i := range r.obs {
		ob := &r.obs[i]
		lateMs = append(lateMs, millis(ob.sent.Sub(ob.due)))
		for _, p := range ob.polls {
			pollMs = append(pollMs, millis(p))
		}
		if why := checkJob(ob, byName, want); why != "" {
			if ob.shed {
				shed++
			}
			failed++
			sloMiss++
			out.notef("job %d (%s): %s", i, ob.spec.RequestID, why)
			continue
		}
		lat := ob.terminal.Sub(ob.due)
		if lat > sloLimit {
			sloMiss++
		}
		jobMs = append(jobMs, millis(lat))
		submitMs = append(submitMs, millis(ob.accepted.Sub(ob.due)))
		waitMs = append(waitMs, millis(ob.notQueued.Sub(ob.accepted)))
		if !ob.running.IsZero() {
			runMs = append(runMs, millis(ob.terminal.Sub(ob.running)))
		}
	}
	if failed > 0 {
		out.fail(failed, "%d of %d serve jobs failed, were shed or returned wrong rows", failed, len(r.obs))
	}
	n := float64(len(r.obs))
	out.metrics["serve.slo_miss_frac"] = float64(sloMiss) / n
	out.metrics["serve.shed"] = float64(r.statusz.RejectedQueue + r.statusz.RejectedTenant + r.statusz.RejectedBreaker + r.statusz.RejectedDraining)
	out.metrics["serve.units_retried"] = float64(r.statusz.UnitsRetried)
	out.notef("serve: %d jobs at %.1f/s, poll interval %s (the resolution of job, queue-wait and run times), %d shed, SLO %s missed by %d",
		len(r.obs), serveRate, pollEvery, shed, sloLimit, sloMiss)
	for _, q := range []struct {
		name string
		xs   []float64
	}{
		{"serve.job", jobMs}, {"serve.submit", submitMs}, {"serve.poll", pollMs},
	} {
		m, ok := Median(q.xs)
		out.quantile(q.name+"_p50_ms", m, ok)
		t, ok := Tail(q.xs, 0.95)
		out.quantile(q.name+"_p95_ms", t, ok)
	}
	m, ok := Median(waitMs)
	out.quantile("serve.queue_wait_ms_p50", m, ok)
	m, ok = Median(runMs)
	out.quantile("serve.run_ms_p50", m, ok)
	late, ok := Tail(lateMs, 0.95)
	out.quantile("load.late_p95_ms", late, ok)
	if ok && late.Value > millis(maxLateP95) {
		out.fail(1, "generator lateness p%.1f %.1fms exceeds %s: the run did not offer its load", 100*late.P, late.Value, maxLateP95)
	}
}

// checkJob returns why a job failed, or "" when it ended done with
// exactly the golden rows.
func checkJob(ob *jobObs, traces map[string]*trace.Trace, want map[string][]serve.Row) string {
	switch {
	case ob.due.IsZero():
		return "never submitted"
	case ob.shed:
		return "shed (503)"
	case ob.err != nil:
		return ob.err.Error()
	case ob.status.State != serve.StateDone:
		return fmt.Sprintf("ended %s: %s", ob.status.State, ob.status.Error)
	case ob.status.UnitsDone != ob.status.UnitsTotal:
		return fmt.Sprintf("done with %d of %d units", ob.status.UnitsDone, ob.status.UnitsTotal)
	case len(ob.status.Results) != 1 || ob.status.Results[0].Workload != ob.spec.Workloads[0]:
		return fmt.Sprintf("results for %d workloads, want exactly %s", len(ob.status.Results), ob.spec.Workloads[0])
	}
	cfgs, err := ob.spec.Configs()
	if err != nil {
		return err.Error()
	}
	key := fmt.Sprint(ob.spec.Workloads, ob.spec.Events, cfgs)
	rows, ok := want[key]
	if !ok {
		t := traces[ob.spec.Workloads[0]]
		if t == nil {
			return "no local trace for " + ob.spec.Workloads[0]
		}
		stats, err := sweep.Gang(prefix(t, ob.spec.Events), cfgs)
		if err != nil {
			return "golden: " + err.Error()
		}
		rows = serve.RowsFor(cfgs, stats)
		want[key] = rows
	}
	if !reflect.DeepEqual(ob.status.Results[0].Rows, rows) {
		return "rows differ from the golden"
	}
	return ""
}

// specConfigs is the union of the job mix's configurations, in first
// appearance order.
func specConfigs(specs []serve.JobSpec) []cache.Config {
	seen := map[cache.Config]bool{}
	var cfgs []cache.Config
	for _, s := range specs {
		cs, err := s.Configs()
		if err != nil {
			continue // an invalid spec fails its job; it adds nothing here
		}
		for _, c := range cs {
			if !seen[c] {
				seen[c] = true
				cfgs = append(cfgs, c)
			}
		}
	}
	return cfgs
}

// diffOps is after minus before, per operation.
func diffOps(before, after map[string]int) map[string]int {
	d := map[string]int{}
	for k, v := range after {
		if v != before[k] {
			d[k] = v - before[k]
		}
	}
	return d
}
