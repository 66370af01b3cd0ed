// Command simserved is the resident simulation service: a long-lived
// HTTP/JSON server that accepts sweep jobs from many concurrent
// tenant sessions and runs them on the gang engine with admission
// control, per-job deadlines, and crash-safe resume.
//
//	simserved -addr :8347 -state ./simserved-state
//
// Endpoints (see internal/serve):
//
//	POST /v1/sweeps                  submit a sweep job (202, 400, or
//	                                 503 + Retry-After under load)
//	GET  /v1/sweeps/{id}             job status, results, failures
//	GET  /v1/tenants/{tenant}/sweeps tenant job list
//	GET  /healthz                    ok / draining
//	GET  /statusz                    counters
//
// Crash safety: each admitted job's record is saved under
// -state/jobs/<id>.journal before the 202 is sent, and running sweeps
// checkpoint completed units under -state/sweeps. A SIGKILLed server
// re-invoked on the same -state resumes every unfinished job and
// reports byte-identical results. SIGTERM/SIGINT drain gracefully:
// admissions close, running jobs get -drain-grace to finish,
// stragglers are checkpointed, and any job record whose last save
// failed is saved again.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cachewrite/internal/serve"
	"cachewrite/internal/vfs"
	"cachewrite/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", ":8347", "listen address")
		state       = flag.String("state", "simserved-state", "state directory (job records + sweep checkpoints)")
		queue       = flag.Int("queue", 64, "max admitted-but-unfinished jobs across all tenants")
		perTenant   = flag.Int("per-tenant", 8, "max admitted-but-unfinished jobs per tenant")
		jobs        = flag.Int("jobs", 2, "concurrent job workers")
		sweepW      = flag.Int("sweep-workers", 0, "gang worker pool per job (0 = all CPUs)")
		maxConfigs  = flag.Int("max-configs", 4096, "per-job configuration-grid cap")
		maxEvents   = flag.Int("max-events", 2_000_000, "per-trace event cap applied to every job (<0 = unlimited)")
		deadline    = flag.Duration("deadline", 5*time.Minute, "default per-job execution deadline")
		maxDeadline = flag.Duration("deadline-max", 10*time.Minute, "cap on client-requested deadlines")
		drainGrace  = flag.Duration("drain-grace", 5*time.Second, "how long SIGTERM waits for running jobs before checkpointing them")
		tcache      = flag.String("tracecache", "auto", "on-disk trace cache dir ('auto' = user cache dir, 'off' = disable)")
		traceMem    = flag.Int("trace-mem", 16, "decoded traces shared in memory across sessions")
		seed        = flag.Int64("seed", 1, "jitter RNG seed for Retry-After hints")
		faultfs     = flag.String("faultfs", "", "storage fault plan for the state dir, e.g. seed=7,rate=0.02,kinds=torn+enospc+rename (chaos testing; see docs/faults.md)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Under -faultfs every durability-surface file operation goes
	// through a fault-injecting wrapper; the exit log reports what was
	// injected so the smoke harness can assert faults actually fired.
	var fsys vfs.FS
	var faulty *vfs.Faulty
	if *faultfs != "" {
		plan, err := vfs.ParsePlan(*faultfs)
		if err != nil {
			fail(err)
		}
		faulty = vfs.NewFaulty(vfs.OS{}, plan)
		fsys = faulty
		fmt.Fprintf(os.Stderr, "simserved: fault injection armed: %s\n", *faultfs)
	}

	srv, err := serve.New(serve.Config{
		StateDir:        *state,
		Queue:           *queue,
		PerTenant:       *perTenant,
		JobWorkers:      *jobs,
		SweepWorkers:    *sweepW,
		MaxConfigs:      *maxConfigs,
		MaxEvents:       *maxEvents,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		DrainGrace:      *drainGrace,
		TraceDir:        workload.ResolveCacheDir(*tcache),
		TraceMem:        *traceMem,
		Seed:            *seed,
		FS:              fsys,
		Now:             time.Now,
	})
	if err != nil {
		fail(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	httpErr := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			httpErr <- err
		}
		close(httpErr)
	}()
	fmt.Fprintf(os.Stderr, "simserved: listening on %s, state %s\n", ln.Addr(), *state)

	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(ctx) }()

	select {
	case err := <-httpErr:
		if err != nil {
			fail(err)
		}
	case err := <-runDone:
		// Run returns only after the drain completes; shut the listener
		// down last so clients could poll job state while we drained.
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shCtx)
		if err != nil {
			fail(err)
		}
	}
	if faulty != nil {
		fmt.Fprintf(os.Stderr, "simserved: fault injection tally: %s\n", faulty.CountsSnapshot())
	}
	fmt.Fprintln(os.Stderr, "simserved: drained cleanly")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "simserved:", err)
	os.Exit(1)
}
