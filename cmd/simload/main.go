// Command simload is the load and chaos harness for simserved: it
// drives many concurrent tenant sessions against the service, and can
// spawn the server itself, SIGKILL it mid-run, restart it, and prove
// that nothing was lost.
//
// Targeting a running server:
//
//	simload -addr 127.0.0.1:8347 -clients 64 -jobs 2
//
// Chaos mode (spawn, kill, restart, drain):
//
//	go build -race -o simserved ./cmd/simserved
//	simload -spawn ./simserved -state /tmp/state -clients 64 -kills 3
//
// Every client computes the golden answer for its own jobs locally
// (same trace generator, same gang engine, same row arithmetic via
// serve.RowsFor) and requires the server's results to match exactly —
// across any number of SIGKILLs and restarts. It asserts:
//
//   - no admitted job is ever lost (a 202'd job must reach a terminal
//     state, surviving kills and restarts);
//   - no completed unit is lost or double-reported (each workload
//     appears exactly once with exactly one row per configuration, and
//     every row is byte-identical to the local golden);
//   - load shedding is bounded: 503 responses arrive within
//     -shed-latency, carry a Retry-After header, and (with -expect-shed)
//     actually happened;
//   - in spawn mode, a final SIGTERM drains cleanly (exit 0).
//
// Exit code 0 means every assertion held.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"time"

	"cachewrite/internal/cache"
	"cachewrite/internal/serve"
	"cachewrite/internal/sweep"
	"cachewrite/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8347", "server address (host:port)")
		spawn       = flag.String("spawn", "", "path to a simserved binary to spawn and chaos-test ('' = target an already-running server)")
		state       = flag.String("state", "", "state dir for the spawned server (required with -spawn)")
		serverFlags = flag.String("server-flags", "", "extra flags for the spawned server, space-separated")
		clients     = flag.Int("clients", 64, "concurrent tenant sessions")
		jobs        = flag.Int("jobs", 2, "jobs per client")
		kills       = flag.Int("kills", 3, "SIGKILL+restart cycles (spawn mode)")
		killEvery   = flag.Duration("kill-every", 1500*time.Millisecond, "delay between kill cycles")
		scale       = flag.Int("scale", 1, "workload scale factor for generated jobs")
		events      = flag.Int("events", 100_000, "per-trace event cap for generated jobs")
		seed        = flag.Int64("seed", 1, "spec-generation seed")
		timeout     = flag.Duration("timeout", 5*time.Minute, "overall harness deadline")
		shedLatency = flag.Duration("shed-latency", 5*time.Second, "max acceptable latency for a 503 response")
		expectShed  = flag.Bool("expect-shed", false, "fail unless at least one submit was shed with 503")
		tcache      = flag.String("tracecache", "auto", "on-disk trace cache dir for golden computation ('auto', 'off', or a path)")
	)
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	h := &harness{
		base:        "http://" + *addr,
		client:      &http.Client{Timeout: 30 * time.Second},
		shedLatency: *shedLatency,
		traces:      workload.NewSharedTraces(workload.ResolveCacheDir(*tcache), 16),
	}

	var proc *serverProc
	if *spawn != "" {
		if *state == "" {
			fmt.Fprintln(os.Stderr, "simload: -spawn requires -state")
			os.Exit(2)
		}
		proc = &serverProc{bin: *spawn, addr: *addr, state: *state, extra: strings.Fields(*serverFlags)}
		if err := proc.start(); err != nil {
			fatal(err)
		}
		defer proc.stop()
		if err := h.waitHealthy(ctx); err != nil {
			fatal(err)
		}
	}

	// Kill/restart cycles run concurrently with the client fleet.
	var chaosWG sync.WaitGroup
	if proc != nil && *kills > 0 {
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			for k := 1; k <= *kills; k++ {
				select {
				case <-ctx.Done():
					return
				case <-time.After(*killEvery):
				}
				fmt.Fprintf(os.Stderr, "simload: chaos: SIGKILL %d/%d\n", k, *kills)
				if err := proc.kill(); err != nil {
					h.violate("chaos kill %d: %v", k, err)
					return
				}
				h.killCount.Add(1)
				if err := proc.start(); err != nil {
					h.violate("chaos restart %d: %v", k, err)
					return
				}
				if err := h.waitHealthy(ctx); err != nil {
					h.violate("chaos restart %d: server never became healthy: %v", k, err)
					return
				}
			}
		}()
	}

	// The client fleet: every session submits its jobs, polls them to a
	// terminal state, and verifies the results against a local golden.
	specs := makeSpecs(*clients, *jobs, *scale, *events, *seed)
	var wg sync.WaitGroup
	for ci := 0; ci < *clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for ji, spec := range specs[ci] {
				h.runJob(ctx, fmt.Sprintf("c%02d/j%d", ci, ji), spec)
			}
		}(ci)
	}
	wg.Wait()
	chaosWG.Wait()

	if *expectShed && h.shed.Load() == 0 {
		h.violate("expected load shedding but every submit was admitted (queue never filled)")
	}

	if proc != nil {
		if err := proc.drain(30 * time.Second); err != nil {
			h.violate("SIGTERM drain: %v", err)
		}
	}

	h.mu.Lock()
	violations := h.violations
	h.mu.Unlock()
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "simload: VIOLATION:", v)
	}
	fmt.Fprintf(os.Stderr, "simload: %d jobs verified, %d submits shed (503), %d transport retries, %d kills\n",
		h.verified.Load(), h.shed.Load(), h.transportRetries.Load(), h.killCount.Load())
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "simload: FAIL — %d violation(s)\n", len(violations))
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "simload: OK")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simload:", err)
	os.Exit(1)
}

// makeSpecs deterministically builds every client's job specs from the
// seed: small grids over varied axes so jobs are quick but non-trivial
// and not all identical.
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

// harness is the shared assertion state.
type harness struct {
	base        string
	client      *http.Client
	shedLatency time.Duration
	traces      *workload.SharedTraces

	mu         sync.Mutex
	violations []string

	verified         countingInt
	shed             countingInt
	transportRetries countingInt
	killCount        countingInt
}

// countingInt is a tiny atomic counter (avoids importing sync/atomic
// types all over).
type countingInt struct {
	mu sync.Mutex
	n  int64
}

func (c *countingInt) Add(d int64) { c.mu.Lock(); c.n += d; c.mu.Unlock() }
func (c *countingInt) Load() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.n }

func (h *harness) violate(format string, args ...any) {
	h.mu.Lock()
	h.violations = append(h.violations, fmt.Sprintf(format, args...))
	h.mu.Unlock()
}

// waitHealthy polls /healthz until the server answers.
func (h *harness) waitHealthy(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := h.client.Get(h.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// runJob drives one job end to end: submit (riding out 503 shedding
// and dead-server windows), poll to a terminal state, verify golden.
func (h *harness) runJob(ctx context.Context, label string, spec serve.JobSpec) {
	id, ok := h.submit(ctx, label, spec)
	if !ok {
		return
	}
	st, ok := h.await(ctx, label, id)
	if !ok {
		return
	}
	h.verify(ctx, label, spec, st)
}

// submit posts the spec until it is admitted. The request carries a
// client-chosen request_id, so a retry after a crashed response is
// deduplicated server-side instead of double-admitting.
func (h *harness) submit(ctx context.Context, label string, spec serve.JobSpec) (string, bool) {
	body, err := json.Marshal(spec)
	if err != nil {
		h.violate("%s: marshal spec: %v", label, err)
		return "", false
	}
	for {
		if ctx.Err() != nil {
			h.violate("%s: harness deadline while submitting", label)
			return "", false
		}
		start := time.Now()
		resp, err := h.client.Post(h.base+"/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			// Dead-server window (the chaos goroutine killed it); retry.
			h.transportRetries.Add(1)
			sleepCtx(ctx, 200*time.Millisecond)
			continue
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			var st serve.JobStatus
			if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
				h.violate("%s: bad 202 body %q: %v", label, data, err)
				return "", false
			}
			return st.ID, true
		case http.StatusServiceUnavailable:
			h.shed.Add(1)
			if lat := time.Since(start); lat > h.shedLatency {
				h.violate("%s: 503 took %s (> %s); shedding must be fast", label, lat, h.shedLatency)
			}
			if resp.Header.Get("Retry-After") == "" {
				h.violate("%s: 503 without Retry-After header", label)
			}
			var rej serve.Rejection
			wait := 500 * time.Millisecond
			if json.Unmarshal(data, &rej) == nil && rej.RetryAfterMs > 0 {
				wait = time.Duration(rej.RetryAfterMs) * time.Millisecond
				if wait > 2*time.Second {
					wait = 2 * time.Second // keep the harness brisk; the hint is still asserted above
				}
			}
			sleepCtx(ctx, wait)
		default:
			h.violate("%s: submit got %d: %s", label, resp.StatusCode, data)
			return "", false
		}
	}
}

// await polls the job until it is terminal, riding out restarts. A 404
// for an admitted job is a lost-job violation — the journal must
// remember every 202.
func (h *harness) await(ctx context.Context, label, id string) (serve.JobStatus, bool) {
	for {
		if ctx.Err() != nil {
			h.violate("%s: harness deadline while awaiting %s", label, id)
			return serve.JobStatus{}, false
		}
		resp, err := h.client.Get(h.base + "/v1/sweeps/" + id)
		if err != nil {
			h.transportRetries.Add(1)
			sleepCtx(ctx, 200*time.Millisecond)
			continue
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			h.violate("%s: job %s LOST — admitted (202) but unknown after restart", label, id)
			return serve.JobStatus{}, false
		}
		if resp.StatusCode != http.StatusOK {
			h.transportRetries.Add(1)
			sleepCtx(ctx, 200*time.Millisecond)
			continue
		}
		var st serve.JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			h.violate("%s: bad status body for %s: %v", label, id, err)
			return serve.JobStatus{}, false
		}
		if st.State.Terminal() {
			return st, true
		}
		sleepCtx(ctx, 150*time.Millisecond)
	}
}

// verify recomputes the job locally and requires the server's answer
// to match exactly: complete, duplicate-free, and value-identical.
func (h *harness) verify(ctx context.Context, label string, spec serve.JobSpec, st serve.JobStatus) {
	if st.State != serve.StateDone {
		h.violate("%s: job %s ended %s (error %q, %d failures) — expected done",
			label, st.ID, st.State, st.Error, len(st.Failures))
		return
	}
	if st.UnitsDone != st.UnitsTotal {
		h.violate("%s: job %s done but units_done %d != units_total %d (lost or double-counted units)",
			label, st.ID, st.UnitsDone, st.UnitsTotal)
	}
	cfgs, err := spec.Configs()
	if err != nil {
		h.violate("%s: local config expansion: %v", label, err)
		return
	}
	if len(st.Results) != len(spec.Workloads) {
		h.violate("%s: job %s has %d workload results, want %d", label, st.ID, len(st.Results), len(spec.Workloads))
		return
	}
	seen := map[string]bool{}
	for _, res := range st.Results {
		if seen[res.Workload] {
			h.violate("%s: job %s DOUBLE-REPORTED workload %s", label, st.ID, res.Workload)
			continue
		}
		seen[res.Workload] = true
		want, err := h.golden(ctx, spec, res.Workload, cfgs)
		if err != nil {
			h.violate("%s: golden for %s: %v", label, res.Workload, err)
			continue
		}
		if len(res.Rows) != len(want) {
			h.violate("%s: job %s workload %s has %d rows, want %d (lost or duplicated units)",
				label, st.ID, res.Workload, len(res.Rows), len(want))
			continue
		}
		for i := range want {
			if !reflect.DeepEqual(res.Rows[i], want[i]) {
				h.violate("%s: job %s workload %s row %d differs from golden:\n  got  %+v\n  want %+v",
					label, st.ID, res.Workload, i, res.Rows[i], want[i])
				break
			}
		}
	}
	h.verified.Add(1)
}

// golden computes one workload's expected rows with the same engine
// the server uses.
func (h *harness) golden(ctx context.Context, spec serve.JobSpec, name string, cfgs []cache.Config) ([]serve.Row, error) {
	t, err := h.traces.Get(ctx, name, spec.Scale)
	if err != nil {
		return nil, err
	}
	if spec.Events > 0 && t.Len() > spec.Events {
		t = t.Slice(0, spec.Events)
	}
	stats, err := sweep.Gang(t, cfgs)
	if err != nil {
		return nil, err
	}
	return serve.RowsFor(cfgs, stats), nil
}

func sleepCtx(ctx context.Context, d time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// serverProc manages the spawned simserved subprocess.
type serverProc struct {
	bin   string
	addr  string
	state string
	extra []string

	mu  sync.Mutex
	cmd *exec.Cmd
}

func (p *serverProc) args() []string {
	base := []string{"-addr", p.addr, "-state", p.state}
	return append(base, p.extra...)
}

func (p *serverProc) start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	cmd := exec.Command(p.bin, p.args()...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawn %s: %w", p.bin, err)
	}
	p.cmd = cmd
	return nil
}

// kill SIGKILLs the server and reaps it — the crash the journals must
// survive.
func (p *serverProc) kill() error {
	p.mu.Lock()
	cmd := p.cmd
	p.cmd = nil
	p.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return errors.New("no server process")
	}
	if err := cmd.Process.Kill(); err != nil {
		return err
	}
	_ = cmd.Wait() // exit status of a SIGKILLed process is expectedly non-zero
	return nil
}

// drain SIGTERMs the server and requires a clean exit (code 0) within
// the timeout — the graceful-drain contract.
func (p *serverProc) drain(timeout time.Duration) error {
	p.mu.Lock()
	cmd := p.cmd
	p.cmd = nil
	p.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return errors.New("no server process")
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("server exited non-zero after SIGTERM: %w", err)
		}
		return nil
	case <-time.After(timeout):
		_ = cmd.Process.Kill()
		return fmt.Errorf("server did not drain within %s after SIGTERM", timeout)
	}
}

// stop reaps whatever is still running at harness exit.
func (p *serverProc) stop() {
	p.mu.Lock()
	cmd := p.cmd
	p.cmd = nil
	p.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}
}
