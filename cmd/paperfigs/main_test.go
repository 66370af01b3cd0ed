package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cachewrite/internal/experiments"
	"cachewrite/internal/resilience"
	"cachewrite/internal/trace"
	"cachewrite/internal/vfs"
	"cachewrite/internal/workload"
)

// fastEnv swaps the env constructor for one built from tiny synthetic
// traces, so CLI tests run in milliseconds instead of generating the
// full paper workloads.
func fastEnv(t *testing.T) {
	t.Helper()
	prevEnv := newEnv
	newEnv = func(scale int, cacheDir string) (*experiments.Env, error) {
		names := workload.PaperOrder()
		ts := make([]*trace.Trace, len(names))
		for i, name := range names {
			r := rand.New(rand.NewSource(int64(i + 1)))
			tr := &trace.Trace{Name: name}
			hot := make([]uint32, 24)
			for j := range hot {
				hot[j] = uint32(r.Intn(1<<13)) &^ 7
			}
			for j := 0; j < 2000; j++ {
				addr := hot[r.Intn(len(hot))]
				if r.Intn(4) == 0 {
					addr = uint32(r.Intn(1<<19)) &^ 7
				}
				k := trace.Read
				if r.Intn(3) == 0 {
					k = trace.Write
				}
				tr.Append(trace.Event{Addr: addr, Size: 4, Gap: uint16(r.Intn(6)), Kind: k})
			}
			ts[i] = tr
		}
		return experiments.NewEnvFromTraces(ts), nil
	}
	t.Cleanup(func() { newEnv = prevEnv })
}

// runCLI drives run() and returns (exit code, stdout, stderr).
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunSingleExperiment(t *testing.T) {
	fastEnv(t)
	code, out, stderr := runCLI(t, "-id", "fig13", "-tracecache", "off", "-failures", "")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(out, "miss") && !strings.Contains(out, "Miss") {
		t.Fatalf("fig13 output looks empty:\n%s", out)
	}
}

// TestRunFailingExperimentDegrades is the graceful-degradation
// acceptance check: one experiment fails, every other figure is still
// emitted, the failure lands in the manifest, and the exit code is 1.
func TestRunFailingExperimentDegrades(t *testing.T) {
	fastEnv(t)
	prevRun := runExperiment
	runExperiment = func(env *experiments.Env, id string) (experiments.Result, error) {
		if id == "fig14" {
			return experiments.Result{}, fmt.Errorf("injected fault")
		}
		return prevRun(env, id)
	}
	t.Cleanup(func() { runExperiment = prevRun })

	manifest := filepath.Join(t.TempDir(), "failures.json")
	code, out, stderr := runCLI(t,
		"-id", "fig13,fig14,fig15", "-tracecache", "off", "-failures", manifest)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	// The other figures still rendered (chart titles are uppercase).
	if !strings.Contains(out, "FIG13") || !strings.Contains(out, "FIG15") {
		t.Fatalf("healthy figures missing from output:\n%s", out)
	}
	if strings.Contains(out, "FIG14") {
		t.Fatalf("failed figure rendered output:\n%s", out)
	}
	// The manifest names the failure.
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m failureManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v\n%s", err, data)
	}
	if m.Tool != "paperfigs" || len(m.Failures) != 1 || m.Failures[0].ID != "fig14" {
		t.Fatalf("manifest %+v", m)
	}
	if !strings.Contains(m.Failures[0].Error, "injected fault") {
		t.Fatalf("manifest error %q", m.Failures[0].Error)
	}

	// A subsequent clean run removes the stale manifest.
	runExperiment = prevRun
	code, _, stderr = runCLI(t, "-id", "fig13", "-tracecache", "off", "-failures", manifest)
	if code != 0 {
		t.Fatalf("clean re-run exited %d:\n%s", code, stderr)
	}
	if _, err := os.Stat(manifest); !os.IsNotExist(err) {
		t.Fatalf("stale manifest survived a clean run (stat err %v)", err)
	}
}

// TestManifestSurvivesCrash writes the failures manifest on a Mem
// filesystem, where renames are durable at once but file data only up
// to its last Sync, and cuts the power: the manifest must still decode.
// Without the Sync before the rename it reads back empty.
func TestManifestSurvivesCrash(t *testing.T) {
	mem := vfs.NewMem()
	s := &session{fs: mem, scale: 2, failures: []manifestEntry{{ID: "fig14", Error: "injected fault"}}}
	if err := s.writeManifest("failures.json"); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	data, err := mem.ReadFile("failures.json")
	if err != nil {
		t.Fatal(err)
	}
	var m failureManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest after crash does not decode: %v (%d bytes)", err, len(data))
	}
	if m.Tool != "paperfigs" || m.Scale != 2 || len(m.Failures) != 1 || m.Failures[0].ID != "fig14" {
		t.Fatalf("manifest after crash: %+v", m)
	}
}

// TestInterruptedReportKeepsOldReport cancels a -report run part-way:
// the report from an earlier run must be left byte-identical, with no
// temp file beside it.
func TestInterruptedReportKeepsOldReport(t *testing.T) {
	fastEnv(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prevRun := runExperiment
	runExperiment = func(env *experiments.Env, id string) (experiments.Result, error) {
		if id == "fig13" {
			cancel()
		}
		return prevRun(env, id)
	}
	t.Cleanup(func() { runExperiment = prevRun })

	dir := t.TempDir()
	report := filepath.Join(dir, "report.md")
	old := []byte("# an earlier report\n")
	if err := os.WriteFile(report, old, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run(ctx, []string{"-report", report, "-tracecache", "off", "-failures", ""}, &out, &errb)
	if code != resilience.ExitInterrupted {
		t.Fatalf("exit %d, want %d; stderr:\n%s", code, resilience.ExitInterrupted, errb.String())
	}
	if data, err := os.ReadFile(report); err != nil || !bytes.Equal(data, old) {
		t.Fatalf("report after an interrupted run: %q, %v; want %q", data, err, old)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("directory holds %v (%v), want the report alone", ents, err)
	}
}

// TestReportSurvivesCrash writes the report on a Mem filesystem and
// cuts the power, as TestManifestSurvivesCrash does for the manifest:
// the report must read back whole.
func TestReportSurvivesCrash(t *testing.T) {
	prevRun := runExperiment
	runExperiment = func(*experiments.Env, string) (experiments.Result, error) {
		return experiments.Result{}, nil
	}
	t.Cleanup(func() { runExperiment = prevRun })

	mem := vfs.NewMem()
	s := &session{ctx: context.Background(), fs: mem, stderr: io.Discard, scale: 2,
		state: resultsState{Results: map[string]experiments.Result{}}}
	if err := s.writeReport("report.md"); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	data, err := mem.ReadFile("report.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "# Cache Write Policies") ||
		!strings.HasSuffix(string(data), experiments.Diagram("fig12")+"\n```\n\n") {
		t.Fatalf("report after crash is not whole (%d bytes):\n%s", len(data), data)
	}
}

// TestRunCheckpointResume kills a run after one experiment (simulated
// by a failing second experiment), then re-runs: the completed
// experiment must be restored from the results journal, not
// recomputed, and the final output must be byte-identical to an
// uninterrupted run.
func TestRunCheckpointResume(t *testing.T) {
	fastEnv(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	manifest := filepath.Join(dir, "failures.json")

	// Golden: uninterrupted run.
	code, want, stderr := runCLI(t,
		"-id", "fig13,fig14", "-tracecache", "off", "-failures", "")
	if code != 0 {
		t.Fatalf("golden run exited %d:\n%s", code, stderr)
	}

	// First attempt: fig13 completes and checkpoints, fig14 fails.
	prevRun := runExperiment
	computed := map[string]int{}
	runExperiment = func(env *experiments.Env, id string) (experiments.Result, error) {
		computed[id]++
		if id == "fig14" {
			return experiments.Result{}, fmt.Errorf("injected crash")
		}
		return prevRun(env, id)
	}
	t.Cleanup(func() { runExperiment = prevRun })

	code, _, stderr = runCLI(t,
		"-id", "fig13,fig14", "-tracecache", "off",
		"-checkpoint", ckpt, "-failures", manifest)
	if code != 1 {
		t.Fatalf("interrupted run exited %d:\n%s", code, stderr)
	}
	if _, err := os.Stat(ckpt + ".results"); err != nil {
		t.Fatalf("no results journal after failure: %v", err)
	}

	// Resume: fig14 now works. fig13 must come from the journal.
	runExperiment = func(env *experiments.Env, id string) (experiments.Result, error) {
		computed[id]++
		return prevRun(env, id)
	}
	code, got, stderr := runCLI(t,
		"-id", "fig13,fig14", "-tracecache", "off",
		"-checkpoint", ckpt, "-failures", manifest)
	if code != 0 {
		t.Fatalf("resumed run exited %d:\n%s", code, stderr)
	}
	if got != want {
		t.Fatalf("resumed output differs from uninterrupted run:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if computed["fig13"] != 1 {
		t.Fatalf("fig13 computed %d times, want 1 (resume should restore it)", computed["fig13"])
	}
	if !strings.Contains(stderr, "resuming") {
		t.Fatalf("no resume notice in stderr:\n%s", stderr)
	}
	// Clean completion removes the journal and the manifest.
	if _, err := os.Stat(ckpt + ".results"); !os.IsNotExist(err) {
		t.Fatalf("results journal survived a clean run (stat err %v)", err)
	}
	if _, err := os.Stat(manifest); !os.IsNotExist(err) {
		t.Fatalf("manifest survived a clean run (stat err %v)", err)
	}
}

// TestRunStaleCheckpointIgnored: a journal written at a different
// scale must not be applied.
func TestRunStaleCheckpointIgnored(t *testing.T) {
	fastEnv(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")

	j := resilience.NewJournal[resultsState](ckpt+".results", "paperfigs-results", resultsVersion)
	stale := resultsState{Scale: 99, GeneratorVersion: workload.GeneratorVersion,
		Results: map[string]experiments.Result{"fig13": {}}}
	if err := j.Save(stale); err != nil {
		t.Fatal(err)
	}

	code, out, stderr := runCLI(t,
		"-id", "fig13", "-tracecache", "off", "-checkpoint", ckpt, "-failures", "")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "different inputs") {
		t.Fatalf("stale journal accepted silently:\n%s", stderr)
	}
	if len(strings.TrimSpace(out)) == 0 {
		t.Fatal("stale empty result rendered instead of recomputing")
	}
}

// TestRunInterruptedExitCode: a pre-cancelled context exits with the
// distinct resume code and leaves the journal in place.
func TestRunInterruptedExitCode(t *testing.T) {
	fastEnv(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb bytes.Buffer
	code := run(ctx, []string{"-all", "-tracecache", "off", "-checkpoint", ckpt, "-failures", ""},
		&out, &errb)
	if code != resilience.ExitInterrupted {
		t.Fatalf("exit %d, want %d; stderr:\n%s", code, resilience.ExitInterrupted, errb.String())
	}
	if !strings.Contains(errb.String(), "resume") {
		t.Fatalf("no resume hint:\n%s", errb.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Fatalf("no-args exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "-bogus"); code != 2 {
		t.Fatalf("bad-flag exit %d, want 2", code)
	}
}

// TestRunListNeedsNoSim ensures -list never touches the simulator or
// the filesystem.
func TestRunListNeedsNoSim(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 || !strings.Contains(out, "fig13") {
		t.Fatalf("exit %d out:\n%s", code, out)
	}
}
