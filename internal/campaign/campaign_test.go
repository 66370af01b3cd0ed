package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cachewrite/internal/faults"
	"cachewrite/internal/resilience"
)

func testConfig(t *testing.T, trials int) Config {
	t.Helper()
	arms, err := ParseArms("wt+parity,wb+ecc,wb+parity", Options{
		ErrorEvery: 50, ScrubInterval: 2000, XactFaultEvery: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{Arms: arms, Trials: trials, Seed: 1, TraceEvents: 5000}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunDeterministicJSON is the acceptance check: the same seed
// produces byte-identical JSON output across runs.
func TestRunDeterministicJSON(t *testing.T) {
	cfg := testConfig(t, 4)
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, jb := mustJSON(t, a), mustJSON(t, b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same seed produced different JSON:\n%s\n----\n%s", ja, jb)
	}
	if a.TrialsCompleted != cfg.Trials {
		t.Fatalf("completed %d/%d trials", a.TrialsCompleted, cfg.Trials)
	}
}

// TestRunSeedMatters guards against the opposite failure: a campaign
// that ignores its seed would pass the determinism test trivially.
func TestRunSeedMatters(t *testing.T) {
	cfg := testConfig(t, 2)
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(mustJSON(t, a), mustJSON(t, b)) {
		t.Fatal("different seeds produced identical results")
	}
}

// TestRunPairedTrials checks trial pairing: every arm replays the same
// traces, so access counts agree across arms.
func TestRunPairedTrials(t *testing.T) {
	res, err := Run(context.Background(), testConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range res.Arms[1:] {
		if arm.Report.Accesses != res.Arms[0].Report.Accesses {
			t.Errorf("arm %s saw %d accesses, arm %s saw %d — trials not paired",
				arm.Name, arm.Report.Accesses, res.Arms[0].Name, res.Arms[0].Report.Accesses)
		}
	}
}

// TestRunSchemeOrdering checks the campaign-level §3 reproduction:
// the write-through + parity arm loses no clean-array data while the
// write-back parity-only arm is the most vulnerable protected arm.
func TestRunSchemeOrdering(t *testing.T) {
	res, err := Run(context.Background(), testConfig(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ArmResult{}
	for _, a := range res.Arms {
		byName[a.Name] = a
	}
	wtp := byName["wt+parity"].Report
	for _, l := range []faults.Layer{faults.LayerL1, faults.LayerL2} {
		if lr := wtp.Layer(l); lr.DUE != 0 || lr.SDC != 0 {
			t.Errorf("wt+parity %s lost clean data: %+v", l, lr)
		}
	}
	wbp := byName["wb+parity"].Report.Total()
	wbe := byName["wb+ecc"].Report.Total()
	if !(wbe.DUE < wbp.DUE) {
		t.Errorf("wb+ecc DUE %d should be below wb+parity DUE %d", wbe.DUE, wbp.DUE)
	}
	if wtp.Total().DUE >= wbp.DUE {
		t.Errorf("wt+parity DUE %d should be below wb+parity DUE %d", wtp.Total().DUE, wbp.DUE)
	}
}

// TestRunCheckpointResume cancels a campaign before any work,
// verifies a checkpoint lands, then resumes to completion: the result
// must be byte-identical to an uninterrupted run, and the completed
// campaign must remove its checkpoint.
func TestRunCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "camp.ckpt")

	cfg := testConfig(t, 6)
	want, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.CheckpointPath = ckpt
	cfg.CheckpointEvery = 1
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err = Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	if _, statErr := os.Stat(ckpt); statErr != nil {
		t.Fatalf("no checkpoint after cancellation: %v", statErr)
	}

	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, res), mustJSON(t, want)) {
		t.Fatalf("resumed result differs from uninterrupted result")
	}
	if _, statErr := os.Stat(ckpt); !os.IsNotExist(statErr) {
		t.Errorf("completed campaign left its checkpoint behind (stat err %v)", statErr)
	}
}

// TestRunCheckpointMidway resumes from a genuine mid-campaign
// checkpoint: the first 3 trials run as their own campaign (trial
// seeds depend only on (master seed, trial position), so the prefix
// accumulates identically), their totals are written as a Done=3
// checkpoint of the 6-trial campaign, and the resumed run must finish
// byte-identical to an uninterrupted 6-trial run.
func TestRunCheckpointMidway(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "camp.ckpt")

	cfg := testConfig(t, 6)
	want, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	prefix := cfg
	prefix.Trials = 3
	pres, err := Run(context.Background(), prefix)
	if err != nil {
		t.Fatal(err)
	}
	ck := checkpoint{
		Seed:        cfg.Seed,
		Trials:      cfg.Trials,
		TraceEvents: cfg.TraceEvents,
		Done:        3,
	}
	for _, a := range pres.Arms {
		ck.ArmNames = append(ck.ArmNames, a.Name)
		ck.Reports = append(ck.Reports, a.Report)
	}
	if err := saveCheckpoint(ckpt, &ck); err != nil {
		t.Fatal(err)
	}

	cfg.CheckpointPath = ckpt
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, res), mustJSON(t, want)) {
		t.Fatalf("resume from trial 3 differs from uninterrupted run:\n%s\n----\n%s",
			mustJSON(t, res), mustJSON(t, want))
	}
}

// TestCheckpointWithWritePctResumes: checkpoints written when the
// store percentage was a Config field carry "writePct": 40. Decoding
// ignores that field, so such a checkpoint still resumes under the same
// journal version and finishes byte-identical to an uninterrupted run.
func TestCheckpointWithWritePctResumes(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "camp.ckpt")
	cfg := testConfig(t, 4)
	want, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefix := cfg
	prefix.Trials = 2
	pres, err := Run(context.Background(), prefix)
	if err != nil {
		t.Fatal(err)
	}
	type oldCheckpoint struct {
		checkpoint
		WritePct int `json:"writePct"`
	}
	old := oldCheckpoint{checkpoint{Seed: cfg.Seed, Trials: cfg.Trials, TraceEvents: cfg.TraceEvents, Done: 2}, writePct}
	for _, a := range pres.Arms {
		old.ArmNames = append(old.ArmNames, a.Name)
		old.Reports = append(old.Reports, a.Report)
	}
	if err := resilience.NewJournal[oldCheckpoint](ckpt, "campaign", checkpointVersion).Save(old); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(ckpt); err != nil || !bytes.Contains(data, []byte(`"writePct":40`)) {
		t.Fatalf("old-format checkpoint lacks writePct (err %v)", err)
	}

	ck, err := loadCheckpoint(ckpt, cfg, nil)
	if err != nil || ck == nil || ck.Done != 2 {
		t.Fatalf("checkpoint carrying writePct not resumed: %+v, %v", ck, err)
	}
	cfg.CheckpointPath = ckpt
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, res), mustJSON(t, want)) {
		t.Fatalf("resume from a checkpoint carrying writePct differs from an uninterrupted run:\n%s\n----\n%s",
			mustJSON(t, res), mustJSON(t, want))
	}
}

// TestCheckpointCorruptFallsBack: a corrupt current snapshot must fall
// back to the previous good one and still finish byte-identical to an
// uninterrupted run; when both snapshots are corrupt the campaign
// starts fresh instead of failing — with the same final result.
func TestCheckpointCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "camp.ckpt")

	cfg := testConfig(t, 6)
	want, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Two snapshots (Done=1 rotated to .prev, Done=2 current), then a
	// corrupted current: resume must use the rotation.
	mk := func(done int) *checkpoint {
		prefix := cfg
		prefix.Trials = done
		pres, err := Run(context.Background(), prefix)
		if err != nil {
			t.Fatal(err)
		}
		ck := &checkpoint{Seed: cfg.Seed, Trials: cfg.Trials, TraceEvents: cfg.TraceEvents,
			Done: done}
		for _, a := range pres.Arms {
			ck.ArmNames = append(ck.ArmNames, a.Name)
			ck.Reports = append(ck.Reports, a.Report)
		}
		return ck
	}
	if err := saveCheckpoint(ckpt, mk(1)); err != nil {
		t.Fatal(err)
	}
	if err := saveCheckpoint(ckpt, mk(2)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, []byte("torn snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	var warnings []string
	cfg.CheckpointPath = ckpt
	cfg.Logf = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, res), mustJSON(t, want)) {
		t.Fatal("fallback resume differs from uninterrupted run")
	}
	if len(warnings) == 0 {
		t.Fatal("corrupt snapshot produced no warning")
	}

	// Both snapshots corrupt: start fresh, same result.
	cfg2 := testConfig(t, 6)
	cfg2.CheckpointPath = ckpt
	if err := os.WriteFile(ckpt, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt+".prev", []byte("also torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	res2, err := Run(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, res2), mustJSON(t, want)) {
		t.Fatal("fresh start after double corruption differs from uninterrupted run")
	}
}

// TestCheckpointMismatch rejects resuming with different parameters.
func TestCheckpointMismatch(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "camp.ckpt")
	cfg := testConfig(t, 4)
	ck := checkpoint{Seed: cfg.Seed + 1, Trials: cfg.Trials, TraceEvents: cfg.TraceEvents,
		ArmNames: []string{"wt+parity", "wb+ecc", "wb+parity"}, Done: 1,
		Reports: make([]faults.HierarchyReport, 3)}
	if err := saveCheckpoint(ckpt, &ck); err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointPath = ckpt
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("mismatched checkpoint accepted")
	}
}

func TestStandardArmErrors(t *testing.T) {
	for _, bad := range []string{"wt", "wt+", "+parity", "wt+hamming", "l3+ecc", ""} {
		if _, err := StandardArm(bad, Options{}); err == nil {
			t.Errorf("arm %q accepted", bad)
		}
	}
	if _, err := ParseArms(",,", Options{}); err == nil {
		t.Error("empty arm list accepted")
	}
}
