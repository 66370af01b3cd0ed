package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/resilience"
	"cachewrite/internal/vfs"
)

// TestSweepCompletesUnderCheckpointFaults: checkpointing is an
// optimization, so a sweep whose journal writes all fail (disk full)
// must still complete with correct results, surfacing the degradation
// as JournalDegraded events instead of a run failure.
func TestSweepCompletesUnderCheckpointFaults(t *testing.T) {
	traces, cfgs, _ := resumeFixture(t)
	want, err := Sweep(context.Background(), traces, cfgs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	mem := vfs.NewMem()
	faulty := vfs.NewFaulty(mem, vfs.Plan{Rate: 1, Kinds: vfs.KindENOSPC})
	var degraded, done atomic.Int64
	got, err := Sweep(context.Background(), traces, cfgs, Options{
		Workers:         2,
		Checkpoint:      "/state/sweep.ckpt",
		CheckpointEvery: 1,
		FS:              faulty,
		OnEvent: func(e Event) {
			switch e.Kind {
			case JournalDegraded:
				degraded.Add(1)
			case UnitDone:
				done.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatalf("sweep failed on a full checkpoint disk: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results diverged under checkpoint faults")
	}
	if degraded.Load() == 0 {
		t.Fatal("no JournalDegraded event despite every snapshot failing")
	}
	if done.Load() == 0 {
		t.Fatal("no units simulated")
	}
}

// badUnitRun is a three-unit sweep whose middle unit holds a config
// cache.New always rejects, checkpointed to a per-test journal.
type badUnitRun struct {
	units   []Unit
	badKey  string
	invalid error
	ckpt    string
}

func newBadUnitRun(t *testing.T) badUnitRun {
	t.Helper()
	tr := testTrace(500)
	good := cache.Config{Size: 1 << 10, LineSize: 16, Assoc: 1,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
	good2 := good
	good2.WriteHit = cache.WriteThrough
	good2.WriteMiss = cache.WriteAround
	bad := cache.Config{Size: 3, LineSize: 16} // invalid: cache.New always fails
	units := []Unit{
		{TraceIndex: 0, Trace: tr, Cfgs: []cache.Config{good}, Base: 0},
		{TraceIndex: 0, Trace: tr, Cfgs: []cache.Config{bad}, Base: 1},
		{TraceIndex: 0, Trace: tr, Cfgs: []cache.Config{good2}, Base: 2},
	}
	return badUnitRun{
		units:   units,
		badKey:  units[1].Key(),
		invalid: bad.Validate(),
		ckpt:    filepath.Join(t.TempDir(), "bad.ckpt"),
	}
}

// run sweeps the units on one worker, so they run in order, and
// reports which units were simulated and which restored.
func (b badUnitRun) run() (done, restored []string, err error) {
	err = RunUnits(context.Background(), b.units, Options{
		Workers: 1, Checkpoint: b.ckpt,
		OnEvent: func(e Event) {
			switch e.Kind {
			case UnitDone:
				done = append(done, e.Unit)
			case UnitRestored:
				restored = append(restored, e.Unit)
			}
		},
	}, nil)
	return done, restored, err
}

// checkErr asserts err is the bad unit's failure: it names the unit and
// wraps cache's validation error.
func (b badUnitRun) checkErr(t *testing.T, label string, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: RunUnits accepted an invalid config", label)
	}
	if want := "sweep: unit " + b.badKey + ": "; !strings.HasPrefix(err.Error(), want) {
		t.Errorf("%s: err = %q, want prefix %q", label, err, want)
	}
	wrapped := false
	for e := err; e != nil; e = errors.Unwrap(e) {
		wrapped = wrapped || e.Error() == b.invalid.Error()
	}
	if !wrapped {
		t.Errorf("%s: err = %q does not wrap the validation error %q", label, err, b.invalid)
	}
}

// TestRunUnitsFailsOnFirstAttempt: a failed unit is not retried.
// Simulation is deterministic, so a unit whose config cache.New rejects
// fails RunUnits on its first attempt, with an error that names the
// unit and wraps the validation error, and the unit queued after it is
// never simulated.
func TestRunUnitsFailsOnFirstAttempt(t *testing.T) {
	b := newBadUnitRun(t)
	done, restored, err := b.run()
	b.checkErr(t, "first run", err)
	if !reflect.DeepEqual(done, []string{b.units[0].Key()}) || len(restored) != 0 {
		t.Fatalf("done=%v restored=%v, want only %s done", done, restored, b.units[0].Key())
	}
}

// TestFailedSweepJournalsOnlyDoneUnits: a failed unit is not
// quarantined. The failed sweep keeps its journal of the units
// completed before the failure, and the journal records no poisoned
// unit.
func TestFailedSweepJournalsOnlyDoneUnits(t *testing.T) {
	type poisonEraState struct {
		Done     map[string][]cache.Stats `json:"done"`
		Poisoned map[string]string        `json:"poisoned,omitempty"`
	}
	b := newBadUnitRun(t)
	_, _, err := b.run()
	b.checkErr(t, "first run", err)
	if _, serr := os.Stat(b.ckpt); serr != nil {
		t.Fatalf("failed sweep must keep its journal of completed units: %v", serr)
	}
	st, _, lerr := resilience.NewJournal[poisonEraState](b.ckpt, "sweep", journalVersion).Load()
	if lerr != nil {
		t.Fatal(lerr)
	}
	if len(st.Done) != 1 || st.Done[b.units[0].Key()] == nil {
		t.Errorf("journaled units %v, want only %s", st.Done, b.units[0].Key())
	}
	if len(st.Poisoned) != 0 {
		t.Errorf("journal quarantined %v; a failed unit must not be recorded as poisoned", st.Poisoned)
	}
}

// TestRerunRestoresDoneUnitsAndFailsAgain: a failed unit is not
// skipped on resume. A rerun restores the unit completed before the
// failure instead of recomputing it, then tries the failed unit again
// and fails with the same error.
func TestRerunRestoresDoneUnitsAndFailsAgain(t *testing.T) {
	b := newBadUnitRun(t)
	_, _, err := b.run()
	b.checkErr(t, "first run", err)

	done, restored, err := b.run()
	b.checkErr(t, "rerun", err)
	if len(done) != 0 || !reflect.DeepEqual(restored, []string{b.units[0].Key()}) {
		t.Fatalf("rerun: done=%v restored=%v, want %s restored and nothing recomputed",
			done, restored, b.units[0].Key())
	}
}

// TestSweepFaultyCrashResumeByteIdentical is the end-to-end proof for
// the sweep surface: interrupt a sweep whose checkpoint disk is
// injecting write faults, cut the power (dropping everything unsynced),
// and resume on a healthy disk. Whatever mix of current/.prev/absent
// the journal was left in, the resumed results must be byte-identical
// to an uninterrupted run. Several seeds vary which snapshots were torn.
func TestSweepFaultyCrashResumeByteIdentical(t *testing.T) {
	traces, cfgs, _ := resumeFixture(t)
	want, err := Sweep(context.Background(), traces, cfgs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			mem := vfs.NewMem()
			faulty := vfs.NewFaulty(mem, vfs.Plan{
				Seed: seed, Rate: 0.4,
				Kinds: vfs.KindTornWrite | vfs.KindENOSPC | vfs.KindRenameFail,
			})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var done atomic.Int64
			_, err := Sweep(ctx, traces, cfgs, Options{
				Workers: 1, Checkpoint: "/state/sweep.ckpt", CheckpointEvery: 1,
				FS: faulty,
				OnEvent: func(e Event) {
					if e.Kind == UnitDone && done.Add(1) == 3 {
						cancel()
					}
				},
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted sweep returned %v, want context.Canceled", err)
			}
			mem.Crash() // power loss on top of the write faults

			got, err := Sweep(context.Background(), traces, cfgs, Options{
				Workers: 2, Checkpoint: "/state/sweep.ckpt", FS: mem,
			})
			if err != nil {
				t.Fatalf("resume after faults+crash: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("resumed results differ from uninterrupted run")
			}
		})
	}
}
