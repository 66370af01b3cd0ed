package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"cachewrite/internal/cache"
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

// poisonFixture: two good single-config units around one unit whose
// config cache.New always rejects, so every attempt on it fails.
func poisonFixture() ([]Unit, string) {
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
	return units, units[1].Key()
}

// TestPoisonUnitQuarantine: with Quarantine set, a unit that exhausts
// its retry budget is journaled as poisoned and the sweep completes the
// rest, returning *PoisonedError instead of wedging.
func TestPoisonUnitQuarantine(t *testing.T) {
	units, badKey := poisonFixture()
	ckpt := filepath.Join(t.TempDir(), "poison.ckpt")
	var poisoned, retried, collected atomic.Int64
	err := RunUnits(context.Background(), units, Options{
		Workers: 1, Retries: 1,
		Checkpoint: ckpt,
		Quarantine: true,
		OnEvent: func(e Event) {
			switch e.Kind {
			case UnitPoisoned:
				poisoned.Add(1)
				if e.Unit != badKey {
					t.Errorf("poisoned unit %q, want %q", e.Unit, badKey)
				}
			case UnitRetried:
				retried.Add(1)
			}
		},
	}, func(Unit, []cache.Stats) { collected.Add(1) })

	var pe *PoisonedError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PoisonedError", err, err)
	}
	if len(pe.Units) != 1 || pe.Units[badKey] == "" {
		t.Fatalf("PoisonedError.Units = %v, want cause under %q", pe.Units, badKey)
	}
	if poisoned.Load() != 1 || retried.Load() != 1 {
		t.Fatalf("poisoned=%d retried=%d, want 1 and 1", poisoned.Load(), retried.Load())
	}
	if collected.Load() != 2 {
		t.Fatalf("collected %d good units, want 2", collected.Load())
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("poisoned sweep must keep its journal for resume: %v", err)
	}
}

// TestPoisonSkippedOnResume: a resumed (or resubmitted) sweep must skip
// journaled poison without a single new attempt, and restore the good
// units' results from the journal.
func TestPoisonSkippedOnResume(t *testing.T) {
	units, badKey := poisonFixture()
	ckpt := filepath.Join(t.TempDir(), "poison.ckpt")
	opts := func(onEvent func(Event)) Options {
		return Options{
			Workers: 1, Retries: 1,
			Checkpoint: ckpt, Quarantine: true, OnEvent: onEvent,
		}
	}
	if err := RunUnits(context.Background(), units, opts(nil), nil); err == nil {
		t.Fatal("setup run reported no poison")
	}

	var poisoned, retried, restored, fresh atomic.Int64
	err := RunUnits(context.Background(), units, opts(func(e Event) {
		switch e.Kind {
		case UnitPoisoned:
			poisoned.Add(1)
			if e.Worker != -1 {
				t.Errorf("resume poisoned worker = %d, want -1 (skipped, not re-run)", e.Worker)
			}
		case UnitRetried:
			retried.Add(1)
		case UnitRestored:
			restored.Add(1)
		case UnitDone:
			fresh.Add(1)
		}
	}), nil)

	var pe *PoisonedError
	if !errors.As(err, &pe) {
		t.Fatalf("resume err = %v (%T), want *PoisonedError", err, err)
	}
	if pe.Units[badKey] == "" {
		t.Fatalf("resume lost the poison cause: %v", pe.Units)
	}
	if retried.Load() != 0 || fresh.Load() != 0 {
		t.Fatalf("resume re-attempted work: retried=%d fresh=%d, want 0 and 0",
			retried.Load(), fresh.Load())
	}
	if poisoned.Load() != 1 || restored.Load() != 2 {
		t.Fatalf("poisoned=%d restored=%d, want 1 and 2", poisoned.Load(), restored.Load())
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
