package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"cachewrite/internal/cache"
	"cachewrite/internal/resilience"
	"cachewrite/internal/trace"
)

// resumeFixture returns the traces, configs and checkpoint path shared
// by the resume tests: enough units that an interruption lands
// mid-sweep.
func resumeFixture(t *testing.T) ([]*trace.Trace, []cache.Config, string) {
	t.Helper()
	traces := []*trace.Trace{testTrace(4000), testTrace(7000).Slice(500, 7000)}
	traces[1].Name = "sweeptest2"
	return traces, policyConfigs(), filepath.Join(t.TempDir(), "sweep.ckpt")
}

// TestSweepResumeByteIdentical is the kill-and-resume golden test: a
// sweep interrupted after N units, resumed from its journal, must
// produce results byte-identical to an uninterrupted run — and must
// not recompute the journaled units.
func TestSweepResumeByteIdentical(t *testing.T) {
	traces, cfgs, ckpt := resumeFixture(t)

	want, err := Sweep(context.Background(), traces, cfgs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt: cancel after 3 completed units. A single worker makes
	// "3 units then stop" deterministic enough; the final flush must
	// still journal everything that completed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	_, err = Sweep(ctx, traces, cfgs, Options{
		Workers:         1,
		Checkpoint:      ckpt,
		CheckpointEvery: 2,
		OnEvent: func(e Event) {
			if e.Kind == UnitDone && done.Add(1) == 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep returned %v, want context.Canceled", err)
	}
	if done.Load() < 3 {
		t.Fatalf("only %d units completed before cancel", done.Load())
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint after interruption: %v", err)
	}

	// Resume: journaled units must be restored, not recomputed, and the
	// final results must match the uninterrupted run byte for byte.
	var restored, fresh atomic.Int64
	got, err := Sweep(context.Background(), traces, cfgs, Options{
		Workers:    2,
		Checkpoint: ckpt,
		OnEvent: func(e Event) {
			switch e.Kind {
			case UnitRestored:
				restored.Add(1)
			case UnitDone:
				fresh.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Load() < 3 {
		t.Fatalf("resume restored %d units, want >= 3", restored.Load())
	}
	totalUnits := 0
	for range traces {
		totalUnits += (len(cfgs) + DefaultShard - 1) / DefaultShard
	}
	if n := restored.Load() + fresh.Load(); int(n) != totalUnits {
		t.Fatalf("restored %d + fresh %d != %d units", restored.Load(), fresh.Load(), totalUnits)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed sweep differs from uninterrupted run")
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(wantJSON) != string(gotJSON) {
		t.Fatal("resumed sweep JSON differs from uninterrupted run")
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("completed sweep left its checkpoint behind (stat err %v)", err)
	}
}

// TestSweepResumeCorruptJournal: a corrupt checkpoint (both snapshots)
// must start fresh — with a JournalFallback event — and still finish
// with correct results.
func TestSweepResumeCorruptJournal(t *testing.T) {
	traces, cfgs, ckpt := resumeFixture(t)
	want, err := Sweep(context.Background(), traces, cfgs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, []byte("RSJ1 sweep v1 crc32=deadbeef len=4\nzap"), 0o644); err != nil {
		t.Fatal(err)
	}
	var fallbacks atomic.Int64
	got, err := Sweep(context.Background(), traces, cfgs, Options{
		Workers:    2,
		Checkpoint: ckpt,
		OnEvent: func(e Event) {
			if e.Kind == JournalFallback {
				fallbacks.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fallbacks.Load() == 0 {
		t.Fatal("corrupt journal produced no fallback event")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fresh-start sweep differs from baseline")
	}
}

// TestSweepResumeStaleJournal: a journal from a *different* sweep
// (other configs) must be ignored via the fingerprint, not misapplied.
func TestSweepResumeStaleJournal(t *testing.T) {
	traces, cfgs, ckpt := resumeFixture(t)

	// Journal a different sweep to the same path, interrupting it so
	// the checkpoint file survives.
	otherCfgs := cfgs[:DefaultShard+1]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	_, err := Sweep(ctx, traces, otherCfgs, Options{
		Workers: 1, Checkpoint: ckpt, CheckpointEvery: 1,
		OnEvent: func(e Event) {
			if e.Kind == UnitDone && done.Add(1) == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("setup sweep: %v", err)
	}

	want, err := Sweep(context.Background(), traces, cfgs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var restored, fallbacks atomic.Int64
	got, err := Sweep(context.Background(), traces, cfgs, Options{
		Workers:    2,
		Checkpoint: ckpt,
		OnEvent: func(e Event) {
			switch e.Kind {
			case UnitRestored:
				restored.Add(1)
			case JournalFallback:
				fallbacks.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Load() != 0 {
		t.Fatalf("stale journal restored %d units", restored.Load())
	}
	if fallbacks.Load() == 0 {
		t.Fatal("stale journal produced no fallback event")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sweep after stale journal differs from baseline")
	}
}

// TestJournalLoadsPoisonedState: a checkpoint written while failed
// units were still quarantined carries a "poisoned" map. It loads under
// the same schema version, and its completed units are restored.
func TestJournalLoadsPoisonedState(t *testing.T) {
	type poisonEraState struct {
		Fingerprint string                   `json:"fingerprint"`
		Done        map[string][]cache.Stats `json:"done"`
		Poisoned    map[string]string        `json:"poisoned,omitempty"`
	}
	traces, cfgs, ckpt := resumeFixture(t)
	want, err := Sweep(context.Background(), traces, cfgs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var units []Unit
	for ti, tr := range traces {
		units = append(units, Shard(ti, tr, cfgs)...)
	}
	first := units[0]
	old := poisonEraState{
		Fingerprint: fingerprint(units),
		Done:        map[string][]cache.Stats{first.Key(): want[first.TraceIndex][first.Base : first.Base+len(first.Cfgs)]},
		Poisoned:    map[string]string{units[1].Key(): "sweep: cache: size 3 is not a positive power of two"},
	}
	if err := resilience.NewJournal[poisonEraState](ckpt, "sweep", 2).Save(old); err != nil {
		t.Fatal(err)
	}

	var restored []string
	got, err := Sweep(context.Background(), traces, cfgs, Options{
		Workers: 2, Checkpoint: ckpt,
		OnEvent: func(e Event) {
			if e.Kind == UnitRestored {
				restored = append(restored, e.Unit)
			}
		},
	})
	if err != nil {
		t.Fatalf("resume from a poison-era checkpoint: %v", err)
	}
	if len(restored) != 1 || restored[0] != first.Key() {
		t.Errorf("restored %v, want [%s]", restored, first.Key())
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("results after a poison-era checkpoint differ from a fresh sweep")
	}
}

// TestRunUnitsWatchdogCancellationRace drives cancellation into a
// watchdogged sweep from a racing goroutine. Run under -race (make
// check), it pins that the watchdog monitor, the workers' heartbeats
// and the cancellation path share no unsynchronized state.
func TestRunUnitsWatchdogCancellationRace(t *testing.T) {
	traces := []*trace.Trace{testTrace(20000)}
	cfgs := policyConfigs()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(i) * 2 * time.Millisecond)
			cancel()
		}()
		_, err := Sweep(ctx, traces, cfgs, Options{
			Workers:      4,
			SoftDeadline: time.Millisecond, // hair-trigger: stall events race completion
			Checkpoint:   filepath.Join(t.TempDir(), "race.ckpt"),
			OnEvent:      func(Event) {},
		})
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
		cancel()
	}
}

// TestUnitKeyStable pins the journal key format: changing it silently
// invalidates every existing checkpoint.
func TestUnitKeyStable(t *testing.T) {
	u := Unit{TraceIndex: 2, Trace: &trace.Trace{Name: "ccom"}, Base: 24,
		Cfgs: make([]cache.Config, 8)}
	if got, want := u.Key(), "ccom#2/cfgs[24:32]"; got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
}
