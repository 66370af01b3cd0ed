package serve

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"cachewrite/internal/vfs"
)

// countFS counts the bytes a commit moves (written through temp files
// plus read back whole) and its Syncs.
type countFS struct {
	vfs.FS
	bytes, syncs atomic.Int64
}

func (c *countFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, c: c}, nil
}

func (c *countFS) ReadFile(name string) ([]byte, error) {
	b, err := c.FS.ReadFile(name)
	c.bytes.Add(int64(len(b)))
	return b, err
}

type countFile struct {
	vfs.File
	c *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.bytes.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error {
	f.c.syncs.Add(1)
	return f.File.Sync()
}

// historyConfig is a server on fsys whose queue admits every job of a
// long history without shedding.
func historyConfig(t testing.TB, fsys vfs.FS, jobs int) Config {
	cfg := testConfig(t)
	cfg.StateDir = "/state"
	cfg.FS = fsys
	cfg.Queue = jobs + 1
	cfg.PerTenant = jobs + 1
	return cfg
}

// TestCommitCostFlatInHistory pins the point of per-job records: the
// 200th admission writes, reads and syncs what the 1st does, because a
// commit saves only the job that changed.
func TestCommitCostFlatInHistory(t *testing.T) {
	const n = 200
	cfs := &countFS{FS: vfs.NewMem()}
	s, err := New(historyConfig(t, cfs, n))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	type cost struct{ bytes, syncs int64 }
	var first, last cost
	for i := 1; i <= n; i++ {
		b0, s0 := cfs.bytes.Load(), cfs.syncs.Load()
		mustSubmit(t, s, testSpec("tenant-a", fmt.Sprintf("req-%04d", i)))
		c := cost{cfs.bytes.Load() - b0, cfs.syncs.Load() - s0}
		switch i {
		case 1:
			first = c
		case n:
			last = c
		}
	}
	if first.bytes == 0 || first.syncs == 0 {
		t.Fatalf("admission 1 cost %+v: the record was not written and synced", first)
	}
	within := func(a, b int64) bool { return 10*(a-b) <= b && 10*(b-a) <= b }
	if !within(last.bytes, first.bytes) || !within(last.syncs, first.syncs) {
		t.Errorf("admission %d cost %+v, admission 1 cost %+v: want within 10%%", n, last, first)
	}
}

// BenchmarkSubmit times one admission commit on top of a history of
// already-admitted jobs. On vfs.Mem, so it measures the commit's CPU
// and bytes, not the disk; B/commit and syncs/commit should not move
// with history.
func BenchmarkSubmit(b *testing.B) {
	for _, history := range []int{0, 1000} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			cfs := &countFS{FS: vfs.NewMem()}
			s, err := New(historyConfig(b, cfs, history+b.N))
			if err != nil {
				b.Fatalf("New: %v", err)
			}
			submit := func(i int) {
				if _, rej, err := s.Submit(testSpec("tenant-a", fmt.Sprintf("req-%d", i))); err != nil || rej != nil {
					b.Fatalf("Submit %d: rej=%v err=%v", i, rej, err)
				}
			}
			for i := 0; i < history; i++ {
				submit(i)
			}
			b0, s0 := cfs.bytes.Load(), cfs.syncs.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submit(history + i)
			}
			b.StopTimer()
			b.ReportMetric(float64(cfs.bytes.Load()-b0)/float64(b.N), "B/commit")
			b.ReportMetric(float64(cfs.syncs.Load()-s0)/float64(b.N), "syncs/commit")
		})
	}
}

// TestRefusesV1Journal: a state dir still holding the whole-table
// journal of the previous format is refused with a message naming the
// file and the way out, never silently started empty.
func TestRefusesV1Journal(t *testing.T) {
	mem := vfs.NewMem()
	if err := mem.MkdirAll("/state", 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	f, err := mem.CreateTemp("/state", "v1")
	if err != nil {
		t.Fatalf("CreateTemp: %v", err)
	}
	f.Close()
	if err := mem.Rename(f.Name(), "/state/jobs.journal"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	cfg := testConfig(t)
	cfg.StateDir = "/state"
	cfg.FS = mem
	_, err = New(cfg)
	if err == nil {
		t.Fatalf("New accepted a state dir holding a version 1 jobs.journal")
	}
	for _, want := range []string{"/state/jobs.journal", "drain", "move the file aside"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should mention %q", err, want)
		}
	}
}

// TestRestoreAfterTornRotation: a power cut between a record save's
// rotate and commit renames leaves only <id>.journal.prev; restore
// still finds the job there.
func TestRestoreAfterTornRotation(t *testing.T) {
	mem := vfs.NewMem()
	faulty := vfs.NewFaulty(mem, vfs.Plan{})
	cfg := testConfig(t)
	cfg.StateDir = "/state"
	cfg.FS = faulty
	s1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mustSubmit(t, s1, testSpec("tenant-a", "req-1"))
	mustSubmit(t, s1, testSpec("tenant-b", "req-2"))

	s1.mu.Lock()
	j := s1.byID["j000002"]
	// Probe one re-save of an existing record: its last op is the
	// deferred temp cleanup, the one before it the commit rename.
	faulty.Reset(vfs.Plan{})
	if err := s1.persistLocked(j); err != nil {
		t.Fatalf("probe save: %v", err)
	}
	faulty.Reset(vfs.Plan{CrashAtOp: faulty.Ops() - 1})
	saveErr := s1.persistLocked(j)
	s1.mu.Unlock()
	if !errors.Is(saveErr, vfs.ErrCrashed) {
		t.Fatalf("save across the commit rename: err = %v, want a crash", saveErr)
	}
	mem.Crash()
	rec := filepath.Join("/state/jobs", "j000002"+recordSuffix)
	if _, err := mem.Stat(rec); err == nil {
		t.Fatalf("%s survived; the crash did not land between rotate and commit", rec)
	}
	if _, err := mem.Stat(rec + ".prev"); err != nil {
		t.Fatalf("%s.prev missing after the torn rotation: %v", rec, err)
	}

	cfg.FS = mem
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("New after crash: %v", err)
	}
	st, ok := s2.Job("j000002")
	if !ok || st.State != StateQueued || st.Tenant != "tenant-b" {
		t.Fatalf("job j000002 from .prev: ok=%v status=%+v, want tenant-b queued", ok, st)
	}
	if next := mustSubmit(t, s2, testSpec("tenant-c", "")); next.ID != "j000003" {
		t.Errorf("next id = %s, want j000003", next.ID)
	}
}

// TestRestoreOrdersByNumericID: restore takes admission order and the
// id sequence from the numeric part of each record's id — so j1000000
// follows j999999 — and ignores save temp files in jobs/.
func TestRestoreOrdersByNumericID(t *testing.T) {
	mem := vfs.NewMem()
	cfg := testConfig(t)
	cfg.StateDir = "/state"
	cfg.FS = mem
	s1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ids := []string{"j1000000", "j000002", "j999999"}
	for _, id := range ids {
		spec := testSpec("tenant-a", "req-"+id)
		spec.normalize()
		if err := s1.record(id).Save(job{ID: id, Tenant: spec.Tenant, RequestID: spec.RequestID, Spec: spec, State: StateDone}); err != nil {
			t.Fatalf("save %s: %v", id, err)
		}
	}
	// A save torn before its commit rename leaves its temp file behind.
	tmp, err := mem.CreateTemp("/state/jobs", ".journal-*")
	if err != nil {
		t.Fatalf("CreateTemp: %v", err)
	}
	fmt.Fprint(tmp, "RSJ1 simserved-job v2 crc32=00000000 len=99\n{\"ID\":")
	tmp.Close()

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var got []string
	for _, st := range s2.TenantJobs("tenant-a") {
		got = append(got, st.ID)
	}
	if want := []string{"j000002", "j999999", "j1000000"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("restored order %v, want %v", got, want)
	}
	if h := s2.Health(); h.Jobs != len(ids) {
		t.Errorf("restored %d jobs, want %d (temp files must be skipped)", h.Jobs, len(ids))
	}
	if next := mustSubmit(t, s2, testSpec("tenant-b", "")); next.ID != "j1000001" {
		t.Errorf("next id = %s, want j1000001", next.ID)
	}
}

// TestDrainResavesUnsavedJobs: a job whose progress and terminal record
// saves failed finishes in memory only; the drain flush saves it once
// the disk heals, so a restart sees it done rather than re-running it.
func TestDrainResavesUnsavedJobs(t *testing.T) {
	mem := vfs.NewMem()
	faulty := vfs.NewFaulty(mem, vfs.Plan{})
	cfg := testConfig(t)
	cfg.StateDir = "/state"
	cfg.FS = faulty
	s1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st := mustSubmit(t, s1, testSpec("tenant-a", "req-1"))
	// Every rename now fails: sweep checkpoints degrade and the job's
	// later record saves fail, leaving its record at "queued".
	faulty.Reset(vfs.Plan{Seed: 1, Rate: 1, Kinds: vfs.KindRenameFail})
	stop := startRun(t, s1)
	if st = awaitTerminal(t, s1, st.ID); st.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", st.State, st.Error)
	}
	faulty.Reset(vfs.Plan{})
	stop()

	cfg.FS = mem
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("New after drain: %v", err)
	}
	got, ok := s2.Job(st.ID)
	if !ok || got.State != StateDone || len(got.Results) != 1 {
		t.Fatalf("after drain: ok=%v state=%s results=%d, want the done job with its result", ok, got.State, len(got.Results))
	}
}
