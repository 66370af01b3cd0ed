package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachewrite/internal/resilience"
	"cachewrite/internal/vfs"
)

// countFS counts each file operation by kind — the FS method's name,
// or the File method's for the files it creates — and the bytes a
// commit moves (written through temp files plus read back whole).
type countFS struct {
	vfs.FS
	bytes atomic.Int64

	mu  sync.Mutex
	ops map[string]int
}

func (c *countFS) count(op string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ops == nil {
		c.ops = map[string]int{}
	}
	c.ops[op]++
}

// snapshot returns a copy of the per-kind counts.
func (c *countFS) snapshot() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.ops)
}

func (c *countFS) Open(name string) (vfs.File, error) {
	c.count("Open")
	return c.FS.Open(name)
}

func (c *countFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	c.count("CreateTemp")
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, c: c}, nil
}

func (c *countFS) ReadFile(name string) ([]byte, error) {
	c.count("ReadFile")
	b, err := c.FS.ReadFile(name)
	c.bytes.Add(int64(len(b)))
	return b, err
}

func (c *countFS) Rename(oldpath, newpath string) error {
	c.count("Rename")
	return c.FS.Rename(oldpath, newpath)
}

func (c *countFS) Remove(name string) error {
	c.count("Remove")
	return c.FS.Remove(name)
}

func (c *countFS) MkdirAll(path string, perm fs.FileMode) error {
	c.count("MkdirAll")
	return c.FS.MkdirAll(path, perm)
}

func (c *countFS) Stat(name string) (fs.FileInfo, error) {
	c.count("Stat")
	return c.FS.Stat(name)
}

func (c *countFS) ReadDir(name string) ([]fs.DirEntry, error) {
	c.count("ReadDir")
	return c.FS.ReadDir(name)
}

func (c *countFS) Chtimes(name string, atime, mtime time.Time) error {
	c.count("Chtimes")
	return c.FS.Chtimes(name, atime, mtime)
}

type countFile struct {
	vfs.File
	c *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	f.c.count("Write")
	n, err := f.File.Write(p)
	f.c.bytes.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error {
	f.c.count("Sync")
	return f.File.Sync()
}

func (f *countFile) Close() error {
	f.c.count("Close")
	return f.File.Close()
}

// opsSince is the per-kind difference between two snapshots.
func opsSince(before, after map[string]int) map[string]int {
	d := map[string]int{}
	for op, n := range after {
		if n -= before[op]; n != 0 {
			d[op] = n
		}
	}
	return d
}

// TestJournalSaveOps pins the file operations of one job-record save
// into the existing jobs directory: MkdirAll, a temp file, its two
// writes (header and payload), Sync and Close, the Stat of the current
// record, the commit rename and the deferred Remove of the renamed temp
// file. A re-save also reads the current record back to validate it and
// rotates it to ".prev". ROADMAP item 5 plans to cut the MkdirAll, Stat
// and Remove; this test pins the sequence until then.
func TestJournalSaveOps(t *testing.T) {
	cfs := &countFS{FS: vfs.NewMem()}
	s, err := New(historyConfig(t, cfs, 2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mustSubmit(t, s, testSpec("tenant-a", "req-1"))

	before := cfs.snapshot()
	mustSubmit(t, s, testSpec("tenant-a", "req-2"))
	first := opsSince(before, cfs.snapshot())
	want := map[string]int{
		"MkdirAll": 1, "CreateTemp": 1, "Write": 2, "Sync": 1, "Close": 1,
		"Stat": 1, "Rename": 1, "Remove": 1,
	}
	if !reflect.DeepEqual(first, want) {
		t.Errorf("first save of a record: ops %v, want %v", first, want)
	}

	before = cfs.snapshot()
	s.mu.Lock()
	err = s.persistLocked(s.byID["j000002"])
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("re-save: %v", err)
	}
	want["ReadFile"] = 1 // the validation of the current record
	want["Rename"] = 2   // its rotation to .prev
	if resave := opsSince(before, cfs.snapshot()); !reflect.DeepEqual(resave, want) {
		t.Errorf("re-save of a record: ops %v, want %v", resave, want)
	}
}

// TestJobFileOps pins every file operation one job costs from submit to
// its terminal record on vfs.Mem. The first job is cold: three record
// saves (admission, the workload's result, the terminal state), the
// sweep checkpoint's load and removal, and the reaping of the job's
// checkpoints, 37 operations. The four identical jobs after it find
// every cell in the memo and run no sweep, so the checkpoint's two
// reads and two removals go: 33 operations, with the reaping kept.
func TestJobFileOps(t *testing.T) {
	cfs := &countFS{FS: vfs.NewMem()}
	s, err := New(historyConfig(t, cfs, 8))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stop := startRun(t, s)
	defer stop()
	run := func(i int) map[string]int {
		before := cfs.snapshot()
		st := mustSubmit(t, s, testSpec("tenant-a", fmt.Sprintf("req-%d", i)))
		if st = awaitTerminal(t, s, st.ID); st.State != StateDone {
			t.Fatalf("job %s: state %s (error %q), want done", st.ID, st.State, st.Error)
		}
		return opsSince(before, cfs.snapshot())
	}
	cold := map[string]int{
		"MkdirAll": 3, "CreateTemp": 3, "Write": 6, "Sync": 3, "Close": 3,
		"Stat": 3, "ReadFile": 4, "Rename": 5, "Remove": 7,
	}
	warm := maps.Clone(cold)
	warm["ReadFile"], warm["Remove"] = 2, 5
	const jobs = 5
	for i := range jobs {
		want := warm
		if i == 0 {
			want = cold
		}
		if got := run(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("job %d: ops %v, want %v", i, got, want)
		}
	}
	spec := testSpec("tenant-a", "")
	cfgs, err := spec.Configs()
	if err != nil {
		t.Fatalf("Configs: %v", err)
	}
	m := s.MetricsSnapshot()
	if want := int64((jobs - 1) * len(cfgs)); m.UnitsDone != 1 || m.CellsReused != want {
		t.Errorf("units_done %d, cells_reused %d; want 1 and %d", m.UnitsDone, m.CellsReused, want)
	}
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
		b0, s0 := cfs.bytes.Load(), int64(cfs.snapshot()["Sync"])
		mustSubmit(t, s, testSpec("tenant-a", fmt.Sprintf("req-%04d", i)))
		c := cost{cfs.bytes.Load() - b0, int64(cfs.snapshot()["Sync"]) - s0}
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
			b0, s0 := cfs.bytes.Load(), int64(cfs.snapshot()["Sync"])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submit(history + i)
			}
			b.StopTimer()
			b.ReportMetric(float64(cfs.bytes.Load()-b0)/float64(b.N), "B/commit")
			b.ReportMetric(float64(int64(cfs.snapshot()["Sync"])-s0)/float64(b.N), "syncs/commit")
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

// TestRecordLoadsRetryEraFailures: a job record written while sweep
// units were still retried and quarantined — failures carrying unit,
// attempts and poisoned — loads unchanged under the same schema
// version; decoding drops the retired fields.
func TestRecordLoadsRetryEraFailures(t *testing.T) {
	type retryEraFailure struct {
		Workload string   `json:"workload"`
		Unit     string   `json:"unit,omitempty"`
		Attempts int      `json:"attempts,omitempty"`
		Error    string   `json:"error"`
		Storage  bool     `json:"storage,omitempty"`
		Poisoned []string `json:"poisoned,omitempty"`
	}
	type retryEraJob struct {
		job
		Failures []retryEraFailure // shadows job.Failures in the encoding
	}
	mem := vfs.NewMem()
	cfg := testConfig(t)
	cfg.StateDir = "/state"
	cfg.FS = mem
	spec := testSpec("tenant-a", "req-old")
	spec.normalize()
	cause := "resilience: unit liver#0/cfgs[0:8] failed after 2 attempts: boom"
	old := retryEraJob{
		job: job{ID: "j000001", Tenant: spec.Tenant, RequestID: spec.RequestID, Spec: spec, State: StateFailed},
		Failures: []retryEraFailure{{Workload: "liver", Unit: "liver#0/cfgs[0:8]", Attempts: 2,
			Error: cause, Poisoned: []string{"liver#0/cfgs[0:8]"}}},
	}
	path := filepath.Join("/state", "jobs", old.ID+recordSuffix)
	if err := resilience.NewJournalFS[retryEraJob](mem, path, "simserved-job", 2).Save(old); err != nil {
		t.Fatalf("save: %v", err)
	}

	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st, ok := s.Job(old.ID)
	if !ok {
		t.Fatal("retry-era job record did not load")
	}
	want := []Failure{{Workload: "liver", Error: cause}}
	if st.State != StateFailed || !reflect.DeepEqual(st.Failures, want) {
		t.Errorf("loaded state %s failures %+v, want %s %+v", st.State, st.Failures, StateFailed, want)
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
