package vfs

import (
	"errors"
	"io"
	"io/fs"
	"syscall"
	"testing"
	"time"
)

func writeAll(t *testing.T, f File, data string) {
	t.Helper()
	if _, err := io.WriteString(f, data); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func TestMemWriteSyncCrash(t *testing.T) {
	m := NewMem()
	if err := m.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := m.CreateTemp("/d", ".tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, "durable")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, " volatile")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename(f.Name(), "/d/file"); err != nil {
		t.Fatal(err)
	}
	if data, err := m.ReadFile("/d/file"); err != nil || string(data) != "durable volatile" {
		t.Fatalf("pre-crash read = %q, %v", data, err)
	}

	m.Crash()

	// The rename (metadata) survives; data reverts to the last Sync.
	data, err := m.ReadFile("/d/file")
	if err != nil {
		t.Fatalf("post-crash read: %v", err)
	}
	if string(data) != "durable" {
		t.Fatalf("post-crash content = %q, want %q (unsynced tail dropped)", data, "durable")
	}
}

func TestMemNeverSyncedFileSurvivesEmpty(t *testing.T) {
	m := NewMem()
	if err := m.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := m.CreateTemp("/d", ".tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, "never synced")
	f.Close()
	if err := m.Rename(f.Name(), "/d/husk"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	data, err := m.ReadFile("/d/husk")
	if err != nil {
		t.Fatalf("husk should exist after crash (metadata is durable): %v", err)
	}
	if len(data) != 0 {
		t.Fatalf("husk content = %q, want empty", data)
	}
}

func TestMemErrNotExist(t *testing.T) {
	m := NewMem()
	for name, call := range map[string]func() error{
		"open":    func() error { _, err := m.Open("/nope"); return err },
		"read":    func() error { _, err := m.ReadFile("/nope"); return err },
		"stat":    func() error { _, err := m.Stat("/nope"); return err },
		"remove":  func() error { return m.Remove("/nope") },
		"rename":  func() error { return m.Rename("/nope", "/other") },
		"chtimes": func() error { return m.Chtimes("/nope", time.Unix(0, 1), time.Unix(0, 1)) },
		"readdir": func() error { _, err := m.ReadDir("/nope"); return err },
	} {
		if err := call(); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s on missing path: err = %v, want fs.ErrNotExist", name, err)
		}
	}
}

func TestMemReadDirSorted(t *testing.T) {
	m := NewMem()
	if err := m.MkdirAll("/d/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zeta", "alpha", "mid"} {
		f, err := m.CreateTemp("/d", "x-*")
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		if err := m.Rename(f.Name(), "/d/"+name); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := m.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "mid", "sub", "zeta"}
	if len(entries) != len(want) {
		t.Fatalf("got %d entries, want %d", len(entries), len(want))
	}
	for i, e := range entries {
		if e.Name() != want[i] {
			t.Fatalf("entry %d = %s, want %s", i, e.Name(), want[i])
		}
	}
	if !entries[2].IsDir() {
		t.Fatal("sub should be a directory")
	}
}

func TestMemRenameReplacesTarget(t *testing.T) {
	m := NewMem()
	m.MkdirAll("/d", 0o755)
	mk := func(name, content string) {
		f, err := m.CreateTemp("/d", "t-*")
		if err != nil {
			t.Fatal(err)
		}
		writeAll(t, f, content)
		f.Sync()
		f.Close()
		if err := m.Rename(f.Name(), name); err != nil {
			t.Fatal(err)
		}
	}
	mk("/d/f", "old")
	mk("/d/f", "new")
	if data, _ := m.ReadFile("/d/f"); string(data) != "new" {
		t.Fatalf("content = %q, want new", data)
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=7,rate=0.25,kinds=torn+enospc+rename")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.Rate != 0.25 || p.Kinds != KindTornWrite|KindENOSPC|KindRenameFail {
		t.Fatalf("plan = %+v", p)
	}
	if p, err := ParsePlan("kinds=all"); err != nil || p.Kinds != AllKinds {
		t.Fatalf("all kinds: %+v, %v", p, err)
	}
	for _, bad := range []string{
		"rate=2",          // rate above [0,1]
		"rate=-0.1",       // rate below [0,1]
		"rate=x",          // rate not a number
		"kinds=frob",      // unknown fault kind
		"nope=1",          // unknown field
		"seed",            // not key=value
		"",                // empty plan
		"   ",             // blank plan
		"seed=1,seed=2",   // duplicate key: second value would win silently
		"rate=0.1,rate=1", // duplicate key
		"kinds=torn,kinds=eio",
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

func TestFaultyTornWrite(t *testing.T) {
	m := NewMem()
	m.MkdirAll("/d", 0o755)
	f := NewFaulty(m, Plan{FailAtOp: 2, FailKind: KindTornWrite}) // op1: createtemp, op2: write
	tmp, err := f.CreateTemp("/d", "t-*")
	if err != nil {
		t.Fatal(err)
	}
	n, err := tmp.Write([]byte("0123456789"))
	if err == nil {
		t.Fatal("torn write reported success")
	}
	if !errors.Is(err, ErrFault) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn write err = %v, want ErrFault + EIO", err)
	}
	if n != 5 {
		t.Fatalf("torn write persisted %d bytes, want 5 (half)", n)
	}
	if data, _ := m.ReadFile(tmp.Name()); string(data) != "01234" {
		t.Fatalf("on-disk prefix = %q", data)
	}
	if c := f.CountsSnapshot(); c.Torn != 1 {
		t.Fatalf("counts = %+v, want one torn write", c)
	}
}

func TestFaultyENOSPCAndReadEIO(t *testing.T) {
	m := NewMem()
	m.MkdirAll("/d", 0o755)
	f := NewFaulty(m, Plan{FailAtOp: 2, FailKind: KindENOSPC})
	tmp, _ := f.CreateTemp("/d", "t-*")
	if _, err := tmp.Write([]byte("x")); !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrFault) {
		t.Fatalf("err = %v, want injected ENOSPC", err)
	}

	// Rate=1 read faults: every read path fails EIO.
	fr := NewFaulty(m, Plan{Rate: 1, Kinds: KindReadEIO})
	if _, err := fr.ReadFile(tmp.Name()); !errors.Is(err, syscall.EIO) {
		t.Fatalf("read err = %v, want EIO", err)
	}
	if _, err := fr.Open(tmp.Name()); !errors.Is(err, syscall.EIO) {
		t.Fatalf("open err = %v, want EIO", err)
	}
}

func TestFaultyRenameFail(t *testing.T) {
	m := NewMem()
	m.MkdirAll("/d", 0o755)
	tmp, _ := m.CreateTemp("/d", "t-*")
	tmp.Close()
	f := NewFaulty(m, Plan{FailAtOp: 1, FailKind: KindRenameFail})
	if err := f.Rename(tmp.Name(), "/d/dst"); !errors.Is(err, ErrFault) {
		t.Fatalf("rename err = %v, want injected fault", err)
	}
	if _, err := m.Stat(tmp.Name()); err != nil {
		t.Fatal("failed rename must leave the source in place")
	}
	if _, err := m.Stat("/d/dst"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("failed rename must not create the target")
	}
}

func TestFaultyFsyncLieDropsDataAtCrash(t *testing.T) {
	m := NewMem()
	m.MkdirAll("/d", 0o755)
	f := NewFaulty(m, Plan{Kinds: KindFsyncLie})
	tmp, err := f.CreateTemp("/d", "t-*")
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, tmp, "promised durable")
	if err := tmp.Sync(); err != nil {
		t.Fatalf("a lying sync still reports success: %v", err)
	}
	tmp.Close()
	if err := f.Rename(tmp.Name(), "/d/f"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	data, err := m.ReadFile("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("post-crash content = %q; the lied-about bytes must be gone", data)
	}
	if c := f.CountsSnapshot(); c.FsyncLies != 1 {
		t.Fatalf("counts = %+v, want one fsync lie", c)
	}
}

func TestFaultyCrashAtOpKillsEverything(t *testing.T) {
	m := NewMem()
	m.MkdirAll("/d", 0o755)
	f := NewFaulty(m, Plan{CrashAtOp: 3}) // op1 createtemp, op2 write, op3 sync → crash
	tmp, err := f.CreateTemp("/d", "t-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync at crash boundary: %v, want ErrCrashed", err)
	}
	// Everything after the boundary is dead, reads included.
	if _, err := f.ReadFile(tmp.Name()); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read after crash: %v", err)
	}
	if err := f.Rename(tmp.Name(), "/d/f"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("rename after crash: %v", err)
	}
	if err := tmp.Close(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("close after crash: %v", err)
	}
}

func TestFaultyDeterministicBySeed(t *testing.T) {
	run := func() Counts {
		m := NewMem()
		m.MkdirAll("/d", 0o755)
		f := NewFaulty(m, Plan{Seed: 42, Rate: 0.5, Kinds: KindTornWrite | KindENOSPC | KindRenameFail})
		for i := 0; i < 40; i++ {
			tmp, err := f.CreateTemp("/d", "t-*")
			if err != nil {
				continue
			}
			_, _ = tmp.Write([]byte("payload"))
			_ = tmp.Close()
			_ = f.Rename(tmp.Name(), "/d/f")
		}
		return f.CountsSnapshot()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different injections:\n  %v\n  %v", a, b)
	}
	if a.Torn+a.ENOSPC+a.RenameFail == 0 {
		t.Fatal("rate 0.5 over 120+ ops injected nothing")
	}
}

func TestIsStorageFault(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{injected(KindENOSPC, "write", "/f", syscall.ENOSPC), true},
		{ErrCrashed, true},
		{syscall.EIO, true},
		{syscall.EROFS, true},
		{fs.ErrNotExist, false},
		{errors.New("logic error"), false},
		{nil, false},
	}
	for _, c := range cases {
		if got := IsStorageFault(c.err); got != c.want {
			t.Errorf("IsStorageFault(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestOSPassthrough exercises the production FS against a real temp
// dir — the same sequence the journal uses.
func TestOSPassthrough(t *testing.T) {
	var osfs OS
	dir := t.TempDir()
	if err := osfs.MkdirAll(dir+"/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := osfs.CreateTemp(dir+"/sub", ".tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, "hello")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := osfs.Rename(f.Name(), dir+"/sub/final"); err != nil {
		t.Fatal(err)
	}
	if data, err := osfs.ReadFile(dir + "/sub/final"); err != nil || string(data) != "hello" {
		t.Fatalf("read back %q, %v", data, err)
	}
	entries, err := osfs.ReadDir(dir + "/sub")
	if err != nil || len(entries) != 1 || entries[0].Name() != "final" {
		t.Fatalf("readdir: %v, %v", entries, err)
	}
	now := time.Now()
	if err := osfs.Chtimes(dir+"/sub/final", now, now); err != nil {
		t.Fatal(err)
	}
	if err := osfs.Remove(dir + "/sub/final"); err != nil {
		t.Fatal(err)
	}
	if _, err := osfs.Stat(dir + "/sub/final"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stat after remove: %v", err)
	}
}
