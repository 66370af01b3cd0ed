package workload

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"syscall"
	"testing"

	"cachewrite/internal/vfs"
)

// swapFS installs fsys as the package filesystem for one test.
func swapFS(t *testing.T, fsys vfs.FS) {
	t.Helper()
	old := FS
	FS = fsys
	t.Cleanup(func() { FS = old })
}

// TestStoreDegradedUnderENOSPC: a full disk during a cache store logs
// a classified warning carrying the ENOSPC error, bumps the
// store-degraded counter simserved reports, leaves no litter, and the
// call still returns a working in-memory trace.
func TestStoreDegradedUnderENOSPC(t *testing.T) {
	dir := t.TempDir()
	// Op 1 is storeCached's MkdirAll, op 2 its CreateTemp — fail that
	// with ENOSPC. (Reads — the sweep's ReadDir, the lookup Open — are
	// not counted operations.)
	swapFS(t, vfs.NewFaulty(vfs.OS{}, vfs.Plan{FailAtOp: 2, FailKind: vfs.KindENOSPC}))
	// The collector takes no lock, so this test may only call the
	// single-name GenerateCached, never a parallel loader.
	var lines []string
	var loggedErrs []error
	prev := Logf
	Logf = func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
		for _, a := range args {
			if err, ok := a.(error); ok {
				loggedErrs = append(loggedErrs, err)
			}
		}
	}
	t.Cleanup(func() { Logf = prev })
	before := StoreDegraded()

	tr, err := GenerateCached(dir, "ccom", 1)
	if err != nil {
		t.Fatalf("a full cache disk must not fail generation: %v", err)
	}
	if tr == nil || tr.Name != "ccom" {
		t.Fatalf("degraded call returned trace %+v", tr)
	}

	if after := StoreDegraded(); after != before+1 {
		t.Fatalf("StoreDegraded counter %d -> %d, want +1", before, after)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "cannot store ccom (disk full)") {
		t.Fatalf("logs = %v, want one classified downgrade warning", lines)
	}
	if len(loggedErrs) != 1 || !errors.Is(loggedErrs[0], syscall.ENOSPC) || !vfs.IsStorageFault(loggedErrs[0]) {
		t.Fatalf("logged errors %v, want one ENOSPC storage fault", loggedErrs)
	}

	// Nothing may be left in the cache dir: no entry, no temp litter.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("degraded store left files behind: %v", entries)
	}

	// With the disk healthy again the same call stores the entry, and
	// the counter stays put.
	swapFS(t, vfs.OS{})
	if _, err := GenerateCached(dir, "ccom", 1); err != nil {
		t.Fatalf("store after recovery: %v", err)
	}
	if _, err := os.Stat(CachePath(dir, "ccom", 1)); err != nil {
		t.Fatalf("no cache entry after recovery: %v", err)
	}
	if got := StoreDegraded(); got != before+1 {
		t.Fatalf("StoreDegraded counter %d after a clean store, want %d", got, before+1)
	}
}
