package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cachewrite/internal/fanout"
	"cachewrite/internal/trace"
	"cachewrite/internal/vfs"
)

// GeneratorVersion identifies the trace-generation algorithm across
// all workloads. It is part of the on-disk trace-cache key: bump it
// whenever any generator's output stream changes (new workload logic,
// memsim layout changes, RNG changes) so stale cached traces are
// regenerated instead of silently reused.
const GeneratorVersion = 1

// Logf receives trace-cache warnings: quarantined corrupt entries,
// stores downgraded to in-memory generation by a full or read-only
// disk, stray temp files swept at startup. The cache never fails a
// run over its own I/O, so warnings are the only signal that it is
// degraded. Tests may swap it; the default writes to stderr.
var Logf = func(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "workload: "+format+"\n", args...)
}

// FS is the filesystem the trace cache runs on. Production uses the
// passthrough default; fault-injection tests and the chaos harness swap
// in a vfs.Faulty to prove the cache degrades instead of failing. Like
// Logf it is a package variable rather than a parameter so the dozens
// of existing call sites stay unchanged.
var FS vfs.FS = vfs.OS{}

// storeDegraded counts the trace-cache stores this process downgraded
// to in-memory generation.
var storeDegraded atomic.Int64

// StoreDegraded returns how many trace-cache stores this process has
// downgraded to in-memory generation because the store failed (full
// disk, read-only cache, injected fault). simserved reports it in
// /statusz; each downgrade is also a Logf warning.
func StoreDegraded() int64 { return storeDegraded.Load() }

// DefaultCacheDir returns the default on-disk trace cache location,
// <user cache dir>/cachewrite/traces (e.g. ~/.cache/cachewrite/traces
// on Linux).
func DefaultCacheDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("workload: no user cache dir: %w", err)
	}
	return filepath.Join(base, "cachewrite", "traces"), nil
}

// ResolveCacheDir maps a CLI -tracecache flag value to a cache
// directory: "off" or "none" disables the cache (empty result), "" or
// "auto" selects DefaultCacheDir, and anything else is used verbatim.
// When the default directory cannot be determined the cache is
// silently disabled — generation always still works.
func ResolveCacheDir(flagVal string) string {
	switch flagVal {
	case "off", "none":
		return ""
	case "", "auto":
		dir, err := DefaultCacheDir()
		if err != nil {
			return ""
		}
		return dir
	default:
		return flagVal
	}
}

// CachePath returns the content-addressed file path for the trace of
// (name, scale) under dir. The name and scale appear in the filename
// for humans; the hash binds the file to the exact generator version,
// so bumping GeneratorVersion invalidates every old entry.
func CachePath(dir, name string, scale int) string {
	scale = clampScale(scale)
	sum := sha256.Sum256(fmt.Appendf(nil, "cwt1|gen%d|%s|scale%d", GeneratorVersion, name, scale))
	return filepath.Join(dir, fmt.Sprintf("%s-s%d-%s.cwt", name, scale, hex.EncodeToString(sum[:8])))
}

// quarantineSuffix is appended to corrupt cache entries moved aside
// for post-mortem instead of being decoded again (or silently
// deleted).
const quarantineSuffix = ".quarantined"

// tmpMaxAge is how old a stray temp file must be before the startup
// sweep removes it; younger ones may belong to a concurrent run's
// in-flight atomic write.
const tmpMaxAge = 15 * time.Minute

// sweptDirs remembers which cache directories this process has already
// swept for stray temp files, so the sweep costs one ReadDir per dir
// per process.
var sweptDirs sync.Map

// sweepTempFiles removes stray ".tmp-*" files older than tmpMaxAge
// from dir — the leftovers of runs killed between creating the temp
// file and renaming it into place. It runs once per directory per
// process and reports how many files it removed.
func sweepTempFiles(dir string) int {
	if dir == "" {
		return 0
	}
	if _, done := sweptDirs.LoadOrStore(dir, true); done {
		return 0
	}
	entries, err := FS.ReadDir(dir)
	if err != nil { //simlint:allow errflow janitor pass: a missing or unreadable dir means nothing to sweep, and the cache is built to degrade silently
		return 0
	}
	removed := 0
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), ".tmp-") || e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil || time.Since(info.ModTime()) < tmpMaxAge {
			continue
		}
		if FS.Remove(filepath.Join(dir, e.Name())) == nil {
			removed++
		}
	}
	if removed > 0 {
		Logf("trace cache %s: removed %d stale temp file(s) from interrupted runs", dir, removed)
	}
	return removed
}

// genMu lets one cache miss generate at a time, while hits decode in
// parallel. A generation grows its trace by append, so two at once
// hold two growing traces and their garbage: filling an empty cache
// with the six paper traces in parallel raised peak RSS from 153–176
// to 161–198 MiB on a 2-CPU host.
var genMu sync.Mutex

// GenerateCached is Generate backed by the on-disk trace cache at dir:
// a hit decodes the stored CWT1 file instead of re-executing the
// workload; a miss generates the trace and stores it for next time.
// An empty dir disables caching.
//
// The cache never fails the call. A corrupt or truncated entry is
// quarantined (renamed aside with a ".quarantined" suffix) and the
// trace regenerated; a store that fails — full disk, read-only cache,
// permissions — downgrades to in-memory generation with a warning
// through Logf. A hit refreshes the entry's modification time so
// EnforceBudget evicts least-recently-used entries first.
func GenerateCached(dir, name string, scale int) (*trace.Trace, error) {
	if dir == "" {
		return Generate(name, scale)
	}
	sweepTempFiles(dir)
	path := CachePath(dir, name, scale)
	t, lerr := loadCached(path, name)
	if lerr == nil {
		now := time.Now()
		_ = FS.Chtimes(path, now, now) //simlint:allow errflow LRU bump is best effort: a failed mtime refresh only skews eviction order
		return t, nil
	}
	if !errors.Is(lerr, fs.ErrNotExist) {
		// The entry exists but cannot be used: quarantine it for
		// post-mortem so the next run does not trip over it again.
		//simlint:allow errflow quarantine is best effort; the Logf below reports the corrupt entry either way and regeneration proceeds
		if qerr := FS.Rename(path, path+quarantineSuffix); qerr != nil {
			_ = FS.Remove(path) //simlint:allow errflow last-resort cleanup of an entry that can be neither read nor renamed; regeneration overwrites it
		}
		Logf("trace cache %s: quarantined corrupt entry and regenerating %s: %v", dir, name, lerr)
	}
	genMu.Lock()
	t, err := Generate(name, scale)
	genMu.Unlock()
	if err != nil {
		return nil, err
	}
	if serr := storeCached(path, t); serr != nil {
		storeDegraded.Add(1)
		Logf("trace cache %s: cannot store %s (%s); continuing with in-memory trace: %v",
			dir, name, classifyStoreError(serr), serr)
	}
	return t, nil
}

// classifyStoreError names the downgrade cause for the warning line.
func classifyStoreError(err error) string {
	switch {
	case errors.Is(err, syscall.ENOSPC):
		return "disk full"
	case errors.Is(err, fs.ErrPermission), errors.Is(err, syscall.EROFS):
		return "no write permission"
	default:
		return "store failed"
	}
}

// GenerateAllCached produces traces for the six paper benchmarks in
// paper order through the cache at dir (empty dir disables caching),
// loading them in parallel. On failure it returns the error of the
// first failing benchmark in paper order.
func GenerateAllCached(dir string, scale int) ([]*trace.Trace, error) {
	names := PaperOrder()
	return fanout.Run(len(names), func(i int) (*trace.Trace, error) { return GenerateCached(dir, names[i], scale) })
}

// EnforceBudget prunes the cache directory to at most budget bytes of
// ".cwt" entries, evicting least-recently-used entries first (cache
// hits refresh modification times, so mtime order is use order). It
// also drops quarantined entries beyond the budget. budget <= 0 or an
// empty dir is a no-op. Returns how many files were evicted; I/O
// errors are reported but never interrupt eviction.
func EnforceBudget(dir string, budget int64) (int, error) {
	if dir == "" || budget <= 0 {
		return 0, nil
	}
	entries, err := FS.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []entry
	var total int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if !strings.HasSuffix(name, ".cwt") && !strings.HasSuffix(name, quarantineSuffix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, entry{filepath.Join(dir, name), info.Size(), info.ModTime()})
		total += info.Size()
	}
	if total <= budget {
		return 0, nil
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	evicted := 0
	var firstErr error
	for _, f := range files {
		if total <= budget {
			break
		}
		if err := FS.Remove(f.path); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		total -= f.size
		evicted++
	}
	if evicted > 0 {
		Logf("trace cache %s: evicted %d least-recently-used entries to stay under %d-byte budget",
			dir, evicted, budget)
	}
	return evicted, firstErr
}

// loadCached decodes a cached trace, rejecting files whose recorded
// name does not match (hash collision or hand-copied file).
func loadCached(path, name string) (*trace.Trace, error) {
	f, err := FS.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := trace.ReadBinary(f)
	if err != nil {
		return nil, err
	}
	if t.Name != name {
		return nil, fmt.Errorf("workload: cached trace %s holds %q, want %q", path, t.Name, name)
	}
	return t, nil
}

// storeCached writes the trace atomically (temp file + sync + rename)
// so a crashed or concurrent run never leaves a torn cache entry
// behind — the sync before the rename closes the window where a rename
// commits a name whose data never reached the disk. The deferred
// Remove also reaps the temp file on every error path; a run killed
// outright leaves it to the next run's sweepTempFiles.
func storeCached(path string, t *trace.Trace) error {
	dir := filepath.Dir(path)
	if err := FS.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := FS.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer FS.Remove(tmp.Name())
	if err := trace.WriteBinary(tmp, t); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return FS.Rename(tmp.Name(), path)
}
