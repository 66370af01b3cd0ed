package workload

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cachewrite/internal/trace"
)

// captureLogf swaps Logf for a collector for the test's duration.
func captureLogf(t *testing.T) func() []string {
	t.Helper()
	var mu sync.Mutex
	var lines []string
	prev := Logf
	Logf = func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	t.Cleanup(func() { Logf = prev })
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), lines...)
	}
}

func TestGenerateCachedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want, err := Generate("liver", 1)
	if err != nil {
		t.Fatal(err)
	}

	// Miss: generates and stores.
	got, err := GenerateCached(dir, "liver", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cached-miss trace differs from direct generation")
	}
	path := CachePath(dir, "liver", 1)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cache entry not written: %v", err)
	}

	// Hit: decodes the stored file and matches byte-for-byte.
	got2, err := GenerateCached(dir, "liver", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Fatal("cache-hit trace differs from direct generation")
	}
}

func TestGenerateCachedEmptyDirDisables(t *testing.T) {
	got, err := GenerateCached("", "liver", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 {
		t.Fatal("empty trace")
	}
}

func TestGenerateCachedCorruptEntryRegenerates(t *testing.T) {
	logs := captureLogf(t)
	dir := t.TempDir()
	path := CachePath(dir, "liver", 1)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("CWT1 garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := Generate("liver", 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GenerateCached(dir, "liver", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("regenerated trace differs after corrupt cache entry")
	}
	// The corrupt entry must have been replaced with a decodable one.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := trace.ReadBinary(f); err != nil {
		t.Fatalf("cache entry still corrupt after regeneration: %v", err)
	}
	// The corrupt bytes must be quarantined for post-mortem, with a
	// warning logged, not silently destroyed.
	q, err := os.ReadFile(path + quarantineSuffix)
	if err != nil {
		t.Fatalf("corrupt entry not quarantined: %v", err)
	}
	if string(q) != "CWT1 garbage" {
		t.Fatalf("quarantined bytes = %q", q)
	}
	found := false
	for _, l := range logs() {
		if strings.Contains(l, "quarantined") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no quarantine warning logged; logs: %v", logs())
	}
}

// TestGenerateCachedTruncatedEntryRegenerates: a torn (truncated)
// CWT1 entry — the shape a full disk or kill-during-copy leaves — is
// quarantined and regenerated, not fatal.
func TestGenerateCachedTruncatedEntryRegenerates(t *testing.T) {
	captureLogf(t)
	dir := t.TempDir()
	want, err := GenerateCached(dir, "liver", 1)
	if err != nil {
		t.Fatal(err)
	}
	path := CachePath(dir, "liver", 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := GenerateCached(dir, "liver", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("regenerated trace differs after truncated cache entry")
	}
	if _, err := os.Stat(path + quarantineSuffix); err != nil {
		t.Fatalf("truncated entry not quarantined: %v", err)
	}
}

// TestGenerateCachedReadOnlyDirDowngrades: when the cache directory
// cannot be written the run continues on the in-memory trace with a
// warning — it must never fail.
func TestGenerateCachedReadOnlyDirDowngrades(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root ignores directory permissions")
	}
	logs := captureLogf(t)
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(dir, 0o755) })
	got, err := GenerateCached(dir, "liver", 1)
	if err != nil {
		t.Fatalf("read-only cache dir failed the run: %v", err)
	}
	if got.Len() == 0 {
		t.Fatal("empty trace")
	}
	found := false
	for _, l := range logs() {
		if strings.Contains(l, "in-memory") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no downgrade warning logged; logs: %v", logs())
	}
}

// TestSweepTempFiles: stale .tmp-* leftovers from killed runs are
// removed on first cache use; fresh ones (a concurrent run's in-flight
// write) and real entries are kept.
func TestSweepTempFiles(t *testing.T) {
	captureLogf(t)
	dir := t.TempDir()
	stale := filepath.Join(dir, ".tmp-12345")
	fresh := filepath.Join(dir, ".tmp-67890")
	keep := filepath.Join(dir, "liver-s1-feedface.cwt")
	for _, p := range []string{stale, fresh, keep} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * tmpMaxAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateCached(dir, "liver", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived the sweep (stat err %v)", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp file was swept: %v", err)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Errorf("cache entry was swept: %v", err)
	}
}

// TestEnforceBudgetLRU: eviction removes least-recently-used entries
// first and stops as soon as the directory fits the budget.
func TestEnforceBudgetLRU(t *testing.T) {
	logs := captureLogf(t)
	dir := t.TempDir()
	mk := func(name string, age time.Duration) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, make([]byte, 1000), 0o644); err != nil {
			t.Fatal(err)
		}
		when := time.Now().Add(-age)
		if err := os.Chtimes(p, when, when); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldest := mk("a-s1-00.cwt", 3*time.Hour)
	middle := mk("b-s1-01.cwt", 2*time.Hour)
	newest := mk("c-s1-02.cwt", time.Hour)
	other := filepath.Join(dir, "unrelated.txt")
	if err := os.WriteFile(other, make([]byte, 4000), 0o644); err != nil {
		t.Fatal(err)
	}

	evicted, err := EnforceBudget(dir, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 1 {
		t.Fatalf("evicted %d entries, want 1", evicted)
	}
	if l := logs(); len(l) != 1 || !strings.Contains(l[0], "evicted 1 least-recently-used entries to stay under 2000-byte budget") {
		t.Fatalf("logs = %v, want one eviction warning", l)
	}
	if _, err := os.Stat(oldest); !os.IsNotExist(err) {
		t.Error("oldest entry survived eviction")
	}
	for _, p := range []string{middle, newest, other} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s wrongly evicted: %v", p, err)
		}
	}
	// Under budget: no-op. Disabled budget: no-op.
	if n, err := EnforceBudget(dir, 1<<30); err != nil || n != 0 {
		t.Fatalf("under-budget eviction = %d, %v", n, err)
	}
	if n, err := EnforceBudget(dir, 0); err != nil || n != 0 {
		t.Fatalf("disabled budget eviction = %d, %v", n, err)
	}
}

// TestEnforceBudgetHitRefreshesLRU: a cache hit must protect the entry
// from eviction ahead of colder entries.
func TestEnforceBudgetHitRefreshesLRU(t *testing.T) {
	captureLogf(t)
	dir := t.TempDir()
	if _, err := GenerateCached(dir, "liver", 1); err != nil {
		t.Fatal(err)
	}
	hot := CachePath(dir, "liver", 1)
	// Age the real entry, then add a newer decoy; a hit on the real
	// entry must out-recent the decoy.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(hot, old, old); err != nil {
		t.Fatal(err)
	}
	cold := filepath.Join(dir, "decoy-s1-00.cwt")
	if err := os.WriteFile(cold, []byte("decoy"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateCached(dir, "liver", 1); err != nil { // hit: bumps mtime
		t.Fatal(err)
	}
	info, err := os.Stat(hot)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ModTime().After(old.Add(time.Minute)) {
		t.Fatalf("cache hit did not refresh mtime (still %v)", info.ModTime())
	}
	hotSize, err := os.Stat(hot)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EnforceBudget(dir, hotSize.Size()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(hot); err != nil {
		t.Errorf("recently hit entry was evicted: %v", err)
	}
	if _, err := os.Stat(cold); !os.IsNotExist(err) {
		t.Errorf("cold decoy survived eviction (stat err %v)", err)
	}
}

func TestGenerateCachedRejectsWrongName(t *testing.T) {
	dir := t.TempDir()
	// Store grr's trace where liver's entry should live.
	grr, err := Generate("grr", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := storeCached(CachePath(dir, "liver", 1), grr); err != nil {
		t.Fatal(err)
	}
	got, err := GenerateCached(dir, "liver", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "liver" {
		t.Fatalf("got trace %q, want regenerated liver", got.Name)
	}
}

func TestCachePathKeying(t *testing.T) {
	a := CachePath("d", "liver", 1)
	if CachePath("d", "liver", 1) != a {
		t.Fatal("CachePath is not deterministic")
	}
	if CachePath("d", "liver", 2) == a || CachePath("d", "grr", 1) == a {
		t.Fatal("CachePath does not distinguish name/scale")
	}
	// Scale <= 0 is clamped to 1 everywhere, including the key.
	if CachePath("d", "liver", 0) != a {
		t.Fatal("CachePath(scale 0) should alias scale 1")
	}
	if !strings.Contains(a, "liver-s1-") {
		t.Fatalf("CachePath %q lacks the human-readable prefix", a)
	}
}

func TestGenerateAllCached(t *testing.T) {
	if testing.Short() {
		t.Skip("real workloads in -short mode")
	}
	dir := t.TempDir()
	ts, err := GenerateAllCached(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != len(PaperOrder()) {
		t.Fatalf("got %d traces, want %d", len(ts), len(PaperOrder()))
	}
	for i, name := range PaperOrder() {
		if ts[i].Name != name {
			t.Fatalf("trace %d is %q, want %q", i, ts[i].Name, name)
		}
	}
	// Second pass is a pure cache hit and must agree.
	ts2, err := GenerateAllCached(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ts {
		if !reflect.DeepEqual(ts[i], ts2[i]) {
			t.Fatalf("cache-hit trace %q differs", ts[i].Name)
		}
	}
}

func TestResolveCacheDir(t *testing.T) {
	if got := ResolveCacheDir("off"); got != "" {
		t.Fatalf("ResolveCacheDir(off) = %q", got)
	}
	if got := ResolveCacheDir("none"); got != "" {
		t.Fatalf("ResolveCacheDir(none) = %q", got)
	}
	if got := ResolveCacheDir("/tmp/x"); got != "/tmp/x" {
		t.Fatalf("ResolveCacheDir(/tmp/x) = %q", got)
	}
	def, err := DefaultCacheDir()
	if err == nil {
		if got := ResolveCacheDir("auto"); got != def {
			t.Fatalf("ResolveCacheDir(auto) = %q, want %q", got, def)
		}
		if got := ResolveCacheDir(""); got != def {
			t.Fatalf("ResolveCacheDir(\"\") = %q, want %q", got, def)
		}
	}
}
