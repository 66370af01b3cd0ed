package simlint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cachewrite/internal/simlint"
)

// TestScopedPackagesExist asserts that every package path named in an
// analyzer scope corresponds to a real directory with Go sources. A
// renamed or deleted engine package would otherwise silently drop out
// of enforcement.
func TestScopedPackagesExist(t *testing.T) {
	seen := map[string]bool{}
	var scoped []string
	for _, list := range [][]string{
		simlint.EnginePackages,
		simlint.DeterministicPackages,
		simlint.WorkerLoopPackages,
		simlint.DurabilityPackages,
		simlint.LockedPackages,
		simlint.StatsPackages,
	} {
		for _, p := range list {
			if !seen[p] {
				seen[p] = true
				scoped = append(scoped, p)
			}
		}
	}
	if len(scoped) == 0 {
		t.Fatal("no scoped packages registered")
	}
	for _, rel := range scoped {
		// Tests run with internal/simlint as the working directory;
		// scope entries are module-relative.
		dir := filepath.Join("..", "..", filepath.FromSlash(rel))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Errorf("scoped package %s: %v", rel, err)
			continue
		}
		hasGo := false
		for _, e := range entries {
			name := e.Name()
			if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				hasGo = true
				break
			}
		}
		if !hasGo {
			t.Errorf("scoped package %s has no non-test Go files", rel)
		}
	}
}

// TestAnalyzerRegistry asserts the suite stays complete: ten
// analyzers, unique names, docs present.
func TestAnalyzerRegistry(t *testing.T) {
	all := simlint.All()
	if len(all) != 10 {
		t.Fatalf("expected 10 analyzers, got %d", len(all))
	}
	names := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v missing name or doc", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %s", a.Name)
		}
		names[a.Name] = true
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
	}
}
