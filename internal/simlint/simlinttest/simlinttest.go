// Package simlinttest is the golden-file test harness for the simlint
// analyzers, mirroring golang.org/x/tools/go/analysis/analysistest on
// the standard library alone. Test packages live under
// internal/simlint/testdata/src/<dir> (testdata is invisible to the go
// tool, so seeded violations never reach a real build) and mark every
// expected diagnostic with a trailing comment:
//
//	err == ErrLimit // want "use errors.Is"
//	ok()            // no comment: any diagnostic here fails the test
//
// Each `// want` comment carries one or more quoted Go string literals
// interpreted as regular expressions; every diagnostic reported on
// that line must match one of them, and every want must be matched by
// exactly one diagnostic. Imports in test packages are limited to the
// standard library and sibling testdata packages listed in the same
// Run call.
package simlinttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cachewrite/internal/simlint"
)

// Run loads each testdata/src/<dir> as one package, applies the
// analyzer (collect phase over all of them first, then the run
// phase), and compares diagnostics against the `// want` comments in
// every file.
//
//simlint:allow deadcode harness for every analyzer test in internal/simlint, e.g. TestNoPanic and TestDeadCode
func Run(t *testing.T, a *simlint.Analyzer, dirs ...string) {
	t.Helper()
	if len(dirs) == 0 {
		t.Fatal("simlinttest.Run: no testdata dirs given")
	}
	fset := token.NewFileSet()
	imp := simlint.NewTestImporter(fset, ".")
	var pkgs []*simlint.Package
	wants := map[string][]*want{} // filename -> line-ordered expectations
	for _, dir := range dirs {
		// Tests calling the harness run with the analyzer package
		// (internal/simlint) as working directory.
		root := filepath.Join("testdata", "src", filepath.FromSlash(dir))
		files, names, err := parseDir(fset, root)
		if err != nil {
			t.Fatalf("simlinttest: %v", err)
		}
		for _, name := range names {
			ws, err := parseWants(name)
			if err != nil {
				t.Fatalf("simlinttest: %v", err)
			}
			for file, list := range ws {
				wants[file] = append(wants[file], list...)
			}
		}
		pkg, err := simlint.CheckPackage(dir, fset, files, imp)
		if err != nil {
			t.Fatalf("simlinttest: type-checking %s: %v", dir, err)
		}
		imp.Add(pkg.Types)
		pkgs = append(pkgs, pkg)
	}

	diags, err := simlint.RunOnPackages(pkgs, []*simlint.Analyzer{a})
	if err != nil {
		t.Fatalf("simlinttest: %v", err)
	}

	for _, d := range diags {
		if !claim(wants[d.Pos.Filename], d) {
			t.Errorf("%s: unexpected diagnostic: %s", position(d.Pos), d.Message)
		}
	}
	var missing []string
	for file, list := range wants {
		for _, w := range list {
			if !w.matched {
				missing = append(missing, fmt.Sprintf("%s:%d: no diagnostic matching %q", file, w.line, w.pattern))
			}
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s", m)
	}
}

// want is one expected-diagnostic marker.
type want struct {
	line    int
	pattern string
	re      *regexp.Regexp
	matched bool
}

// claim marks the first unmatched want on the diagnostic's line whose
// pattern matches, reporting whether one existed.
func claim(ws []*want, d simlint.Diagnostic) bool {
	for _, w := range ws {
		if w.line == d.Pos.Line && !w.matched && w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

func position(p token.Position) string {
	return fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column)
}

// parseDir parses every non-test .go file directly inside root, as the
// module loader does: a _test.go file in testdata is a use the
// analyzers must not see.
func parseDir(fset *token.FileSet, root string) ([]*ast.File, []string, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		name := filepath.Join(root, e.Name())
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
		names = append(names, name)
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("no .go files in %s", root)
	}
	return files, names, nil
}

// wantRE matches the prefix of a want comment; the quoted patterns
// after it are parsed with parseStrings.
var wantRE = regexp.MustCompile(`//\s*want\s+(.*)`)

// parseWants scans one file's source for `// want "re"` comments.
func parseWants(filename string) (map[string][]*want, error) {
	src, err := os.ReadFile(filename)
	if err != nil {
		return nil, err
	}
	out := map[string][]*want{}
	for i, line := range strings.Split(string(src), "\n") {
		m := wantRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		patterns, err := parseStrings(m[1])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad want comment: %w", filename, i+1, err)
		}
		for _, p := range patterns {
			re, err := regexp.Compile(p)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad want pattern %q: %w", filename, i+1, p, err)
			}
			out[filename] = append(out[filename], &want{line: i + 1, pattern: p, re: re})
		}
	}
	return out, nil
}

// parseStrings reads consecutive Go string literals (double-quoted or
// backquoted) from s.
func parseStrings(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		var lit string
		switch s[0] {
		case '"':
			end := 1
			for end < len(s) {
				if s[end] == '\\' {
					end += 2
					continue
				}
				if s[end] == '"' {
					break
				}
				end++
			}
			if end >= len(s) {
				return nil, fmt.Errorf("unterminated string in %q", s)
			}
			var err error
			lit, err = strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, err
			}
			s = s[end+1:]
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated raw string in %q", s)
			}
			lit = s[1 : end+1]
			s = s[end+2:]
		default:
			return nil, fmt.Errorf("expected quoted pattern at %q", s)
		}
		out = append(out, lit)
		s = strings.TrimSpace(s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no patterns")
	}
	return out, nil
}
