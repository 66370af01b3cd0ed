package main

import (
	"bytes"
	"go/token"
	"os"
	"strings"
	"testing"

	"cachewrite/internal/simlint"
)

// fixedDiags is a deterministic input set for the formatter tests.
func fixedDiags() []simlint.Diagnostic {
	return []simlint.Diagnostic{
		{
			Pos:      token.Position{Filename: "internal/serve/serve.go", Line: 10, Column: 2},
			End:      token.Position{Filename: "internal/serve/serve.go", Line: 10, Column: 30},
			Analyzer: "lockheld",
			Message:  "channel send while Server.mu is held",
		},
		{
			Pos:      token.Position{Filename: "internal/vfs/faulty.go", Line: 42, Column: 9},
			End:      token.Position{Filename: "internal/vfs/faulty.go", Line: 42, Column: 9},
			Analyzer: "errflow",
			Message:  "error from vfs.Remove discarded",
		},
	}
}

func TestWriteJSONStable(t *testing.T) {
	var a, b bytes.Buffer
	if err := writeJSON(&a, fixedDiags()); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(&b, fixedDiags()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("writeJSON is not byte-stable:\n%s\nvs\n%s", a.String(), b.String())
	}
	out := a.String()
	for _, want := range []string{
		`"analyzer": "lockheld"`,
		`"file": "internal/serve/serve.go"`,
		`"line": 10`,
		// The second diagnostic is a point: no end object.
		`"analyzer": "errflow"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON output missing %s:\n%s", want, out)
		}
	}
	if strings.Count(out, `"end"`) != 1 {
		t.Errorf("expected exactly one end span (point diagnostics omit it):\n%s", out)
	}
}

func TestWriteSARIFStable(t *testing.T) {
	analyzers := simlint.All()
	var a, b bytes.Buffer
	if err := writeSARIF(&a, analyzers, fixedDiags()); err != nil {
		t.Fatal(err)
	}
	if err := writeSARIF(&b, analyzers, fixedDiags()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("writeSARIF is not byte-stable")
	}
	out := a.String()
	for _, want := range []string{
		`"version": "2.1.0"`,
		`"name": "simlint"`,
		`"ruleId": "lockheld"`,
		`"level": "warning"`,
		`"uri": "internal/serve/serve.go"`,
		`"endColumn": 30`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SARIF output missing %s:\n%s", want, out)
		}
	}
	// Every registered analyzer appears as a rule.
	for _, an := range analyzers {
		if !strings.Contains(out, `"id": "`+an.Name+`"`) {
			t.Errorf("SARIF rules missing analyzer %s", an.Name)
		}
	}
}

// TestListShowsTenAnalyzers pins the registry size at the CLI
// surface.
func TestListShowsTenAnalyzers(t *testing.T) {
	stdout, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	stderr, err := os.CreateTemp(t.TempDir(), "err")
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	if code := run([]string{"-list"}, stdout, stderr); code != 0 {
		t.Fatalf("simlint -list exited %d", code)
	}
	data, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("simlint -list printed %d analyzers, want 10:\n%s", len(lines), data)
	}
	for _, name := range []string{"lockheld", "errflow", "statsound", "deadcode"} {
		if !strings.Contains(string(data), name) {
			t.Errorf("simlint -list missing %s", name)
		}
	}
}
