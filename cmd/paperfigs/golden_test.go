//go:build !race

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"cachewrite/internal/experiments"
	"cachewrite/internal/workload"
)

// TestAllMatchesGoldens renders `paperfigs -all` on the scale-1 paper
// traces and checks each experiment's bytes against the SHA-256 and
// length recorded in perfbench/goldens.json, the file the benchmark
// checks its own renderings against. The output is cut into ids by
// those lengths, in paperfigs order, so a failure names the first id
// whose rendering moved. The race suite skips it: under -race the full
// render takes minutes.
func TestAllMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper render in -short mode")
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "perfbench", "goldens.json"))
	if err != nil {
		t.Fatal(err)
	}
	var goldens struct {
		GeneratorVersion int `json:"generator_version"`
		IDs              []struct {
			ID     string `json:"id"`
			SHA256 string `json:"sha256"`
			Bytes  int    `json:"bytes"`
		} `json:"ids"`
	}
	if err := json.Unmarshal(data, &goldens); err != nil {
		t.Fatal(err)
	}
	if goldens.GeneratorVersion != workload.GeneratorVersion {
		t.Fatalf("goldens are for generator version %d, traces are version %d", goldens.GeneratorVersion, workload.GeneratorVersion)
	}
	ids := experiments.IDs()
	if len(goldens.IDs) != len(ids) {
		t.Fatalf("goldens cover %d ids, paperfigs renders %d", len(goldens.IDs), len(ids))
	}

	var out, errb bytes.Buffer
	args := []string{"-all", "-tracecache", t.TempDir(), "-failures", ""}
	if code := run(context.Background(), args, &out, &errb); code != 0 {
		t.Fatalf("paperfigs -all exited %d:\n%s", code, errb.String())
	}
	rest := out.Bytes()
	for i, g := range goldens.IDs {
		if g.ID != ids[i] {
			t.Fatalf("golden %d is %s, paperfigs renders %s there", i, g.ID, ids[i])
		}
		if len(rest) < g.Bytes {
			t.Fatalf("%s: %d bytes left of the output, golden has %d", g.ID, len(rest), g.Bytes)
		}
		sum := sha256.Sum256(rest[:g.Bytes])
		if got := hex.EncodeToString(sum[:]); got != g.SHA256 {
			t.Fatalf("%s: rendering differs from its golden (sha256 %s, want %s)", g.ID, got, g.SHA256)
		}
		rest = rest[g.Bytes:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes after the last golden id", len(rest))
	}
}
