package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cachewrite/internal/experiments"
)

// The goldens cover every experiment in paperfigs order.
func TestGoldensCoverEveryExperiment(t *testing.T) {
	var f goldenFile
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(goldensJSON, &f); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, x := range f.IDs {
		ids = append(ids, x.ID)
	}
	if !reflect.DeepEqual(ids, experiments.IDs()) {
		t.Fatalf("golden ids %v\nwant paperfigs order %v", ids, experiments.IDs())
	}
	if !reflect.DeepEqual(append(figureIDs(), coherenceIDs()...), ids) || len(g) != len(ids) {
		t.Fatalf("figures and coherence ids do not partition the experiments")
	}
}

// docs/figures.txt is an older paperfigs -all capture that stops
// partway: every experiment it holds in full must hash to its golden,
// and the ext-coh-* experiments lie beyond its end.
func TestGoldensMatchDocsFigures(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "docs", "figures.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var f goldenFile
	if err := json.Unmarshal(goldensJSON, &f); err != nil {
		t.Fatal(err)
	}
	off, full := 0, 0
	for _, g := range f.IDs {
		if off+g.Bytes > len(doc) {
			break
		}
		if strings.HasPrefix(g.ID, "ext-coh-") {
			t.Errorf("docs/figures.txt unexpectedly holds %s", g.ID)
		}
		if got := digest(doc[off : off+g.Bytes]); got != g.SHA256 {
			t.Errorf("%s: docs/figures.txt bytes [%d,%d) hash %s, golden %s", g.ID, off, off+g.Bytes, got, g.SHA256)
		}
		off += g.Bytes
		full++
	}
	if full == 0 {
		t.Fatal("docs/figures.txt holds no complete experiment")
	}
	t.Logf("docs/figures.txt holds %d of %d experiments in full (%d of %d bytes)", full, len(f.IDs), off, len(doc))
}
