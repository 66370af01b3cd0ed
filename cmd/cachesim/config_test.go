package main

import (
	"strings"
	"testing"

	"cachewrite/internal/cache"
)

func TestLoadConfigFull(t *testing.T) {
	doc := `{
	  "l1": {
	    "size": 8192, "line_size": 16, "assoc": 1,
	    "write_hit": "write-through", "write_miss": "fetch-on-write"
	  },
	  "write_cache": {"entries": 5, "line_size": 16},
	  "victim_mode": true,
	  "l2": {
	    "size": 262144, "line_size": 64, "assoc": 4,
	    "write_hit": "wb", "write_miss": "fow", "replacement": "fifo"
	  }
	}`
	cfg, err := loadConfig(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.L1.Size != 8192 || cfg.L1.WriteHit != cache.WriteThrough {
		t.Errorf("L1 = %+v", cfg.L1)
	}
	if cfg.WriteCache == nil || cfg.WriteCache.Entries != 5 {
		t.Error("write cache not loaded")
	}
	if !cfg.VictimMode {
		t.Error("victim mode not loaded")
	}
	if cfg.L2 == nil || cfg.L2.Replacement != cache.FIFO {
		t.Error("L2 not loaded")
	}
}

func TestLoadConfigVariantFields(t *testing.T) {
	doc := `{"l1": {"size": 8192, "line_size": 16, "assoc": 1,
	  "write_hit": "wb", "write_miss": "wv",
	  "valid_granularity": 8, "wv_miss_write_through": true}}`
	cfg, err := loadConfig(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.L1.ValidGranularity != 8 || !cfg.L1.WVMissWriteThrough {
		t.Errorf("variants not loaded: %+v", cfg.L1)
	}
}

func TestLoadConfigErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"l1": {"size": 8192, "line_size": 16, "assoc": 1, "write_hit": "nope", "write_miss": "fow"}}`,
		`{"l1": {"size": 8192, "line_size": 16, "assoc": 1, "write_hit": "wb", "write_miss": "nope"}}`,
		`{"l1": {"size": 8192, "line_size": 16, "assoc": 1, "write_hit": "wb", "write_miss": "fow", "replacement": "nope"}}`,
		`{"l1": {"size": 8192, "line_size": 16, "assoc": 1, "write_hit": "wb", "write_miss": "fow"}, "unknown_field": 1}`,
		`{"l1": {"size": 3000, "line_size": 16, "assoc": 1, "write_hit": "wb", "write_miss": "fow"}}`,
		`{"l1": {"size": 8192, "line_size": 16, "assoc": 1, "write_hit": "wb", "write_miss": "fow"},
		  "l2": {"size": 4096, "line_size": 64, "assoc": 4, "write_hit": "wb", "write_miss": "nope"}}`,
		`{"l1": {"size": 8192, "line_size": 16, "assoc": 1, "write_hit": "wb", "write_miss": "fow"}}  extra`,
		`{"l1": {"size": 8192, "line_size": 16, "assoc": 1, "write_hit": "wt", "write_miss": "fow"},
		  "write_cache": {"entries": 5, "line_size": 256}}`,
	}
	for i, doc := range cases {
		if _, err := loadConfig(strings.NewReader(doc)); err == nil {
			t.Errorf("case %d accepted:\n%s", i, doc)
		}
	}
	// The trailing-data case above relies on validation failing... check
	// a clean minimal doc parses.
	ok := `{"l1": {"size": 8192, "line_size": 16, "assoc": 1, "write_hit": "wb", "write_miss": "fow"}}`
	if _, err := loadConfig(strings.NewReader(ok)); err != nil {
		t.Errorf("minimal config rejected: %v", err)
	}
}

func TestLoadConfigInclusiveAndSector(t *testing.T) {
	doc := `{
	  "l1": {"size": 8192, "line_size": 16, "assoc": 1,
	    "write_hit": "wb", "write_miss": "fow",
	    "valid_granularity": 8, "sector_fetch": true},
	  "l2": {"size": 262144, "line_size": 64, "assoc": 4,
	    "write_hit": "wb", "write_miss": "fow"},
	  "inclusive": true
	}`
	cfg, err := loadConfig(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Inclusive || !cfg.L1.SectorFetch {
		t.Errorf("options not loaded: %+v", cfg)
	}
}
