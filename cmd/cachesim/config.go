package main

import (
	"encoding/json"
	"fmt"
	"io"

	"cachewrite/internal/cache"
	"cachewrite/internal/hierarchy"
	"cachewrite/internal/writecache"
)

// jsonConfig is the -config file format: a full simulation
// configuration. Policy fields take the paper's names ("write-back",
// "write-validate", ...) through the parsers every command shares;
// sizes are plain byte counts. The mirror types keep these snake_case
// keys local to the file format instead of tagging cache.Config.
type jsonConfig struct {
	L1         jsonCache  `json:"l1"`
	WriteCache *jsonWC    `json:"write_cache,omitempty"`
	VictimMode bool       `json:"victim_mode,omitempty"`
	L2         *jsonCache `json:"l2,omitempty"`
	Inclusive  bool       `json:"inclusive,omitempty"`
}

// jsonCache mirrors cache.Config.
type jsonCache struct {
	Size               int    `json:"size"`
	LineSize           int    `json:"line_size"`
	Assoc              int    `json:"assoc"`
	WriteHit           string `json:"write_hit"`
	WriteMiss          string `json:"write_miss"`
	Replacement        string `json:"replacement,omitempty"`
	ValidGranularity   int    `json:"valid_granularity,omitempty"`
	SectorFetch        bool   `json:"sector_fetch,omitempty"`
	WVMissWriteThrough bool   `json:"wv_miss_write_through,omitempty"`
}

// jsonWC mirrors writecache.Config.
type jsonWC struct {
	Entries  int `json:"entries"`
	LineSize int `json:"line_size"`
}

// toCacheConfig converts the JSON form, validating the policy names.
func (j jsonCache) toCacheConfig() (cache.Config, error) {
	hit, err := cache.ParseWriteHit(j.WriteHit)
	if err != nil {
		return cache.Config{}, err
	}
	miss, err := cache.ParseWriteMiss(j.WriteMiss)
	if err != nil {
		return cache.Config{}, err
	}
	repl, err := cache.ParseReplacement(j.Replacement)
	if err != nil {
		return cache.Config{}, err
	}
	return cache.Config{
		Size: j.Size, LineSize: j.LineSize, Assoc: j.Assoc,
		WriteHit: hit, WriteMiss: miss, Replacement: repl,
		ValidGranularity:   j.ValidGranularity,
		SectorFetch:        j.SectorFetch,
		WVMissWriteThrough: j.WVMissWriteThrough,
	}, nil
}

// loadConfig reads a jsonConfig document and converts it to a validated
// simulation configuration.
func loadConfig(r io.Reader) (hierarchy.Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var j jsonConfig
	if err := dec.Decode(&j); err != nil {
		return hierarchy.Config{}, fmt.Errorf("parsing config: %w", err)
	}
	if dec.More() {
		return hierarchy.Config{}, fmt.Errorf("trailing data after config document")
	}
	var cfg hierarchy.Config
	var err error
	if cfg.L1, err = j.L1.toCacheConfig(); err != nil {
		return hierarchy.Config{}, err
	}
	if j.WriteCache != nil {
		cfg.WriteCache = &writecache.Config{Entries: j.WriteCache.Entries, LineSize: j.WriteCache.LineSize}
	}
	cfg.VictimMode = j.VictimMode
	cfg.Inclusive = j.Inclusive
	if j.L2 != nil {
		l2, err := j.L2.toCacheConfig()
		if err != nil {
			return hierarchy.Config{}, err
		}
		cfg.L2 = &l2
	}
	if err := cfg.Validate(); err != nil {
		return hierarchy.Config{}, err
	}
	return cfg, nil
}
