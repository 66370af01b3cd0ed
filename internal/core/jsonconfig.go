package core

import (
	"encoding/json"
	"fmt"
	"io"

	"cachewrite/internal/cache"
	"cachewrite/internal/writecache"
)

// JSONConfig is the serializable form of a full simulation
// configuration, for cachesim -config files and scripting. Policy
// fields take the paper's names ("write-back", "write-validate", ...);
// sizes accept plain byte counts.
type JSONConfig struct {
	L1         JSONCache  `json:"l1"`
	WriteCache *JSONWC    `json:"write_cache,omitempty"`
	VictimMode bool       `json:"victim_mode,omitempty"`
	L2         *JSONCache `json:"l2,omitempty"`
	Inclusive  bool       `json:"inclusive,omitempty"`
}

// JSONCache mirrors cache.Config.
type JSONCache struct {
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

// JSONWC mirrors writecache.Config.
type JSONWC struct {
	Entries  int `json:"entries"`
	LineSize int `json:"line_size"`
}

// toCacheConfig converts the JSON form, validating the policy names.
func (j JSONCache) toCacheConfig() (cache.Config, error) {
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

// LoadConfig reads a JSONConfig document and converts it to a validated
// simulation Config.
func LoadConfig(r io.Reader) (Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var j JSONConfig
	if err := dec.Decode(&j); err != nil {
		return Config{}, fmt.Errorf("core: parsing config: %w", err)
	}
	if dec.More() {
		return Config{}, fmt.Errorf("core: trailing data after config document")
	}
	var cfg Config
	var err error
	if cfg.L1, err = j.L1.toCacheConfig(); err != nil {
		return Config{}, err
	}
	if j.WriteCache != nil {
		cfg.WriteCache = &writecache.Config{Entries: j.WriteCache.Entries, LineSize: j.WriteCache.LineSize}
	}
	cfg.VictimMode = j.VictimMode
	cfg.Inclusive = j.Inclusive
	if j.L2 != nil {
		l2, err := j.L2.toCacheConfig()
		if err != nil {
			return Config{}, err
		}
		cfg.L2 = &l2
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}
