package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/hierarchy"
	"cachewrite/internal/trace"
	"cachewrite/internal/workload"
	"cachewrite/internal/writecache"
)

func TestBuildConfigPolicies(t *testing.T) {
	cases := []struct {
		hit, miss string
		wantHit   cache.WriteHitPolicy
		wantMiss  cache.WriteMissPolicy
	}{
		{"write-through", "fetch-on-write", cache.WriteThrough, cache.FetchOnWrite},
		{"wt", "fow", cache.WriteThrough, cache.FetchOnWrite},
		{"write-back", "write-validate", cache.WriteBack, cache.WriteValidate},
		{"wb", "wv", cache.WriteBack, cache.WriteValidate},
		{"wt", "wa", cache.WriteThrough, cache.WriteAround},
		{"wt", "write-around", cache.WriteThrough, cache.WriteAround},
		{"wt", "wi", cache.WriteThrough, cache.WriteInvalidate},
		{"wt", "write-invalidate", cache.WriteThrough, cache.WriteInvalidate},
	}
	for _, tc := range cases {
		cfg, err := buildConfig(8<<10, 16, 1, tc.hit, tc.miss, 0, 64, 0)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.hit, tc.miss, err)
		}
		if cfg.L1.WriteHit != tc.wantHit || cfg.L1.WriteMiss != tc.wantMiss {
			t.Errorf("%s/%s parsed to %v/%v", tc.hit, tc.miss, cfg.L1.WriteHit, cfg.L1.WriteMiss)
		}
	}
}

func TestBuildConfigErrors(t *testing.T) {
	if _, err := buildConfig(8<<10, 16, 1, "nope", "fow", 0, 64, 0); err == nil {
		t.Error("bad hit policy accepted")
	}
	if _, err := buildConfig(8<<10, 16, 1, "wb", "nope", 0, 64, 0); err == nil {
		t.Error("bad miss policy accepted")
	}
}

func TestBuildConfigOptions(t *testing.T) {
	cfg, err := buildConfig(8<<10, 16, 2, "wb", "fow", 256<<10, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.L1.Assoc != 2 {
		t.Errorf("assoc = %d", cfg.L1.Assoc)
	}
	if cfg.WriteCache == nil || cfg.WriteCache.Entries != 5 {
		t.Error("write cache not configured")
	}
	if cfg.L2 == nil || cfg.L2.Size != 256<<10 || cfg.L2.LineSize != 32 {
		t.Error("L2 not configured")
	}
	cfg, err = buildConfig(8<<10, 16, 1, "wb", "fow", 0, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.WriteCache != nil || cfg.L2 != nil {
		t.Error("optional components configured unrequested")
	}
}

func TestPrintResultSmoke(t *testing.T) {
	// printResult only formats; run it over a real small simulation to
	// keep the output paths exercised.
	cfg, err := buildConfig(1<<10, 16, 1, "wt", "wi", 16<<10, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate("liver", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulate(cfg, tr.Slice(0, 10000))
	if err != nil {
		t.Fatal(err)
	}
	printResult(cfg, tr.Name, res) // must not panic
}

func baseCfg() cache.Config {
	return cache.Config{Size: 1 << 10, LineSize: 16, Assoc: 1,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
}

func copyTrace(n int) *trace.Trace {
	// A block copy: read source, write destination — the paper's §4
	// motivating example for no-fetch-on-write.
	tr := &trace.Trace{Name: "copy"}
	for i := 0; i < n; i++ {
		tr.Append(trace.Event{Addr: 0x1_0000 + uint32(i*8), Size: 8, Kind: trace.Read})
		tr.Append(trace.Event{Addr: 0x8_0000 + uint32(i*8), Size: 8, Kind: trace.Write})
	}
	return tr
}

func TestSimulate(t *testing.T) {
	tr := copyTrace(500)
	res, err := simulate(hierarchy.Config{L1: baseCfg()}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Refs() != 1000 {
		t.Errorf("trace refs = %d", res.Trace.Refs())
	}
	if res.L1.Reads != 500 || res.L1.Writes != 500 {
		t.Errorf("L1 saw %d/%d reads/writes", res.L1.Reads, res.L1.Writes)
	}
	if res.L1.Misses() == 0 {
		t.Error("streaming copy produced no misses")
	}
	if res.Hierarchy.L1ToL2Transactions == 0 {
		t.Error("no back-side traffic recorded")
	}
}

func TestSimulateBadConfig(t *testing.T) {
	if _, err := simulate(hierarchy.Config{}, copyTrace(1)); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestSimulateWithL2AndWriteCache(t *testing.T) {
	l1 := baseCfg()
	l1.WriteHit = cache.WriteThrough
	l2 := cache.Config{Size: 8 << 10, LineSize: 32, Assoc: 2,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
	res, err := simulate(hierarchy.Config{
		L1:         l1,
		WriteCache: &writecache.Config{Entries: 5, LineSize: 8},
		L2:         &l2,
	}, copyTrace(500))
	if err != nil {
		t.Fatal(err)
	}
	if res.L2.Reads == 0 {
		t.Error("L2 saw no traffic")
	}
}

// TestResultJSONShape pins the field names and order of result as JSON
// — what cachesim -json prints — so a refactor of the embedded stats
// structs cannot silently rename, drop or reorder an output field.
func TestResultJSONShape(t *testing.T) {
	b, err := json.Marshal(result{})
	if err != nil {
		t.Fatal(err)
	}
	cacheFields := []string{"Instructions", "Reads", "Writes", "ReadMissEvents",
		"PartialValidReadMisses", "WriteMissEvents", "FetchedWriteMisses",
		"EliminatedWriteMisses", "WritesToDirtyLines", "WriteHitEvents", "Fetches",
		"FetchBytes", "WriteThroughs", "WriteThroughBytes", "Writebacks",
		"WritebackBytesFull", "WritebackBytesDirty", "Victims", "DirtyVictims",
		"VictimDirtyBytes", "VictimBytes", "Invalidates", "SubblockWriteFills",
		"FlushVictims", "FlushDirtyVictims", "FlushVictimDirtyBytes",
		"FlushVictimBytes", "FlushWritebacks"}
	want := map[string][]string{
		"":      {"Trace", "L1", "L2", "Hierarchy"},
		"Trace": {"Instructions", "Reads", "Writes", "ReadBytes", "WriteBytes"},
		"L1":    cacheFields,
		"L2":    cacheFields,
		"Hierarchy": {"L1ToL2Transactions", "L1ToL2Bytes", "L2ToMemTransactions",
			"L2ToMemBytes", "L2ToMemWritebacks", "L2ToMemWritebackBytes",
			"L2ToMemDirtyBytes", "VictimHits", "BackInvalidations", "InclusionDirtyBytes"},
	}
	got := map[string][]string{}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	var path []string // enclosing object keys; the top level is ""
	var key string    // the last key read in the current object
	expectKey := false
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		switch tok {
		case json.Delim('{'):
			path = append(path, key)
			expectKey = true
			continue
		case json.Delim('}'):
			path = path[:len(path)-1]
			expectKey = true
			continue
		}
		if expectKey {
			key = tok.(string)
			obj := path[len(path)-1]
			got[obj] = append(got[obj], key)
			expectKey = false
		} else {
			expectKey = true
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result JSON fields changed:\n got  %v\n want %v\n json %s", got, want, b)
	}
}
