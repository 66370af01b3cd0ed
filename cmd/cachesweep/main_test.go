package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/sweep"
	"cachewrite/internal/trace"
)

func TestBuildSweepCartesian(t *testing.T) {
	cfgs, err := buildSweep("1024,8192", "16,32", "1,2", "wb", "fow,wv")
	if err != nil {
		t.Fatal(err)
	}
	// 2 sizes x 2 lines x 2 assocs x 1 hit x 2 misses = 16, all valid.
	if len(cfgs) != 16 {
		t.Fatalf("sweep has %d configs, want 16", len(cfgs))
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Fatalf("invalid config in sweep: %v", err)
		}
		seen[c.String()] = true
	}
	if len(seen) != 16 {
		t.Error("duplicate configurations in sweep")
	}
}

func TestBuildSweepSkipsInvalid(t *testing.T) {
	// 64B cache with assoc 8 at 16B lines is invalid (only 4 lines) and
	// must be skipped, not fatal.
	cfgs, err := buildSweep("64,1024", "16", "8", "wb", "fow")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 1 || cfgs[0].Size != 1024 {
		t.Fatalf("sweep = %+v", cfgs)
	}
}

func TestBuildSweepErrors(t *testing.T) {
	cases := [][5]string{
		{"abc", "16", "1", "wb", "fow"},
		{"1024", "x", "1", "wb", "fow"},
		{"1024", "16", "?", "wb", "fow"},
		{"1024", "16", "1", "nope", "fow"},
		{"1024", "16", "1", "wb", "nope"},
		{"64", "16", "8", "wb", "fow"}, // nothing valid
	}
	for i, c := range cases {
		if _, err := buildSweep(c[0], c[1], c[2], c[3], c[4]); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestBuildSweepPolicyParsing(t *testing.T) {
	cfgs, err := buildSweep("1024", "16", "1", " WT,wb", "fow, wv,WA,wi")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 8 {
		t.Fatalf("got %d configs, want 8", len(cfgs))
	}
	hasWI := false
	for _, c := range cfgs {
		if c.WriteMiss == cache.WriteInvalidate {
			hasWI = true
		}
	}
	if !hasWI {
		t.Error("write-invalidate missing from sweep")
	}
}

func TestParseInts(t *testing.T) {
	v, err := parseInts(" 1, 2 ,3")
	if err != nil || len(v) != 3 || v[1] != 2 {
		t.Errorf("parseInts = %v, %v", v, err)
	}
	if _, err := parseInts("1,,2"); err == nil {
		t.Error("empty element accepted")
	}
}

func TestRunSweepCSV(t *testing.T) {
	tr := &trace.Trace{Name: "t"}
	for i := 0; i < 500; i++ {
		k := trace.Read
		if i%3 == 0 {
			k = trace.Write
		}
		tr.Append(trace.Event{Addr: uint32(i*16) % 4096, Size: 4, Kind: k})
	}
	cfgs, err := buildSweep("1024", "16", "1", "wb", "fow,wv")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runSweep(context.Background(), &buf, tr, cfgs, sweep.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 { // header + 2 configs
		t.Fatalf("%d rows", len(records))
	}
	if records[0][0] != "size" || records[1][4] != "fetch-on-write" {
		t.Errorf("rows: %v", records[:2])
	}
}

// TestRunSweepResume interrupts a checkpointed sweep, then resumes:
// the CSV must be byte-identical to an uninterrupted run.
func TestRunSweepResume(t *testing.T) {
	tr := &trace.Trace{Name: "t"}
	for i := 0; i < 2000; i++ {
		k := trace.Read
		if i%3 == 0 {
			k = trace.Write
		}
		tr.Append(trace.Event{Addr: uint32(i*16) % 8192, Size: 4, Kind: k})
	}
	// 12 configurations: two sweep units, the second one short.
	cfgs, err := buildSweep("1024,4096,8192", "16,32", "1", "wb", "fow,wv")
	if err != nil {
		t.Fatal(err)
	}

	var want bytes.Buffer
	if err := runSweep(context.Background(), &want, tr, cfgs, sweep.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	opt := sweep.Options{Workers: 1, Checkpoint: ckpt, CheckpointEvery: 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var discard bytes.Buffer
	if err := runSweep(ctx, &discard, tr, cfgs, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint after cancellation: %v", err)
	}

	var got bytes.Buffer
	if err := runSweep(context.Background(), &got, tr, cfgs, opt); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("resumed CSV differs:\n--- got ---\n%s\n--- want ---\n%s", got.String(), want.String())
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("completed sweep left its checkpoint behind (stat err %v)", err)
	}
}
