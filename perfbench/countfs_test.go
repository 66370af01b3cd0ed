package main

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"cachewrite/internal/resilience"
	"cachewrite/internal/vfs"
)

type snapshot struct {
	Seq  int      `json:"seq"`
	Jobs []string `json:"jobs"`
}

// snapshotBytes is the size of one journal file holding v: the
// header line the journal writes plus the JSON payload.
func snapshotBytes(t *testing.T, kind string, version int, v snapshot) int64 {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	header := fmt.Sprintf("RSJ1 %s v%d crc32=%08x len=%d\n", kind, version, crc32.ChecksumIEEE(payload), len(payload))
	return int64(len(header) + len(payload))
}

// The counts match the journal's documented save sequence: the first
// save writes a temp file and renames it into place; every later save
// also reads back the current snapshot to validate it and rotates it
// to the ".prev" slot first.
func TestCountingFSMatchesJournalSaves(t *testing.T) {
	cfs := NewCountingFS(vfs.NewMem())
	j := resilience.NewJournalFS[snapshot](cfs, "state/jobs.journal", "bench", 1)

	first := snapshot{Seq: 1, Jobs: []string{"a"}}
	if err := j.Save(first); err != nil {
		t.Fatal(err)
	}
	got := cfs.Counts()
	want := map[string]int{
		"MkdirAll": 1, "CreateTemp": 1, "Write": 2, "Sync": 1, "Close": 1,
		"Stat": 1, "Rename": 1, "Remove": 1,
	}
	if !reflect.DeepEqual(got.Ops, want) {
		t.Errorf("first save ops = %v, want %v", got.Ops, want)
	}
	if b := snapshotBytes(t, "bench", 1, first); got.BytesWritten != b {
		t.Errorf("first save wrote %d bytes, want %d", got.BytesWritten, b)
	}

	second := snapshot{Seq: 2, Jobs: []string{"a", "b"}}
	if err := j.Save(second); err != nil {
		t.Fatal(err)
	}
	got = cfs.Counts()
	want = map[string]int{
		"MkdirAll": 2, "CreateTemp": 2, "Write": 4, "Sync": 2, "Close": 2,
		"Stat": 2, "ReadFile": 1, "Rename": 3, "Remove": 2,
	}
	if !reflect.DeepEqual(got.Ops, want) {
		t.Errorf("two saves ops = %v, want %v", got.Ops, want)
	}
	if b := snapshotBytes(t, "bench", 1, first) + snapshotBytes(t, "bench", 1, second); got.BytesWritten != b {
		t.Errorf("two saves wrote %d bytes, want %d", got.BytesWritten, b)
	}

	// Load reads the current snapshot only; it writes nothing.
	if v, info, err := j.Load(); err != nil || !info.Found || v.Seq != 2 {
		t.Fatalf("load = %+v %+v %v", v, info, err)
	}
	after := cfs.Counts()
	if after.Ops["ReadFile"] != 2 || after.BytesWritten != got.BytesWritten || after.Ops["Sync"] != 2 {
		t.Errorf("load changed write counts: %v", after.Ops)
	}
}
