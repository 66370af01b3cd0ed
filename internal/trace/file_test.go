package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestReadFileValidates: an 8 B write at 0xFFFFFFFC encodes and decodes
// cleanly, but wraps the address space, so ReadFile refuses it with
// Validate's message, strict and lenient alike.
func TestReadFileValidates(t *testing.T) {
	tr := &Trace{Name: "wrap", Events: []Event{
		{Addr: 0x1000, Size: 4, Kind: Read},
		{Addr: 0xFFFFFFFC, Size: 8, Kind: Write},
	}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	decoded, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	verr := decoded.Validate()
	if verr == nil {
		t.Fatal("Validate accepted an access that wraps the address space")
	}
	path := filepath.Join(t.TempDir(), "wrap.cwt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, lenient := range []bool{false, true} {
		got, _, err := ReadFile(path, lenient)
		if err == nil || err.Error() != verr.Error() {
			t.Errorf("lenient=%v: ReadFile = %v, %v; want error %q", lenient, got, err, verr)
		}
	}
}

// TestReadFileFormats: the strict reader takes every format ReadAuto
// sniffs; the lenient one salvages a truncated CWT1 file and reports
// the damage.
func TestReadFileFormats(t *testing.T) {
	tr := &Trace{Name: "ok"}
	for i := 0; i < 100; i++ {
		tr.Append(Event{Addr: uint32(0x1000 + 4*i), Size: 4, Kind: Kind(i % 2)})
	}
	dir := t.TempDir()
	write := func(name string, enc func(*bytes.Buffer) error) string {
		t.Helper()
		var buf bytes.Buffer
		if err := enc(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, path := range []string{
		write("t.cwt", func(b *bytes.Buffer) error { return WriteBinary(b, tr) }),
		write("t.cwtz", func(b *bytes.Buffer) error { return WriteBinaryCompressed(b, tr) }),
		write("t.txt", func(b *bytes.Buffer) error { return WriteText(b, tr) }),
	} {
		got, _, err := ReadFile(path, false)
		if err != nil {
			t.Errorf("%s: ReadFile: %v", filepath.Base(path), err)
		} else if got.Len() != tr.Len() {
			t.Errorf("%s: ReadFile = %d events, want %d", filepath.Base(path), got.Len(), tr.Len())
		}
	}

	full := write("full.cwt", func(b *bytes.Buffer) error { return WriteBinary(b, tr) })
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.cwt")
	if err := os.WriteFile(cut, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFile(cut, false); err == nil {
		t.Error("strict ReadFile accepted a truncated file")
	}
	got, ds, err := ReadFile(cut, true)
	if err != nil {
		t.Fatalf("lenient ReadFile of a truncated file: %v", err)
	}
	if !ds.Damaged() || got.Len() == 0 || got.Len() >= tr.Len() {
		t.Errorf("lenient ReadFile of a truncated file = %d events, %+v; want a damaged prefix", got.Len(), ds)
	}
}
