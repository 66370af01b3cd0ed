package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

func encodeTestTrace(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func seqTrace(n int) *Trace {
	tr := &Trace{Name: "seq"}
	for i := 0; i < n; i++ {
		k := Read
		if i%3 == 0 {
			k = Write
		}
		tr.Append(Event{Addr: 0x1000 + uint32(i)*4, Size: 4, Gap: uint16(i % 7), Kind: k})
	}
	return tr
}

func TestLenientCleanDecode(t *testing.T) {
	tr := seqTrace(100)
	got, ds, err := ReadBinaryLenient(bytes.NewReader(encodeTestTrace(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Damaged() || ds.Skipped != 0 || ds.Truncated {
		t.Fatalf("clean input reported damage: %v", ds)
	}
	if ds.Decoded != 100 || len(got.Events) != 100 || got.Name != "seq" {
		t.Fatalf("decoded %d events (name %q), want 100 (seq)", len(got.Events), got.Name)
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d drifted: %+v vs %+v", i, got.Events[i], tr.Events[i])
		}
	}
	if !strings.Contains(ds.String(), "clean") {
		t.Errorf("stats string %q does not say clean", ds.String())
	}
}

func TestLenientTruncatedStream(t *testing.T) {
	raw := encodeTestTrace(t, seqTrace(200))
	cut := raw[:len(raw)/2]
	got, ds, err := ReadBinaryLenient(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Truncated {
		t.Fatal("truncation not reported")
	}
	if ds.FirstErr == nil {
		t.Error("no FirstErr for a truncated stream")
	}
	if ds.Decoded == 0 || len(got.Events) == 0 {
		t.Error("nothing salvaged from the intact prefix")
	}
	if ds.Decoded >= 200 {
		t.Errorf("decoded %d events from half a file", ds.Decoded)
	}
	// Strict decoding of the same input must fail outright.
	if _, err := ReadBinary(bytes.NewReader(cut)); err == nil {
		t.Error("strict ReadBinary accepted a truncated stream")
	}
}

// corruptGapRecord builds a stream whose middle record carries an
// impossible gap (> 16 bits): structurally decodable, semantically
// corrupt, so lenient mode can skip it and keep going.
func corruptGapRecord(t *testing.T) []byte {
	t.Helper()
	var hand bytes.Buffer
	hand.Write(magic[:])
	hand.WriteByte(3) // name length
	hand.WriteString("dmg")
	hand.WriteByte(3)                                // event count
	hand.Write([]byte{0x04, 0x80, 0x02})             // read, size 4 (log2=2 -> bits1..3=010), abs addr 0x100
	hand.Write([]byte{0x35, 0x08, 0x80, 0x80, 0x04}) // write+delta+gap, delta +4, gap 0x10000 (corrupt)
	hand.Write([]byte{0x24, 0x08})                   // read+delta, delta +4
	return hand.Bytes()
}

func TestLenientSkipsCorruptRecord(t *testing.T) {
	data := corruptGapRecord(t)
	// Strict: fails.
	if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("strict decode error = %v, want ErrCorruptRecord", err)
	}
	// Lenient: skips the middle record, keeps the outer two.
	got, ds, err := ReadBinaryLenient(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Skipped != 1 {
		t.Fatalf("skipped = %d, want 1 (%v)", ds.Skipped, ds)
	}
	if ds.Truncated {
		t.Error("corrupt record misreported as truncation")
	}
	if len(got.Events) != 2 {
		t.Fatalf("kept %d events, want 2", len(got.Events))
	}
	if got.Events[0].Addr != 0x100 || got.Events[1].Addr != 0x108 {
		t.Errorf("kept wrong events: %+v", got.Events)
	}
	if !errors.Is(ds.FirstErr, ErrCorruptRecord) {
		t.Errorf("FirstErr = %v, want ErrCorruptRecord", ds.FirstErr)
	}
	if !strings.Contains(ds.String(), "damaged") {
		t.Errorf("stats string %q does not say damaged", ds.String())
	}
}

func TestLenientHeaderStillFatal(t *testing.T) {
	if _, _, err := ReadBinaryLenient(bytes.NewReader([]byte("NOPE"))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic error = %v", err)
	}
	if _, _, err := ReadBinaryLenient(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	if _, ds, err := ReadBinaryLenient(bytes.NewReader([]byte("CWT"))); err == nil {
		t.Errorf("3-byte input accepted: %v", ds)
	} else if err != io.ErrUnexpectedEOF && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Logf("header error: %v", err)
	}
}

func TestStrictDeltaWrapRejected(t *testing.T) {
	// A delta stepping below address zero is now a detected corruption,
	// not a silent uint32 wrap.
	var hand bytes.Buffer
	hand.Write(magic[:])
	hand.WriteByte(1)
	hand.WriteString("x")
	hand.WriteByte(2)
	hand.Write([]byte{0x04, 0x10}) // read, abs addr 0x10
	hand.Write([]byte{0x24, 0x3f}) // read+delta, delta -32 -> addr -16
	if _, err := ReadBinary(bytes.NewReader(hand.Bytes())); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("negative-address delta error = %v, want ErrCorruptRecord", err)
	}
	tr, ds, err := ReadBinaryLenient(bytes.NewReader(hand.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Skipped != 1 || len(tr.Events) != 1 {
		t.Errorf("lenient: kept %d skipped %d, want 1/1", len(tr.Events), ds.Skipped)
	}
}

// rejectedAddressStreams returns two streams of three records, r 0x100,
// a write whose address is out of range and which carries gap 5, then
// r +4: in the first the bad address is absolute (2^32), in the second
// a delta that steps below zero.
func rejectedAddressStreams() [][]byte {
	var streams [][]byte
	for _, bad := range [][]byte{
		{0x15, 0x80, 0x80, 0x80, 0x80, 0x10, 0x05}, // write+gap, abs addr 1<<32, gap 5
		{0x35, 0xff, 0x07, 0x05},                   // write+delta+gap, delta -0x200, gap 5
	} {
		var hand bytes.Buffer
		hand.Write(magic[:])
		hand.WriteByte(3)
		hand.WriteString("dmg")
		hand.WriteByte(3)
		hand.Write([]byte{0x04, 0x80, 0x02}) // read, size 4, abs addr 0x100
		hand.Write(bad)
		hand.Write([]byte{0x24, 0x08}) // read+delta, delta +4
		streams = append(streams, hand.Bytes())
	}
	return streams
}

// TestLenientSkipsRejectedAddress: a record rejected for its address
// is skipped whole, gap included, so the gap byte is not decoded as the
// next record's tag and the record after it survives.
func TestLenientSkipsRejectedAddress(t *testing.T) {
	want := []Event{{Addr: 0x100, Size: 4, Kind: Read}, {Addr: 0x104, Size: 4, Kind: Read}}
	for i, data := range rejectedAddressStreams() {
		if _, err := ReadBinary(bytes.NewReader(data)); !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("stream %d: strict decode error = %v, want ErrCorruptRecord", i, err)
		}
		got, ds, err := ReadBinaryLenient(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Events, want) || ds.Skipped != 1 || ds.Truncated {
			t.Errorf("stream %d: lenient decode %v (%v), want %v with 1 skipped", i, got.Events, ds, want)
		}
	}
}
