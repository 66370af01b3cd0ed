package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// mixedTrace returns n deterministic events that exercise every record
// shape: one-byte and multi-byte deltas in both directions, absolute
// jumps across the address space, and gaps of zero, one and several
// varint bytes.
func mixedTrace(n int) *Trace {
	tr := &Trace{Name: "mixed", Events: make([]Event, 0, n)}
	s, addr := uint64(0x9e3779b97f4a7c15), uint32(0x1000)
	next := func() uint64 {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return s * 0x2545f4914f6cdd1d
	}
	for range n {
		r := next()
		switch p := r % 100; {
		case p < 70:
			addr += 4 << (r >> 8 & 1)
		case p < 80:
			addr -= uint32(r>>8%4096) * 4
		case p < 85:
			addr += uint32(r>>8%(1<<18)) * 4
		default:
			addr = uint32(r >> 32)
		}
		var gap uint16
		switch p := r >> 40 % 10; {
		case p < 3:
			gap = uint16(r >> 48 % 128)
		case p == 3:
			gap = uint16(r >> 48)
		}
		size := uint8(1) << (r >> 56 % 8)
		kind := Read
		if r>>60&1 == 1 {
			kind = Write
		}
		tr.Events = append(tr.Events, Event{Addr: addr, Gap: gap, Size: size, Kind: kind})
	}
	return tr
}

// sameErr reports whether a and b are the same decode failure: both
// nil, or equal text wrapping the very same cause.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error() && errors.Unwrap(a) == errors.Unwrap(b)
}

// checkMatchesReference decodes data with the reference decoders and
// with the windowed ones, at the production window and at a window of
// a record or two, strict and lenient. It fails unless they agree on
// the trace, the error and the DecodeStats.
func checkMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	want, werr := referenceReadBinary(bytes.NewReader(data))
	lwant, wds, lwerr := referenceReadBinaryLenient(bytes.NewReader(data))
	for _, window := range []int{decodeWindow, maxRecordLen + len(data)%32} {
		got, err := readBinary(bytes.NewReader(data), window)
		if !sameErr(err, werr) {
			t.Fatalf("window %d: strict error %v, reference %v", window, err, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d: strict decode differs from the reference", window)
		}
		lgot, ds, err := readBinaryLenient(bytes.NewReader(data), window)
		if !sameErr(err, lwerr) {
			t.Fatalf("window %d: lenient error %v, reference %v", window, err, lwerr)
		}
		if !sameErr(ds.FirstErr, wds.FirstErr) {
			t.Fatalf("window %d: lenient first error %v, reference %v", window, ds.FirstErr, wds.FirstErr)
		}
		if ds.Decoded != wds.Decoded || ds.Skipped != wds.Skipped || ds.Truncated != wds.Truncated {
			t.Fatalf("window %d: lenient stats %+v, reference %+v", window, ds, wds)
		}
		if !reflect.DeepEqual(lgot, lwant) {
			t.Fatalf("window %d: lenient decode differs from the reference", window)
		}
	}
}

// longStream encodes a mixedTrace two production windows long and
// returns it with the stream offsets near which a window ends: the
// first window starts after the header, and each later one at most
// maxRecordLen bytes before the previous one's end.
func longStream(tb testing.TB) ([]byte, []int) {
	tb.Helper()
	tr := mixedTrace(40000)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		tb.Fatal(err)
	}
	raw := buf.Bytes()
	if len(raw) < 2*decodeWindow+64 {
		tb.Fatalf("stream is %d bytes, want two windows", len(raw))
	}
	hdr := len(magic) + 1 + len(tr.Name) + binary.PutUvarint(make([]byte, binary.MaxVarintLen64), uint64(len(tr.Events)))
	return raw, []int{hdr + decodeWindow, hdr + 2*decodeWindow - maxRecordLen}
}

// damaged returns raw cut at at, with the byte at at bit-flipped, and
// with an overlong varint written over at.
func damaged(raw []byte, at int) [][]byte {
	flipped := bytes.Clone(raw)
	flipped[at] ^= 0x81
	overlong := bytes.Clone(raw)
	copy(overlong[at:], bytes.Repeat([]byte{0xff}, 12))
	return [][]byte{raw[:at], flipped, overlong}
}

// TestDecodeMatchesReferenceAtWindowEdges damages a stream two
// production windows long at and around each window's end, so the
// record that straddles a refill is cut, flipped or made overlong.
func TestDecodeMatchesReferenceAtWindowEdges(t *testing.T) {
	raw, edges := longStream(t)
	checkMatchesReference(t, raw)
	for _, edge := range edges {
		for _, d := range []int{-maxRecordLen - 1, -maxRecordLen, -11, -2, -1, 0, 1, 2, 11} {
			for _, data := range damaged(raw, edge+d) {
				checkMatchesReference(t, data)
			}
		}
	}
}

// FuzzDecodeMatchesReference: on arbitrary bytes the windowed decoder
// returns exactly what the byte-at-a-time reference returns. Decoding
// every input also at a window of a record or two puts a refill between
// almost every pair of records. The seeds include a stream longer than
// one production window, damaged at that window's end, a short stream
// damaged throughout, and records rejected for their gap or address.
func FuzzDecodeMatchesReference(f *testing.F) {
	raw, edges := longStream(f)
	f.Add(raw)
	for _, data := range damaged(raw, edges[0]-1) {
		f.Add(data)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, mixedTrace(48)); err != nil {
		f.Fatal(err)
	}
	short := buf.Bytes()
	f.Add(short)
	for at := 9; at < len(short); at += 23 {
		for _, data := range damaged(short, at) {
			f.Add(data)
		}
	}
	f.Add(corruptGapRecordBytes())
	for _, data := range rejectedAddressStreams() {
		f.Add(data)
	}
	f.Add([]byte("CWT1\x00\xff\xff\xff\xff\xff\xff"))
	f.Fuzz(checkMatchesReference)
}

// corruptGapRecordBytes is corruptGapRecord's stream: a record with a
// gap beyond 16 bits between two good ones.
func corruptGapRecordBytes() []byte {
	var hand bytes.Buffer
	hand.Write(magic[:])
	hand.WriteByte(3)
	hand.WriteString("dmg")
	hand.WriteByte(3)
	hand.Write([]byte{0x04, 0x80, 0x02})
	hand.Write([]byte{0x35, 0x08, 0x80, 0x80, 0x04})
	hand.Write([]byte{0x24, 0x08})
	return hand.Bytes()
}

// TestReadBinaryAllocsFlat: decoding allocates the same handful of
// objects (reader, trace, name, event slice) however long the trace.
func TestReadBinaryAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, mixedTrace(n)); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		return testing.AllocsPerRun(5, func() {
			if _, err := ReadBinary(bytes.NewReader(raw)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(200000)
	if large > small {
		t.Fatalf("ReadBinary allocates %.0f objects for 200k events but %.0f for 1k", large, small)
	}
}

// BenchmarkReadBinary decodes a 1M-event trace from memory.
func BenchmarkReadBinary(b *testing.B) {
	tr := mixedTrace(1 << 20)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := ReadBinary(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Events)), "ns/event")
}

// TestReadBinaryBoundsPreallocation: a header that claims 2^28-1
// events for a stream that holds none reserves at most maxPrealloc
// events (64 MiB), not the 2 GiB its count asks for.
func TestReadBinaryBoundsPreallocation(t *testing.T) {
	data := []byte("CWT1\x00\xff\xff\xff\x7f")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("a stream with no records decoded")
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(maxPrealloc*8+1<<20); got > limit {
		t.Fatalf("ReadBinary allocated %d bytes for a %d-byte stream, want at most %d", got, len(data), limit)
	}
}
