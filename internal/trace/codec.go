package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Binary trace format:
//
//	magic "CWT1" (4 bytes)
//	name length (uvarint) + name bytes
//	event count (uvarint)
//	per event:
//	  tag byte: bit0 = kind (0 read, 1 write),
//	            bits1..3 = log2(size) for power-of-two sizes 1..128,
//	            bit4 = gap present,
//	            bit5 = address is delta-encoded
//	  address: uvarint (absolute) or signed varint (delta from previous)
//	  gap: uvarint (only if bit4 set; omitted gaps are zero)
//
// Delta encoding keeps sequential workloads (linpack, liver) to ~3
// bytes/event.

var magic = [4]byte{'C', 'W', 'T', '1'}

var (
	// ErrBadMagic reports a stream that does not start with the trace
	// file magic.
	ErrBadMagic = errors.New("trace: bad magic (not a CWT1 trace file)")
)

const (
	tagKindWrite = 1 << 0
	tagSizeShift = 1
	tagSizeMask  = 0x7 << tagSizeShift
	tagHasGap    = 1 << 4
	tagDelta     = 1 << 5
)

func log2u8(v uint8) (uint8, bool) {
	if v == 0 || v&(v-1) != 0 {
		return 0, false
	}
	var n uint8
	for v > 1 {
		v >>= 1
		n++
	}
	return n, true
}

// WriteBinary encodes the trace to w in the CWT1 binary format.
func WriteBinary(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(t.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.Name); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(t.Events))); err != nil {
		return err
	}
	prev := uint32(0)
	for i, e := range t.Events {
		tag := byte(0)
		if e.Kind == Write {
			tag |= tagKindWrite
		}
		l2, ok := log2u8(e.Size)
		if !ok {
			return fmt.Errorf("trace: event %d has non-power-of-two size %d", i, e.Size)
		}
		tag |= l2 << tagSizeShift
		if e.Gap != 0 {
			tag |= tagHasGap
		}
		delta := int64(e.Addr) - int64(prev)
		// Use delta when it encodes smaller than the absolute address.
		useDelta := i > 0 && (delta < 1<<20 && delta > -(1<<20))
		if useDelta {
			tag |= tagDelta
		}
		if err := bw.WriteByte(tag); err != nil {
			return err
		}
		if useDelta {
			if err := putVarint(delta); err != nil {
				return err
			}
		} else if err := putUvarint(uint64(e.Addr)); err != nil {
			return err
		}
		if e.Gap != 0 {
			if err := putUvarint(uint64(e.Gap)); err != nil {
				return err
			}
		}
		prev = e.Addr
	}
	return bw.Flush()
}

// ReadBinary decodes a CWT1 binary trace from r. Decoding is strict:
// the first malformed record fails the whole read. Use
// ReadBinaryLenient to salvage what a damaged file still holds.
func ReadBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	t := &Trace{}
	count, err := decodeHeader(br, t)
	if err != nil {
		return nil, err
	}
	if count > 0 && count < 1<<28 {
		t.Events = make([]Event, 0, count)
	}
	prev := uint32(0)
	for i := uint64(0); i < count; i++ {
		e, newPrev, err := decodeEvent(br, prev, i)
		if err != nil {
			return nil, err
		}
		prev = newPrev
		t.Events = append(t.Events, e)
	}
	return t, nil
}

// WriteText encodes the trace in a line-oriented, human-readable format:
// a "# name: <name>" header followed by one "r|w <hex addr> <size>
// <gap>" line per event.
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# name: %s\n", t.Name); err != nil {
		return err
	}
	for _, e := range t.Events {
		if _, err := fmt.Fprintln(bw, e.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText decodes the text trace format produced by WriteText. Blank
// lines and lines starting with '#' (other than the name header) are
// ignored.
func ReadText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	t := &Trace{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# name:"); ok {
				t.Name = strings.TrimSpace(rest)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("trace: line %d: want 4 fields, got %d", lineNo, len(fields))
		}
		var e Event
		switch fields[0] {
		case "r":
			e.Kind = Read
		case "w":
			e.Kind = Write
		default:
			return nil, fmt.Errorf("trace: line %d: bad kind %q", lineNo, fields[0])
		}
		addr, err := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), 16, 32)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad address: %w", lineNo, err)
		}
		e.Addr = uint32(addr)
		size, err := strconv.ParseUint(fields[2], 10, 8)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad size: %w", lineNo, err)
		}
		e.Size = uint8(size)
		gap, err := strconv.ParseUint(fields[3], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad gap: %w", lineNo, err)
		}
		e.Gap = uint16(gap)
		t.Events = append(t.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// decodeEvent reads one event given the previous address (for delta
// decoding); it is shared by ReadBinary and ReadBinaryLenient.
// Value-range violations (a corrupt but structurally intact record) are
// reported wrapping ErrCorruptRecord so lenient decoding can skip the
// record and resynchronize on the next tag byte; I/O and
// varint-framing failures are returned as-is and end the stream. The
// returned address is the delta base for the next event, advanced as
// far as decoding got even when the record is rejected.
func decodeEvent(br *bufio.Reader, prev uint32, i uint64) (Event, uint32, error) {
	tag, err := br.ReadByte()
	if err != nil {
		return Event{}, prev, fmt.Errorf("trace: event %d tag: %w", i, err)
	}
	var e Event
	if tag&tagKindWrite != 0 {
		e.Kind = Write
	}
	e.Size = 1 << ((tag & tagSizeMask) >> tagSizeShift)
	if tag&tagDelta != 0 {
		d, err := binary.ReadVarint(br)
		if err != nil {
			return Event{}, prev, fmt.Errorf("trace: event %d delta: %w", i, err)
		}
		a := int64(prev) + d
		if a < 0 || a > int64(^uint32(0)) {
			return Event{}, prev, fmt.Errorf("trace: event %d: %w: delta %d from 0x%x leaves the address space", i, ErrCorruptRecord, d, prev)
		}
		e.Addr = uint32(a)
	} else {
		a, err := binary.ReadUvarint(br)
		if err != nil {
			return Event{}, prev, fmt.Errorf("trace: event %d addr: %w", i, err)
		}
		if a > uint64(^uint32(0)) {
			return Event{}, prev, fmt.Errorf("trace: event %d: %w: address 0x%x exceeds 32 bits", i, ErrCorruptRecord, a)
		}
		e.Addr = uint32(a)
	}
	if tag&tagHasGap != 0 {
		g, err := binary.ReadUvarint(br)
		if err != nil {
			return Event{}, e.Addr, fmt.Errorf("trace: event %d gap: %w", i, err)
		}
		if g > 0xffff {
			return Event{}, e.Addr, fmt.Errorf("trace: event %d: %w: gap %d exceeds 16 bits", i, ErrCorruptRecord, g)
		}
		e.Gap = uint16(g)
	}
	return e, e.Addr, nil
}
