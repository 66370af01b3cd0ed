package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The byte-at-a-time CWT1 decoder that the windowed decodeEvents
// replaced, kept as the reference it must match event for event, error
// for error and DecodeStats for DecodeStats.

// referenceReadBinary is ReadBinary decoding one record at a time
// through bufio.Reader.ReadByte and binary.ReadUvarint.
func referenceReadBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	t := &Trace{}
	count, err := decodeHeader(br, t)
	if err != nil {
		return nil, err
	}
	if count > 0 {
		t.Events = make([]Event, 0, min(count, maxPrealloc))
	}
	prev := uint32(0)
	for i := uint64(0); i < count; i++ {
		e, newPrev, err := referenceDecodeEvent(br, prev, i)
		if err != nil {
			return nil, err
		}
		prev = newPrev
		t.Events = append(t.Events, e)
	}
	return t, nil
}

// referenceReadBinaryLenient is ReadBinaryLenient decoding one record
// at a time.
func referenceReadBinaryLenient(r io.Reader) (*Trace, DecodeStats, error) {
	var ds DecodeStats
	br := bufio.NewReader(r)
	t := &Trace{}
	count, err := decodeHeader(br, t)
	if err != nil {
		return nil, ds, err
	}
	prev := uint32(0)
	for i := uint64(0); i < count; i++ {
		e, newPrev, err := referenceDecodeEvent(br, prev, i)
		prev = newPrev
		if err != nil {
			ds.note(err)
			if errors.Is(err, ErrCorruptRecord) {
				ds.Skipped++
				continue
			}
			ds.Truncated = true
			break
		}
		t.Events = append(t.Events, e)
		ds.Decoded++
	}
	return t, ds, nil
}

// referenceDecodeEvent reads one event given the previous address and
// returns the delta base for the next event, advanced as far as
// decoding got even when the record is rejected.
func referenceDecodeEvent(br *bufio.Reader, prev uint32, i uint64) (Event, uint32, error) {
	tag, err := br.ReadByte()
	if err != nil {
		return Event{}, prev, fmt.Errorf("trace: event %d tag: %w", i, err)
	}
	var e Event
	if tag&tagKindWrite != 0 {
		e.Kind = Write
	}
	e.Size = 1 << ((tag & tagSizeMask) >> tagSizeShift)
	var bad error // an out-of-range address, reported once the gap is read
	if tag&tagDelta != 0 {
		d, err := binary.ReadVarint(br)
		if err != nil {
			return Event{}, prev, fmt.Errorf("trace: event %d delta: %w", i, err)
		}
		a := int64(prev) + d
		if a < 0 || a > int64(^uint32(0)) {
			bad = fmt.Errorf("trace: event %d: %w: delta %d from 0x%x leaves the address space", i, ErrCorruptRecord, d, prev)
		}
		e.Addr = uint32(a)
	} else {
		a, err := binary.ReadUvarint(br)
		if err != nil {
			return Event{}, prev, fmt.Errorf("trace: event %d addr: %w", i, err)
		}
		if a > uint64(^uint32(0)) {
			bad = fmt.Errorf("trace: event %d: %w: address 0x%x exceeds 32 bits", i, ErrCorruptRecord, a)
		}
		e.Addr = uint32(a)
	}
	if bad != nil {
		e.Addr = prev
	}
	if tag&tagHasGap != 0 {
		g, err := binary.ReadUvarint(br)
		if err != nil {
			return Event{}, e.Addr, fmt.Errorf("trace: event %d gap: %w", i, err)
		}
		if bad == nil && g > 0xffff {
			bad = fmt.Errorf("trace: event %d: %w: gap %d exceeds 16 bits", i, ErrCorruptRecord, g)
		}
		e.Gap = uint16(g)
	}
	if bad != nil {
		return Event{}, e.Addr, bad
	}
	return e, e.Addr, nil
}
