package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Lenient decoding: a damaged trace file degrades into a
// partial-but-reported run instead of aborting it. The strict reader
// (ReadBinary) treats any malformed record as fatal; the lenient one
// skips records whose values are out of range (bit flips in stored
// fields) and stops early — keeping everything decoded
// so far — when the stream becomes structurally undecodable
// (truncation, broken varint framing). Either way the caller learns
// exactly what was lost via DecodeStats.

// ErrCorruptRecord marks a record whose framing decoded but whose
// values are impossible (address out of the 32-bit space, gap beyond
// 16 bits). Strict readers return it wrapped; lenient readers skip the
// record and count it.
var ErrCorruptRecord = errors.New("corrupt record")

// DecodeStats reports what a lenient decode encountered.
type DecodeStats struct {
	// Decoded counts events delivered to the caller.
	Decoded uint64
	// Skipped counts corrupt records that were detected and dropped.
	Skipped uint64
	// Truncated reports that the stream ended before the event count in
	// its header was satisfied (or mid-record).
	Truncated bool
	// FirstErr is the first problem encountered, nil for a clean decode.
	// It is informational: lenient decoding has already degraded
	// gracefully around it.
	FirstErr error
}

// Damaged reports whether the decode lost anything.
func (s DecodeStats) Damaged() bool { return s.Skipped > 0 || s.Truncated }

// String summarises the decode for log lines.
func (s DecodeStats) String() string {
	if !s.Damaged() {
		return fmt.Sprintf("clean decode: %d events", s.Decoded)
	}
	trunc := ""
	if s.Truncated {
		trunc = ", stream truncated"
	}
	return fmt.Sprintf("damaged decode: %d events kept, %d corrupt records skipped%s (first error: %v)",
		s.Decoded, s.Skipped, trunc, s.FirstErr)
}

// note records the first problem and classifies it.
func (s *DecodeStats) note(err error) {
	if s.FirstErr == nil {
		s.FirstErr = err
	}
}

// ReadBinaryLenient decodes a CWT1 binary trace, skipping corrupt
// records and truncating at structural damage instead of failing. The
// returned trace holds every event that survived; DecodeStats reports
// what did not. The error is non-nil only when nothing can be decoded
// at all (unreadable or wrong-magic header).
func ReadBinaryLenient(r io.Reader) (*Trace, DecodeStats, error) {
	return readBinaryLenient(r, decodeWindow)
}

// readBinaryLenient is ReadBinaryLenient decoding window bytes at a
// time.
func readBinaryLenient(r io.Reader, window int) (*Trace, DecodeStats, error) {
	var ds DecodeStats
	br := bufio.NewReaderSize(r, window)
	t := &Trace{}
	count, err := decodeHeader(br, t)
	if err != nil {
		return nil, ds, err
	}
	t.Events = decodeEvents(br, window, count, nil, func(err error) bool {
		ds.note(err)
		if errors.Is(err, ErrCorruptRecord) {
			ds.Skipped++
			return true
		}
		ds.Truncated = true
		return false
	})
	ds.Decoded = uint64(len(t.Events))
	return t, ds, nil
}

// decodeHeader reads the magic, name and event count into t, returning
// the declared event count. Shared by the strict and lenient readers.
func decodeHeader(br *bufio.Reader, t *Trace) (uint64, error) {
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return 0, err
	}
	if m != magic {
		return 0, ErrBadMagic
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("trace: reading name length: %w", err)
	}
	if nameLen > 1<<16 {
		return 0, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return 0, fmt.Errorf("trace: reading name: %w", err)
	}
	t.Name = string(name)
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("trace: reading event count: %w", err)
	}
	return count, nil
}
