package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
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
// bytes/event. A record is at most maxRecordLen (21) bytes and usually
// 2 or 3, with one-byte delta and gap varints. The readers
// decode it from 64 KiB windows of a bufio.Reader (decodeEvents):
// every record that lies whole in a window is decoded inline, and only
// a rejected record or the stream's last bytes take the per-record
// path (decodeRecord).

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
	return readBinary(r, decodeWindow)
}

// readBinary is ReadBinary decoding window bytes at a time.
func readBinary(r io.Reader, window int) (*Trace, error) {
	br := bufio.NewReaderSize(r, window)
	t := &Trace{}
	count, err := decodeHeader(br, t)
	if err != nil {
		return nil, err
	}
	// The header's count is untrusted: a damaged one must not reserve
	// gigabytes for a stream a few bytes long.
	if count > 0 {
		t.Events = make([]Event, 0, min(count, maxPrealloc))
	}
	var rejected error
	t.Events = decodeEvents(br, window, count, t.Events, func(err error) bool {
		rejected = err
		return false
	})
	if rejected != nil {
		return nil, rejected
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

// maxRecordLen is the longest record: a tag byte and two varints of
// at most binary.MaxVarintLen64 bytes each.
const maxRecordLen = 1 + 2*binary.MaxVarintLen64

// maxPrealloc bounds the events ReadBinary reserves from the header's
// count before decoding: 64 MiB, more than any paper trace at scale 1
// holds. A longer trace grows by append.
const maxPrealloc = 1 << 23

// decodeWindow is how many bytes of the stream ReadBinary and
// ReadBinaryLenient decode at a time.
const decodeWindow = 64 << 10

// errVarintOverflow is the error binary.ReadUvarint returns for a
// varint longer than 64 bits, so decoding from a window fails with the
// very error a byte-at-a-time read would.
var errVarintOverflow = func() error {
	_, err := binary.ReadUvarint(bytes.NewReader(bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64)))
	return err
}()

// decodeEvents decodes the count records that follow a CWT1 header in
// br, appending every accepted event to events. ReadBinary and
// ReadBinaryLenient share it and differ only in reject, which sees each
// record error decodeRecord reports and returns true to skip the
// record and decode on, false to stop.
//
// Records are decoded from windows of window bytes (more than
// maxRecordLen, and no more than br's buffer holds). A record that starts
// at least maxRecordLen bytes before the window's end lies whole inside
// it, so it is decoded inline with no end-of-stream checks, and a
// one-byte delta or gap (the common case) costs no call. Only a
// rejected record and the stream's last bytes go through decodeRecord.
// Memory stays bounded by the window whatever the stream's length.
func decodeEvents(br *bufio.Reader, window int, count uint64, events []Event, reject func(error) bool) []Event {
	prev := uint32(0)
	for i := uint64(0); i < count; {
		buf, end := br.Peek(window)
		off, whole := 0, len(buf)-maxRecordLen
		// Past whole a record may run off the window, so the window is
		// refilled there unless the stream ends (end != nil).
		for ; i < count && (off <= whole || end != nil); i++ {
			if off <= whole {
				tag := buf[off]
				p := off + 1
				x, n := uint64(buf[p]), 1
				if x >= 0x80 {
					x, n = binary.Uvarint(buf[p:])
				}
				a := int64(x)
				if tag&tagDelta != 0 {
					a = int64(prev) + (int64(x>>1) ^ -int64(x&1))
				}
				p += n
				var gap uint64
				if n > 0 && tag&tagHasGap != 0 {
					gap, n = uint64(buf[p]), 1
					if gap >= 0x80 {
						gap, n = binary.Uvarint(buf[p:])
					}
					p += n
				}
				if n > 0 && uint64(a) <= math.MaxUint32 && gap <= math.MaxUint16 {
					events = append(events, Event{
						Addr: uint32(a),
						Gap:  uint16(gap),
						Size: 1 << ((tag & tagSizeMask) >> tagSizeShift),
						Kind: Kind(tag & tagKindWrite),
					})
					prev, off = uint32(a), p
					continue
				}
			}
			// A rejected record, an overlong varint or the stream's
			// last bytes: decodeRecord tells which.
			e, used, next, err := decodeRecord(buf[off:], prev, i, end)
			off, prev = off+used, next
			if err == nil {
				events = append(events, e)
			} else if !reject(err) {
				return events
			}
		}
		br.Discard(off) // cannot fail: off never passes the peeked bytes
	}
	return events
}

// decodeRecord decodes the record at the front of b given the previous
// address (for delta decoding), just as reading it a byte at a time
// from a stream that holds b and then fails with end would. It returns
// the event, the bytes it used and the delta base for the next record,
// advanced as far as decoding got even when the record is rejected.
// Value-range violations (a corrupt but structurally intact record)
// are reported wrapping ErrCorruptRecord so lenient decoding can skip
// the record and resynchronize on the next tag byte; running out of
// bytes and varint-framing failures end the stream.
func decodeRecord(b []byte, prev uint32, i uint64, end error) (Event, int, uint32, error) {
	if len(b) == 0 {
		return Event{}, 0, prev, fmt.Errorf("trace: event %d tag: %w", i, end)
	}
	tag := b[0]
	e := Event{Size: 1 << ((tag & tagSizeMask) >> tagSizeShift), Kind: Kind(tag & tagKindWrite)}
	x, n, err := readUvarint(b[1:], end)
	n++
	var bad error // an out-of-range address, reported once the gap is read
	if tag&tagDelta != 0 {
		if err != nil {
			return Event{}, n, prev, fmt.Errorf("trace: event %d delta: %w", i, err)
		}
		d := int64(x>>1) ^ -int64(x&1)
		a := int64(prev) + d
		if a < 0 || a > math.MaxUint32 {
			bad = fmt.Errorf("trace: event %d: %w: delta %d from 0x%x leaves the address space", i, ErrCorruptRecord, d, prev)
		}
		e.Addr = uint32(a)
	} else {
		if err != nil {
			return Event{}, n, prev, fmt.Errorf("trace: event %d addr: %w", i, err)
		}
		if x > math.MaxUint32 {
			bad = fmt.Errorf("trace: event %d: %w: address 0x%x exceeds 32 bits", i, ErrCorruptRecord, x)
		}
		e.Addr = uint32(x)
	}
	if bad != nil {
		// A rejected address is no delta base; the next record starts
		// after this one's gap, so the gap is consumed all the same.
		e.Addr = prev
	}
	if tag&tagHasGap != 0 {
		g, k, err := readUvarint(b[n:], end)
		n += k
		if err != nil {
			return Event{}, n, e.Addr, fmt.Errorf("trace: event %d gap: %w", i, err)
		}
		if bad == nil && g > math.MaxUint16 {
			bad = fmt.Errorf("trace: event %d: %w: gap %d exceeds 16 bits", i, ErrCorruptRecord, g)
		}
		e.Gap = uint16(g)
	}
	if bad != nil {
		return Event{}, n, e.Addr, bad
	}
	return e, n, e.Addr, nil
}

// readUvarint decodes a uvarint from the front of b and reports the
// bytes it used, failing as binary.ReadUvarint would on a stream that
// holds b and then fails with end.
func readUvarint(b []byte, end error) (uint64, int, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if i == len(b) {
			//simlint:allow sentinelerr binary.ReadUvarint turns only an unwrapped io.EOF into io.ErrUnexpectedEOF
			if i > 0 && end == io.EOF {
				return x, i, io.ErrUnexpectedEOF
			}
			return x, i, end
		}
		c := b[i]
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				return x, i + 1, errVarintOverflow
			}
			return x | uint64(c)<<s, i + 1, nil
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return x, binary.MaxVarintLen64, errVarintOverflow
}
