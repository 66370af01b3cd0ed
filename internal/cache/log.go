package cache

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"cachewrite/internal/trace"
)

// Log is one recorded pass of a cache over a trace, then a flush:
// every back-side and victim call the cache made, in order, each
// tagged with the index of the trace event that made it, plus the
// cache's Stats before and after the flush. Replaying a log into a
// Backside repeats the calls a live cache of the same configuration
// makes on the same trace, so the models that sit behind a fixed first
// level (a cycle model, a burst analysis, a second level) can share
// one pass over it: trace stripping. A Log is read-only once built, so
// any number of goroutines may replay it at once.
//
// The pass is stored as bytes, about two a call. Each call is one
// header byte, then the fields it does not share with its neighbours:
//
//   - bits 0-1 of the header hold the op;
//   - bits 4-7 hold the event index minus the previous call's; 15
//     escapes, and a uvarint of the rest follows;
//   - bits 2-3 hold the address mode (addrOwn, addrPrev, addrDelta or
//     addrSized), which says how the address and the size are found;
//     a delta is a zigzag varint from the previous call's address;
//   - a write-back or victim ends with its dirty byte count.
//
// Most calls need the header alone: a fetch of the event's own line, a
// word written through, a victim after its write-back. No call spans
// two chunks, so a chunk decodes on its own.
type Log struct {
	cfg   Config
	t     *trace.Trace
	pass  [][]byte // the pass's calls, encoded, in chunks of at most logChunk bytes
	flush []record // the flush's write-backs
	// stats is the cache's Stats after the pass, flushed after the
	// flush.
	stats, flushed Stats
}

// logChunk is the byte capacity of one chunk of a Log. Chunks keep a
// growing log from copying itself: at most one chunk is part empty.
const logChunk = 64 << 10

// op is the kind of a recorded call.
type op uint8

const (
	opFetch     op = iota // Backside.FetchLine
	opWriteback           // Backside.WritebackLine
	opWriteWord           // Backside.WriteWord
	opVictim              // VictimObserver.ObserveVictim
)

// The address modes of an encoded call. Only addrSized stores a size:
// addrOwn takes the event's, and the others move a line.
const (
	addrOwn   = iota // the event's address and size (a word written through) or its line
	addrPrev         // the previous call's address
	addrDelta        // the previous call's address plus a delta
	addrSized        // the previous call's address plus a delta, then a size byte
)

// eventEscape in a header's event bits means a uvarint of the event
// delta minus eventEscape follows.
const eventEscape = 15

// maxRecord is the longest encoded call: a header, two 5-byte varints,
// a size and a dirty count.
const maxRecord = 1 + 2*binary.MaxVarintLen32 + 2

// record is one recorded call. size is the bytes moved (a line, a
// sector run or a word); dirty is the dirty bytes of a write-back or
// victim. Both fit a byte because lines are at most MaxLineSize.
type record struct {
	event uint32 // index of the trace event that made the call
	addr  uint32
	op    op
	size  uint8
	dirty uint8
}

// apply makes the recorded call on b, or on vo for a victim; a nil vo
// drops victims, as a live cache does for a Backside that does not
// observe them.
func (r *record) apply(b Backside, vo VictimObserver) {
	switch r.op {
	case opFetch:
		b.FetchLine(r.addr, int(r.size))
	case opWriteback:
		b.WritebackLine(r.addr, int(r.size), int(r.dirty))
	case opWriteWord:
		b.WriteWord(r.addr, r.size)
	case opVictim:
		if vo != nil {
			vo.ObserveVictim(r.addr, int(r.size), int(r.dirty))
		}
	}
}

// own returns the address and size of an addrOwn call of op o made by
// event e: the event's own address and size for a word written
// through, its line for any other call.
func own(o op, e *trace.Event, lineSize uint32) (addr uint32, size uint8) {
	if o == opWriteWord {
		return e.Addr, e.Size
	}
	return e.Addr &^ (lineSize - 1), uint8(lineSize)
}

// recorder is the Backside and VictimObserver that builds a Log. It
// reads the index of the event in flight off its cache: Access and the
// batch kernels count an event's read or write before it makes any
// back-side call, so that event is number Reads+Writes-1. Once
// flushing, it keeps the calls as records instead.
type recorder struct {
	c        *Cache
	events   []trace.Event
	lineSize uint32
	chunks   [][]byte
	cur      []byte
	prev     record // the last call encoded
	flushing bool
	flush    []record
}

func (r *recorder) add(rec record) {
	if r.flushing {
		r.flush = append(r.flush, rec)
		return
	}
	rec.event = uint32(r.c.stats.Reads + r.c.stats.Writes - 1)
	var b [maxRecord]byte
	n := 1
	h := byte(rec.op)
	if d := rec.event - r.prev.event; d < eventEscape {
		h |= byte(d) << 4
	} else {
		h |= eventEscape << 4
		n += binary.PutUvarint(b[n:], uint64(d-eventEscape))
	}
	line := uint8(r.lineSize)
	switch ownAddr, ownSize := own(rec.op, &r.events[rec.event], r.lineSize); {
	case rec.addr == ownAddr && rec.size == ownSize:
		h |= addrOwn << 2
	case rec.addr == r.prev.addr && rec.size == line:
		h |= addrPrev << 2
	default:
		n += binary.PutVarint(b[n:], int64(int32(rec.addr-r.prev.addr)))
		if rec.size == line {
			h |= addrDelta << 2
		} else {
			h |= addrSized << 2
			b[n] = rec.size
			n++
		}
	}
	if rec.op == opWriteback || rec.op == opVictim {
		b[n] = rec.dirty
		n++
	}
	b[0] = h
	if len(r.cur)+n > cap(r.cur) {
		if r.cur != nil {
			r.chunks = append(r.chunks, r.cur)
		}
		r.cur = make([]byte, 0, logChunk)
	}
	r.cur = append(r.cur, b[:n]...)
	r.prev = rec
}

// done returns the encoded chunks, the last one cut to its length.
func (r *recorder) done() [][]byte {
	if len(r.cur) > 0 {
		r.chunks = append(r.chunks, slices.Clone(r.cur))
	}
	r.cur = nil
	return r.chunks
}

func (r *recorder) FetchLine(addr uint32, size int) {
	r.add(record{addr: addr, op: opFetch, size: uint8(size)})
}

func (r *recorder) WritebackLine(addr uint32, size, dirtyBytes int) {
	r.add(record{addr: addr, op: opWriteback, size: uint8(size), dirty: uint8(dirtyBytes)})
}

func (r *recorder) WriteWord(addr uint32, size uint8) {
	r.add(record{addr: addr, op: opWriteWord, size: size})
}

func (r *recorder) ObserveVictim(addr uint32, size, dirtyBytes int) {
	r.add(record{addr: addr, op: opVictim, size: uint8(size), dirty: uint8(dirtyBytes)})
}

// NewLog runs t through a new cache of configuration cfg, then flushes
// it, and records the pass. Every event must be a read or a write.
func NewLog(cfg Config, t *trace.Trace) (*Log, error) {
	if uint64(len(t.Events)) > math.MaxUint32 {
		return nil, fmt.Errorf("cache: a log indexes events in 32 bits; %s has %d", t.Name, len(t.Events))
	}
	for i, e := range t.Events {
		if e.Kind != trace.Read && e.Kind != trace.Write {
			return nil, fmt.Errorf("cache: %s event %d has kind %d, neither read nor write", t.Name, i, e.Kind)
		}
	}
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	r := recorder{c: c, events: t.Events, lineSize: uint32(cfg.LineSize)}
	c.SetBackside(&r)
	c.AccessEvents(t.Events)
	l := &Log{cfg: cfg, t: t, pass: r.done(), stats: c.Stats()}
	r.flushing = true
	c.Flush()
	l.flush, l.flushed = r.flush, c.Stats()
	return l, nil
}

// Config returns the recorded cache's configuration.
func (l *Log) Config() Config { return l.cfg }

// Trace returns the recorded trace.
func (l *Log) Trace() *trace.Trace { return l.t }

// Stats returns the cache's counters after the pass, before the
// flush: what Stats reports on a live cache that ran the trace.
func (l *Log) Stats() Stats { return l.stats }

// FlushedStats returns the cache's counters after the flush.
func (l *Log) FlushedStats() Stats { return l.flushed }

// Replayer makes a Log's recorded calls on a Backside, one trace event
// at a time: driving a model with Next is driving it with Access on a
// live cache. Victim calls reach the Backside only if it implements
// VictimObserver, as on a live cache.
type Replayer struct {
	b        Backside
	vo       VictimObserver
	events   []trace.Event
	lineSize uint32
	buf      []byte   // the current chunk
	off      int      // the offset of the next call in buf
	chunks   [][]byte // the chunks after it
	// next is the next call, decoded; past the last its event is
	// MaxUint32, which no event reaches: NewLog takes at most
	// MaxUint32 events.
	next  record
	event uint32 // the next event
}

// Replayer returns a Replayer that makes the pass's calls on b; the
// flush's are left to ReplayFlush.
func (l *Log) Replayer(b Backside) *Replayer {
	p := &Replayer{b: b, events: l.t.Events, lineSize: uint32(l.cfg.LineSize), chunks: l.pass}
	p.vo, _ = b.(VictimObserver)
	p.decode()
	return p
}

// Next makes the calls the next trace event made. It is small enough
// to inline, so an event that made none costs a compare.
func (p *Replayer) Next() {
	if p.next.event == p.event {
		p.play()
	}
	p.event++
}

// play makes the next event's calls.
func (p *Replayer) play() {
	for p.next.event == p.event {
		p.next.apply(p.b, p.vo)
		p.decode()
	}
}

// decode reads the next call into p.next, or marks the end.
func (p *Replayer) decode() {
	if p.off == len(p.buf) {
		if len(p.chunks) == 0 {
			p.next.event = math.MaxUint32
			return
		}
		p.buf, p.chunks, p.off = p.chunks[0], p.chunks[1:], 0
	}
	b, i, r := p.buf, p.off, &p.next
	h := b[i]
	i++
	r.op = op(h & 3)
	if d := uint32(h >> 4); d < eventEscape {
		r.event += d
	} else {
		v, n := uvarint(b, i)
		r.event += eventEscape + v
		i = n
	}
	r.size = uint8(p.lineSize)
	switch mode := h >> 2 & 3; mode {
	case addrOwn:
		r.addr, r.size = own(r.op, &p.events[r.event], p.lineSize)
	case addrDelta, addrSized:
		v, n := uvarint(b, i)
		r.addr += uint32(int32(v>>1) ^ -int32(v&1)) // zigzag
		i = n
		if mode == addrSized {
			r.size = b[i]
			i++
		}
	}
	if r.op == opWriteback || r.op == opVictim {
		r.dirty = b[i]
		i++
	}
	p.off = i
}

// uvarint decodes the uvarint of at most 32 bits at b[i:] and returns
// it and the index after it.
func uvarint(b []byte, i int) (uint32, int) {
	var x uint32
	for s := 0; ; s += 7 {
		c := b[i]
		i++
		if x |= uint32(c&0x7f) << s; c < 0x80 {
			return x, i
		}
	}
}

// ReplayFlush makes the flush's write-backs on b, in order.
func (l *Log) ReplayFlush(b Backside) {
	for i := range l.flush {
		l.flush[i].apply(b, nil)
	}
}
