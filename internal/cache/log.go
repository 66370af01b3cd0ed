package cache

import (
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
type Log struct {
	cfg   Config
	t     *trace.Trace
	pass  [][]record // the pass's calls, in chunks of at most logChunk
	flush []record   // the flush's write-backs
	// stats is the cache's Stats after the pass, flushed after the
	// flush.
	stats, flushed Stats
}

// logChunk is the record capacity of one chunk of a Log. Chunks keep
// a growing log from copying itself: at most one chunk is part empty.
const logChunk = 1 << 15

// op is the kind of a recorded call.
type op uint8

const (
	opFetch     op = iota // Backside.FetchLine
	opWriteback           // Backside.WritebackLine
	opWriteWord           // Backside.WriteWord
	opVictim              // VictimObserver.ObserveVictim
)

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
func (r record) apply(b Backside, vo VictimObserver) {
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

// recorder is the Backside and VictimObserver that builds a Log. It
// reads the index of the event in flight off its cache: Access and the
// batch kernels count an event's read or write before it makes any
// back-side call, so that event is number Reads+Writes-1.
type recorder struct {
	c      *Cache
	chunks [][]record
	cur    []record
}

func (r *recorder) add(rec record) {
	if len(r.cur) == cap(r.cur) {
		if r.cur != nil {
			r.chunks = append(r.chunks, r.cur)
		}
		r.cur = make([]record, 0, logChunk)
	}
	rec.event = uint32(r.c.stats.Reads + r.c.stats.Writes - 1)
	r.cur = append(r.cur, rec)
}

// done returns the recorded chunks, the last one cut to its length,
// and empties the recorder.
func (r *recorder) done() [][]record {
	out := r.chunks
	if len(r.cur) > 0 {
		out = append(out, slices.Clone(r.cur))
	}
	r.chunks, r.cur = nil, nil
	return out
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
	r := recorder{c: c}
	c.SetBackside(&r)
	c.AccessEvents(t.Events)
	l := &Log{cfg: cfg, t: t, pass: r.done(), stats: c.Stats()}
	c.Flush()
	for _, ch := range r.done() {
		l.flush = append(l.flush, ch...)
	}
	l.flushed = c.Stats()
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
	b      Backside
	vo     VictimObserver
	recs   []record   // the rest of the current chunk
	chunks [][]record // the chunks after it
	event  uint32     // the next event
}

// Replayer returns a Replayer that makes the pass's calls on b; the
// flush's are left to ReplayFlush.
func (l *Log) Replayer(b Backside) *Replayer {
	p := &Replayer{b: b, chunks: l.pass}
	p.vo, _ = b.(VictimObserver)
	p.load()
	return p
}

// Next makes the calls the next trace event made. It is small enough
// to inline, so an event that made none costs a compare.
func (p *Replayer) Next() {
	if len(p.recs) > 0 && p.recs[0].event == p.event {
		p.play()
	}
	p.event++
}

// play makes the next event's calls.
func (p *Replayer) play() {
	for len(p.recs) > 0 && p.recs[0].event == p.event {
		p.recs[0].apply(p.b, p.vo)
		if p.recs = p.recs[1:]; len(p.recs) == 0 {
			p.load()
		}
	}
}

// load moves to the next chunk, if there is one.
func (p *Replayer) load() {
	if len(p.chunks) > 0 {
		p.recs, p.chunks = p.chunks[0], p.chunks[1:]
	}
}

// ReplayFlush makes the flush's write-backs on b, in order.
func (l *Log) ReplayFlush(b Backside) {
	for _, r := range l.flush {
		r.apply(b, nil)
	}
}
