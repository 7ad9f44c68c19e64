package trace

import (
	"bytes"
	"context"
	"fmt"

	"rarpred/internal/check"
	"rarpred/internal/funcsim"
	"rarpred/internal/isa"
	"rarpred/internal/metrics"
	"rarpred/internal/runerr"
)

// Stream is the compact in-memory form of a committed access stream: a
// chunked struct-of-arrays layout (kind, PC, address, value in separate
// slices) that replays to any number of observers without re-executing
// the program. Compared to an array of event structs it has no
// per-event padding, grows in fixed-size chunks (no doubling spikes),
// and keeps exact byte-size accounting.
//
// A Stream is append-only while recording and immutable afterwards;
// replaying is safe from many goroutines at once.
//
// Recording appends into raw struct-of-arrays chunks (the fast path); a
// chunk seals — compresses to the columnar delta/varint form in
// codec.go — as soon as it fills, and Seal compresses the partial tail
// when recording completes. Replay
// decodes one sealed chunk at a time into a pooled scratch buffer, so
// resident memory is the compressed bytes plus at most one decoded
// chunk per active consumer.
type Stream struct {
	chunks []*chunk

	n     int    // total events
	loads uint64 // load events among n

	// Counts is the full dynamic execution profile of the traced run, so
	// experiments that report fractions over all instructions (or branch
	// and call mixes) need only the stream.
	Counts funcsim.Counts

	// Truncated reports that recording stopped at the instruction budget
	// rather than at a halt; the stream covers a prefix of the program.
	Truncated bool
}

// chunkEvents is the number of events per chunk (13 bytes of payload per
// event; one chunk is ~832 KiB of payload).
const chunkEvents = 1 << 16

// chunk holds a fixed-capacity struct-of-arrays block. While raw, the
// four column slices are live (backed by a pooled eventScratch); once
// sealed, packed holds the compressed payload, n the event count, and
// the raw columns are recycled.
type chunk struct {
	kinds  []uint8
	pcs    []uint32
	addrs  []uint32
	values []uint32

	packed []byte // compressed payload once sealed; raw columns are nil
	n      int    // events in the chunk once sealed

	sc *eventScratch // pool box backing the raw columns, if pooled
}

func newChunk() *chunk {
	sc := getEventScratch()
	return &chunk{
		kinds:  sc.kinds[:0],
		pcs:    sc.pcs[:0],
		addrs:  sc.addrs[:0],
		values: sc.values[:0],
		sc:     sc,
	}
}

// events returns the chunk's event count, sealed or raw.
func (c *chunk) events() int {
	if c.packed != nil {
		return c.n
	}
	return len(c.kinds)
}

// seal compresses the chunk and recycles its raw columns. Sealing an
// already-sealed or empty chunk is a no-op.
func (c *chunk) seal() {
	if c.packed != nil || len(c.kinds) == 0 {
		return
	}
	c.n = len(c.kinds)
	c.packed = packExact(func(dst []byte) []byte {
		return encodeEventChunk(dst, c.kinds, c.pcs, c.addrs, c.values)
	})
	if sc := c.sc; sc != nil {
		sc.kinds, sc.pcs, sc.addrs, sc.values = c.kinds, c.pcs, c.addrs, c.values
		c.sc = nil
		putEventScratch(sc)
	}
	c.kinds, c.pcs, c.addrs, c.values = nil, nil, nil, nil
}

// columns returns the chunk's event columns for reading. A raw chunk's
// columns are returned directly; a sealed chunk decodes into *scp,
// acquiring the scratch from the pool on first use (the caller releases
// it with putEventScratch when done iterating).
func (c *chunk) columns(scp **eventScratch) (kinds []uint8, pcs, addrs, values []uint32) {
	if c.packed == nil {
		return c.kinds, c.pcs, c.addrs, c.values
	}
	if *scp == nil {
		*scp = getEventScratch()
	}
	sc := *scp
	if _, err := decodeEventChunk(c.packed, sc); err != nil {
		// A sealed chunk's payload was produced (or validated) by this
		// package's own codec; failing to decode it is memory corruption,
		// not an input error.
		panic(fmt.Sprintf("trace: sealed chunk failed to decode: %v", err))
	}
	return sc.kinds, sc.pcs, sc.addrs, sc.values
}

// NewStream returns an empty stream ready for Append.
func NewStream() *Stream { return &Stream{} }

// Append adds one event to the stream.
func (s *Stream) Append(kind Kind, pc, addr, value uint32) {
	var c *chunk
	if len(s.chunks) > 0 {
		c = s.chunks[len(s.chunks)-1]
	}
	if c == nil || c.packed != nil || len(c.kinds) == chunkEvents {
		if c != nil {
			c.seal()
		}
		c = newChunk()
		s.chunks = append(s.chunks, c)
	}
	c.kinds = append(c.kinds, uint8(kind))
	c.pcs = append(c.pcs, pc)
	c.addrs = append(c.addrs, addr)
	c.values = append(c.values, value)
	s.n++
	if kind == KindLoad {
		s.loads++
	}
	if check.Enabled {
		check.Assertf(len(c.kinds) <= chunkEvents, "stream.chunk",
			"tail chunk grew to %d events (cap %d)", len(c.kinds), chunkEvents)
		check.Assertf(kind == KindLoad || kind == KindStore, "stream.kind",
			"appended bad kind %d", kind)
	}
}

// Seal compresses the partial tail chunk; recorders call it when
// recording completes so a finished stream is fully packed. A no-op
// when the tail is already sealed; later Appends simply start a new raw
// chunk.
func (s *Stream) Seal() {
	if len(s.chunks) == 0 {
		return
	}
	s.chunks[len(s.chunks)-1].seal()
}

// Len returns the number of recorded events.
func (s *Stream) Len() int { return s.n }

// Loads returns the number of load events.
func (s *Stream) Loads() uint64 { return s.loads }

// eventBytes is the payload size of one event in the struct-of-arrays
// layout: 1 (kind) + 4 (PC) + 4 (addr) + 4 (value).
const eventBytes = 13

// Bytes returns the resident size of the stream in bytes: the packed
// payload for sealed chunks, full chunk capacity (allocation, not
// occupancy) for the raw tail of a stream still recording — so it
// reflects real memory use.
func (s *Stream) Bytes() int64 {
	var b int64
	for _, c := range s.chunks {
		if c.packed != nil {
			b += int64(len(c.packed))
		} else {
			b += chunkEvents * eventBytes
		}
	}
	return b
}

// RawBytes returns the uncompressed payload size of the recorded events
// (occupancy at eventBytes per event), the numerator of the compression
// ratio Bytes is the denominator of.
func (s *Stream) RawBytes() int64 { return int64(s.n) * eventBytes }

// EventsReplayed counts the events Replay decodes, added once per call,
// so the work a suite spends on replay reads as a count rather than a
// time.
var EventsReplayed = metrics.Default().Counter("trace.events_replayed")

// Replay feeds the stream to the sinks, in recorded order, chunk-major:
// it decodes each chunk once, and every sink walks the whole chunk, in
// argument order, before the next sink starts; no sink sees a chunk
// until every sink has finished the one before. Each sink therefore sees
// every event in recorded order and keeps its own tables hot across a
// chunk, but sinks must not share per-event state. With no sinks it
// decodes nothing.
func (s *Stream) Replay(sinks ...Sink) {
	if len(sinks) == 0 {
		return
	}
	var sc *eventScratch
	n := 0
	for _, c := range s.chunks {
		kinds, pcs, addrs, values := c.columns(&sc)
		n += len(kinds)
		for _, snk := range sinks {
			snk.WalkChunk(kinds, pcs, addrs, values)
		}
	}
	if sc != nil {
		putEventScratch(sc)
	}
	EventsReplayed.Add(uint64(n))
}

// NumChunks returns the number of fixed-size chunks in the stream: the
// unit Replay decodes and an artifact persists.
func (s *Stream) NumChunks() int { return len(s.chunks) }

// Validate cross-checks the event tally against the execution profile
// recorded alongside it: every committed load and store appends exactly
// one event, so any mismatch means the stream was mangled after
// recording (or recorded by a broken path). It returns an error wrapping
// runerr.ErrTraceCorrupt. The harness treats a stored recording that
// fails it as a miss and records the stream again, and fails the
// workload of a fresh recording that fails it.
func (s *Stream) Validate() error {
	events := s.Counts.Loads + s.Counts.Stores
	if uint64(s.n) != events || s.loads != s.Counts.Loads {
		return fmt.Errorf("%w: %d events (%d loads), but the run committed %d loads + %d stores",
			runerr.ErrTraceCorrupt, s.n, s.loads, s.Counts.Loads, s.Counts.Stores)
	}
	return nil
}

// PackedChunk appends the canonical packed payload of chunk ci to dst
// and returns the extended slice. A sealed chunk's stored payload is
// copied verbatim; a raw chunk encodes on the fly — the encoder is
// deterministic, so both routes yield identical bytes for identical
// events (the store's load-time re-encode oracle relies on that).
func (s *Stream) PackedChunk(ci int, dst []byte) []byte {
	c := s.chunks[ci]
	if c.packed != nil {
		return append(dst, c.packed...)
	}
	return encodeEventChunk(dst, c.kinds, c.pcs, c.addrs, c.values)
}

// AppendPackedChunk validates payload as one packed event chunk and
// appends it to the stream, updating the event tallies from the decoded
// contents: a copy of the exact payload bytes becomes the sealed chunk.
// Chunks must arrive in stream order; the error reports the first
// structural defect without modifying the stream.
func (s *Stream) AppendPackedChunk(payload []byte) error {
	sc := getEventScratch()
	defer putEventScratch(sc)
	loads, err := decodeEventChunk(payload, sc)
	if err != nil {
		return err
	}
	n := len(sc.kinds)
	s.chunks = append(s.chunks, &chunk{packed: bytes.Clone(payload), n: n})
	s.n += n
	s.loads += uint64(loads)
	return nil
}

// SinkFuncs adapts plain load/store callbacks to the Sink interface: it
// walks each chunk event by event. A nil callback ignores that event
// kind.
type SinkFuncs struct {
	OnLoad  func(pc, addr, value uint32)
	OnStore func(pc, addr, value uint32)
}

// WalkChunk implements Sink.
func (s SinkFuncs) WalkChunk(kinds []uint8, pcs, addrs, values []uint32) {
	onLoad, onStore := s.OnLoad, s.OnStore
	if onLoad == nil {
		onLoad = func(pc, addr, value uint32) {}
	}
	if onStore == nil {
		onStore = func(pc, addr, value uint32) {}
	}
	pcs, addrs, values = pcs[:len(kinds)], addrs[:len(kinds)], values[:len(kinds)]
	for i, k := range kinds {
		if Kind(k) == KindLoad {
			onLoad(pcs[i], addrs[i], values[i])
		} else {
			onStore(pcs[i], addrs[i], values[i])
		}
	}
}

// RecordStream executes prog functionally (up to maxInsts; 0 = to
// completion) and returns its committed memory stream. An exhausted
// instruction budget is reported through Stream.Truncated, not as an
// error.
func RecordStream(prog *isa.Program, maxInsts uint64) (*Stream, error) {
	return RecordStreamContext(context.Background(), prog, maxInsts)
}

// RecordStreamContext is RecordStream with cancellation: the interpreter
// polls ctx every funcsim.InterruptEvery committed instructions. A
// canceled recording returns the context error, not a partial stream;
// an uncancelable context costs nothing over RecordStream.
func RecordStreamContext(ctx context.Context, prog *isa.Program, maxInsts uint64) (*Stream, error) {
	s := NewStream()
	sim := funcsim.New(prog)
	sim.OnLoad = func(e funcsim.MemEvent) { s.Append(KindLoad, e.PC, e.Addr, e.Value) }
	sim.OnStore = func(e funcsim.MemEvent) { s.Append(KindStore, e.PC, e.Addr, e.Value) }
	if err := sim.RunContext(ctx, maxInsts); err != nil {
		if err != funcsim.ErrMaxInsts {
			return nil, err
		}
		s.Truncated = true
	}
	s.Counts = sim.Counts
	s.Seal()
	return s, nil
}

// RecordStreamBaselineContext records the same stream as RecordStream,
// but on the baseline interpreter: Step-driven interpretation over
// fully paged memory, with no predecoded fast loop and no flat-range
// reservation. Because Step and the fast loop funnel through the same
// exec core, the recorded stream is bit-identical to RecordStream's, so
// it is the independent recording -check's oracle compares against. It
// polls ctx every
// funcsim.InterruptEvery committed instructions like the fast path, so
// both stay interruptible under run deadlines.
func RecordStreamBaselineContext(ctx context.Context, prog *isa.Program, maxInsts uint64) (*Stream, error) {
	s := NewStream()
	sim := funcsim.NewPaged(prog)
	sim.OnLoad = func(e funcsim.MemEvent) { s.Append(KindLoad, e.PC, e.Addr, e.Value) }
	sim.OnStore = func(e funcsim.MemEvent) { s.Append(KindStore, e.PC, e.Addr, e.Value) }
	cancelable := ctx.Done() != nil
	countdown := 0
	var flushed uint64
	defer func() { funcsim.InstsCommitted.Add(sim.Counts.Insts - flushed) }()
	for !sim.Halted {
		if maxInsts > 0 && sim.Counts.Insts >= maxInsts {
			s.Truncated = true
			break
		}
		if cancelable {
			if countdown == 0 {
				countdown = funcsim.InterruptEvery
				funcsim.InstsCommitted.Add(sim.Counts.Insts - flushed)
				flushed = sim.Counts.Insts
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("trace: baseline recording interrupted after %d insts: %w",
						sim.Counts.Insts, err)
				}
			}
			countdown--
		}
		if err := sim.Step(); err != nil {
			return nil, err
		}
	}
	s.Counts = sim.Counts
	s.Seal()
	return s, nil
}
