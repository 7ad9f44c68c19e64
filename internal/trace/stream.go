package trace

import (
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
// the program. Compared to []Event it has no per-event padding, grows in
// fixed-size chunks (no doubling spikes), and keeps exact byte-size
// accounting so streams can live in a memory-bounded cache.
//
// A Stream is append-only while recording and immutable afterwards;
// replaying is safe from many goroutines at once.
//
// Recording appends into raw struct-of-arrays chunks (the fast path);
// when compression is enabled, a chunk seals — compresses to the
// columnar delta/varint form in codec.go — as soon as it fills, and
// Seal compresses the partial tail when recording completes. Replay
// decodes one sealed chunk at a time into a pooled scratch buffer, so
// resident memory is the compressed bytes plus at most one decoded
// chunk per active consumer.
type Stream struct {
	chunks []*chunk

	n     int    // total events
	loads uint64 // load events among n

	// compress is captured from the package-wide setting at NewStream:
	// whether chunks seal as they fill.
	compress bool

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
func NewStream() *Stream { return &Stream{compress: CompressionEnabled()} }

// Append adds one event to the stream.
func (s *Stream) Append(kind Kind, pc, addr, value uint32) {
	var c *chunk
	if len(s.chunks) > 0 {
		c = s.chunks[len(s.chunks)-1]
	}
	if c == nil || c.packed != nil || len(c.kinds) == chunkEvents {
		if c != nil && s.compress {
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
// when compression is off or the tail is already sealed; later Appends
// simply start a new raw chunk.
func (s *Stream) Seal() {
	if !s.compress || len(s.chunks) == 0 {
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
// occupancy) for raw ones — so the cache's books reflect real memory
// use in either mode.
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

// EventsReplayed counts the events Replay and ReplayChunks decode,
// added once per call, so the work a suite spends on replay reads as a
// count rather than a time.
var EventsReplayed = metrics.Default().Counter("trace.events_replayed")

// Replay feeds the stream to the sinks, in recorded order. Every sink
// sees every event before the next event is delivered (lockstep), so
// sinks may share per-event state. With no sinks it decodes nothing.
func (s *Stream) Replay(sinks ...Sink) {
	switch len(sinks) {
	case 0:
		return
	case 1:
		s.ReplayChunks(0, len(s.chunks), sinks[0])
		return
	}
	// Unwrap each SinkFuncs adapter once, the way the single-sink path
	// does, so the per-event fan-out costs direct closure calls instead
	// of interface dispatches plus nil checks.
	onLoads := make([]func(pc, addr, value uint32), len(sinks))
	onStores := make([]func(pc, addr, value uint32), len(sinks))
	for i, snk := range sinks {
		onLoads[i], onStores[i] = sinkCallbacks(snk)
	}
	var sc *eventScratch
	for _, c := range s.chunks {
		kinds, pcs, addrs, values := c.columns(&sc)
		for i, k := range kinds {
			if Kind(k) == KindLoad {
				for _, onLoad := range onLoads {
					onLoad(pcs[i], addrs[i], values[i])
				}
			} else {
				for _, onStore := range onStores {
					onStore(pcs[i], addrs[i], values[i])
				}
			}
		}
	}
	if sc != nil {
		putEventScratch(sc)
	}
	EventsReplayed.Add(uint64(s.n))
}

// NumChunks returns the number of fixed-size chunks in the stream (the
// granularity of ReplayChunks).
func (s *Stream) NumChunks() int { return len(s.chunks) }

// ReplayChunks feeds chunks [lo, hi) to snk, in recorded order. It is
// the chunk-granular replay primitive: a consumer that walks the chunk
// range itself can interleave replay with other work. The common
// SinkFuncs adapter is unwrapped
// so each event costs one direct closure call instead of an interface
// dispatch plus nil checks; a partial SinkFuncs (nil callback) skips
// that event kind, exactly like the interface path.
func (s *Stream) ReplayChunks(lo, hi int, snk Sink) {
	onLoad, onStore := sinkCallbacks(snk)
	var sc *eventScratch
	n := 0
	for _, c := range s.chunks[lo:hi] {
		kinds, pcs, addrs, values := c.columns(&sc)
		n += len(kinds)
		for i, k := range kinds {
			if Kind(k) == KindLoad {
				onLoad(pcs[i], addrs[i], values[i])
			} else {
				onStore(pcs[i], addrs[i], values[i])
			}
		}
	}
	if sc != nil {
		putEventScratch(sc)
	}
	EventsReplayed.Add(uint64(n))
}

// sinkCallbacks resolves snk to one load and one store function for the
// replay inner loops. A SinkFuncs adapter is unwrapped to its closures
// with nil callbacks replaced by no-ops, so nil-means-skip holds on the
// unwrapped fast path and the interface path alike (the methods on
// SinkFuncs nil-check too); any other sink contributes its bound
// methods.
func sinkCallbacks(snk Sink) (onLoad, onStore func(pc, addr, value uint32)) {
	if sf, ok := snk.(SinkFuncs); ok {
		onLoad, onStore = sf.OnLoad, sf.OnStore
		if onLoad == nil {
			onLoad = func(pc, addr, value uint32) {}
		}
		if onStore == nil {
			onStore = func(pc, addr, value uint32) {}
		}
		return onLoad, onStore
	}
	return snk.Load, snk.Store
}

// Validate cross-checks the event tally against the execution profile
// recorded alongside it: every committed load and store appends exactly
// one event, so any mismatch means the stream was mangled after
// recording (or recorded by a broken path). It returns an error wrapping
// runerr.ErrTraceCorrupt, which the harness treats as a poisoned cache
// entry: drop it and re-record live before giving up on the workload.
func (s *Stream) Validate() error {
	events := s.Counts.Loads + s.Counts.Stores
	if uint64(s.n) != events || s.loads != s.Counts.Loads {
		return fmt.Errorf("%w: %d events (%d loads), but the run committed %d loads + %d stores",
			runerr.ErrTraceCorrupt, s.n, s.loads, s.Counts.Loads, s.Counts.Stores)
	}
	return nil
}

// Trace converts the stream to the array-of-structs form used by the
// binary file format (Save/Load).
func (s *Stream) Trace() *Trace {
	t := &Trace{Events: make([]Event, 0, s.n), Insts: s.Counts.Insts}
	var sc *eventScratch
	for _, c := range s.chunks {
		kinds, pcs, addrs, values := c.columns(&sc)
		for i, k := range kinds {
			t.Events = append(t.Events, Event{
				Kind: Kind(k), PC: pcs[i], Addr: addrs[i], Value: values[i],
			})
		}
	}
	if sc != nil {
		putEventScratch(sc)
	}
	return t
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
// contents. When compression is on, the exact payload bytes become the
// sealed chunk; when off, the decoded raw columns are kept. Chunks must
// arrive in stream order; the error reports the first structural defect
// without modifying the stream.
func (s *Stream) AppendPackedChunk(payload []byte) error {
	sc := getEventScratch()
	defer putEventScratch(sc)
	loads, err := decodeEventChunk(payload, sc)
	if err != nil {
		return err
	}
	n := len(sc.kinds)
	var c *chunk
	if s.compress {
		packed := make([]byte, len(payload))
		copy(packed, payload)
		c = &chunk{packed: packed, n: n}
	} else {
		c = newChunk()
		c.kinds = append(c.kinds, sc.kinds...)
		c.pcs = append(c.pcs, sc.pcs...)
		c.addrs = append(c.addrs, sc.addrs...)
		c.values = append(c.values, sc.values...)
	}
	s.chunks = append(s.chunks, c)
	s.n += n
	s.loads += uint64(loads)
	return nil
}

// SinkFuncs adapts plain load/store callbacks to the Sink interface. A
// nil callback ignores that event kind.
type SinkFuncs struct {
	OnLoad  func(pc, addr, value uint32)
	OnStore func(pc, addr, value uint32)
}

// Load implements Sink.
func (s SinkFuncs) Load(pc, addr, value uint32) {
	if s.OnLoad != nil {
		s.OnLoad(pc, addr, value)
	}
}

// Store implements Sink.
func (s SinkFuncs) Store(pc, addr, value uint32) {
	if s.OnStore != nil {
		s.OnStore(pc, addr, value)
	}
}

// RecordStream executes prog functionally (up to maxInsts; 0 = to
// completion) and returns its committed memory stream. An exhausted
// instruction budget is reported through Stream.Truncated, not as an
// error, matching Record.
func RecordStream(prog *isa.Program, maxInsts uint64) (*Stream, error) {
	return RecordStreamContext(context.Background(), prog, maxInsts, nil)
}

// RecordStreamContext is RecordStream with cancellation and an optional
// extra interrupt hook: both are polled by the interpreter every
// funcsim.InterruptEvery committed instructions (the hook is where fault
// injection reaches the loop). A canceled recording returns the context
// error, not a partial stream; an uncancelable context with a nil hook
// costs nothing over RecordStream.
func RecordStreamContext(ctx context.Context, prog *isa.Program, maxInsts uint64, interrupt func() error) (*Stream, error) {
	s := NewStream()
	sim := funcsim.New(prog)
	sim.OnLoad = func(e funcsim.MemEvent) { s.Append(KindLoad, e.PC, e.Addr, e.Value) }
	sim.OnStore = func(e funcsim.MemEvent) { s.Append(KindStore, e.PC, e.Addr, e.Value) }
	sim.Interrupt = interrupt
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

// RecordStreamBaseline records the same stream as RecordStream, but the
// way every experiment did before the shared cache existed: Step-driven
// interpretation over fully paged memory, with no predecoded fast loop
// and no flat-range reservation. Experiments' Live (pre-cache) mode and
// the suite benchmark use it as the baseline cost model; because Step
// and the fast loop funnel through the same exec core, the recorded
// stream is bit-identical to RecordStream's.
func RecordStreamBaseline(prog *isa.Program, maxInsts uint64) (*Stream, error) {
	return RecordStreamBaselineContext(context.Background(), prog, maxInsts)
}

// RecordStreamBaselineContext is RecordStreamBaseline with cancellation,
// polled every funcsim.InterruptEvery committed instructions like the
// fast path. It backs the harness's graceful-degradation re-record (a
// corrupt cached stream falls back here) and the Live mode, both of
// which must stay interruptible under run deadlines.
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
