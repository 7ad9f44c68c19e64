package trace

import (
	"bytes"
	"context"
	"fmt"

	"rarpred/internal/funcsim"
	"rarpred/internal/isa"
	"rarpred/internal/runerr"
)

// IStream is the compact in-memory form of a committed *instruction*
// stream: one entry per committed instruction (predecoded instruction
// index and next PC), plus one (address, value) record per committed
// memory operation, consumed in commit order. It is the timing-level
// sibling of Stream: where Stream carries only the memory reference
// stream the functional analyzers need, an IStream carries everything
// the cycle-level pipeline model needs to re-time an execution without
// re-executing it — the paper's fixed-committed-stream methodology.
//
// Like Stream, the layout is chunked struct-of-arrays: no per-event
// padding, fixed-size growth (no doubling spikes), and exact byte-size
// accounting. An IStream is append-only while recording and immutable
// afterwards; cursors over it are safe from many goroutines at once.
// Chunks seal (compress, per codec.go) as they fill, exactly like
// Stream's.
type IStream struct {
	ichunks []*pairChunk // one (idx, next) record per committed instruction
	mchunks []*pairChunk // one (addr, value) record per committed load or store

	n    uint64 // committed instructions
	mems uint64 // memory events among them

	// Counts is the full dynamic execution profile of the traced run,
	// recorded so Validate can cross-check the tallies and so consumers
	// need only the stream.
	Counts funcsim.Counts

	// Truncated reports that recording stopped at the instruction budget
	// rather than at a halt; the stream covers a prefix of the program.
	Truncated bool
}

// pairChunk holds a fixed-capacity block of two-column records — the
// per-instruction (idx, next) plane and the memory (addr, value) plane
// share the shape. While raw, the column slices are live (backed by a
// pooled pairScratch); once sealed, packed holds the compressed payload
// and the raw columns are recycled.
type pairChunk struct {
	a []uint32
	b []uint32

	packed []byte // compressed payload once sealed; raw columns are nil
	n      int    // records in the chunk once sealed

	sc *pairScratch // pool box backing the raw columns, if pooled
}

func newPairChunk() *pairChunk {
	sc := getPairScratch()
	return &pairChunk{a: sc.a[:0], b: sc.b[:0], sc: sc}
}

// records returns the chunk's record count, sealed or raw.
func (c *pairChunk) records() int {
	if c.packed != nil {
		return c.n
	}
	return len(c.a)
}

// seal compresses the chunk and recycles its raw columns. Sealing an
// already-sealed or empty chunk is a no-op.
func (c *pairChunk) seal() {
	if c.packed != nil || len(c.a) == 0 {
		return
	}
	c.n = len(c.a)
	c.packed = packExact(func(dst []byte) []byte {
		return encodePairChunk(dst, c.a, c.b)
	})
	if sc := c.sc; sc != nil {
		sc.a, sc.b = c.a, c.b
		c.sc = nil
		putPairScratch(sc)
	}
	c.a, c.b = nil, nil
}

// columns returns the chunk's record columns for reading, decoding a
// sealed chunk into sc (which the caller owns and reuses per chunk).
func (c *pairChunk) columns(sc *pairScratch) (a, b []uint32) {
	if c.packed == nil {
		return c.a, c.b
	}
	if err := decodePairChunk(c.packed, sc); err != nil {
		// A sealed chunk's payload was produced (or validated) by this
		// package's own codec; failing to decode it is memory corruption,
		// not an input error.
		panic(fmt.Sprintf("trace: sealed pair chunk failed to decode: %v", err))
	}
	return sc.a, sc.b
}

// appendPair adds one record to the chunk plane, sealing the tail when
// it fills and growing the plane as needed.
func appendPair(chunks []*pairChunk, a, b uint32) []*pairChunk {
	var c *pairChunk
	if len(chunks) > 0 {
		c = chunks[len(chunks)-1]
	}
	if c == nil || c.packed != nil || len(c.a) == chunkEvents {
		if c != nil {
			c.seal()
		}
		c = newPairChunk()
		chunks = append(chunks, c)
	}
	c.a = append(c.a, a)
	c.b = append(c.b, b)
	return chunks
}

// NewIStream returns an empty instruction stream ready for appends.
func NewIStream() *IStream { return &IStream{} }

// AppendInst adds one committed instruction: its predecoded index and
// the PC that followed it.
func (s *IStream) AppendInst(idx, next uint32) {
	s.ichunks = appendPair(s.ichunks, idx, next)
	s.n++
}

// AppendMem adds one committed memory access (the word-aligned effective
// address and the word read or written), owned by the next appended (or
// just-appended) memory instruction.
func (s *IStream) AppendMem(addr, value uint32) {
	s.mchunks = appendPair(s.mchunks, addr, value)
	s.mems++
}

// Seal compresses the partial tail chunk of both planes; recorders call
// it when recording completes so a finished stream is fully packed.
// Later appends simply start new raw chunks.
func (s *IStream) Seal() {
	if len(s.ichunks) > 0 {
		s.ichunks[len(s.ichunks)-1].seal()
	}
	if len(s.mchunks) > 0 {
		s.mchunks[len(s.mchunks)-1].seal()
	}
}

// Len returns the number of committed instructions recorded.
func (s *IStream) Len() uint64 { return s.n }

// MemEvents returns the number of memory events recorded.
func (s *IStream) MemEvents() uint64 { return s.mems }

// istreamEntryBytes is the payload of one per-instruction record (idx +
// next) and of one memory record (addr + value) alike: two words.
const istreamEntryBytes = 8

// Bytes returns the resident size of the stream in bytes: the packed
// payload for sealed chunks, full chunk capacity (allocation, not
// occupancy) for the raw tails of a stream still recording — so it
// reflects real memory use.
func (s *IStream) Bytes() int64 {
	var b int64
	for _, planes := range [2][]*pairChunk{s.ichunks, s.mchunks} {
		for _, c := range planes {
			if c.packed != nil {
				b += int64(len(c.packed))
			} else {
				b += chunkEvents * istreamEntryBytes
			}
		}
	}
	return b
}

// RawBytes returns the uncompressed payload size of the recorded stream
// (occupancy at istreamEntryBytes per record), the numerator of the
// compression ratio Bytes is the denominator of.
func (s *IStream) RawBytes() int64 {
	return int64(s.n+s.mems) * istreamEntryBytes
}

// NumInstChunks returns the number of chunks in the instruction plane
// (the granularity of PackedInstChunk).
func (s *IStream) NumInstChunks() int { return len(s.ichunks) }

// NumMemChunks returns the number of chunks in the memory plane (the
// granularity of PackedMemChunk).
func (s *IStream) NumMemChunks() int { return len(s.mchunks) }

// PackedInstChunk appends the canonical packed payload of instruction
// chunk ci to dst and returns the extended slice (see
// Stream.PackedChunk for the determinism contract).
func (s *IStream) PackedInstChunk(ci int, dst []byte) []byte {
	return packedPair(s.ichunks[ci], dst)
}

// PackedMemChunk appends the canonical packed payload of memory chunk
// ci to dst and returns the extended slice.
func (s *IStream) PackedMemChunk(ci int, dst []byte) []byte {
	return packedPair(s.mchunks[ci], dst)
}

func packedPair(c *pairChunk, dst []byte) []byte {
	if c.packed != nil {
		return append(dst, c.packed...)
	}
	return encodePairChunk(dst, c.a, c.b)
}

// AppendPackedInstChunk validates payload as one packed pair chunk and
// appends it to the instruction plane, updating the instruction tally.
// Chunks must arrive in stream order; the error reports the first
// structural defect without modifying the stream.
func (s *IStream) AppendPackedInstChunk(payload []byte) error {
	c, err := decodePackedPair(payload)
	if err != nil {
		return err
	}
	s.ichunks = append(s.ichunks, c)
	s.n += uint64(c.n)
	return nil
}

// AppendPackedMemChunk validates payload as one packed pair chunk and
// appends it to the memory plane, updating the memory tally.
func (s *IStream) AppendPackedMemChunk(payload []byte) error {
	c, err := decodePackedPair(payload)
	if err != nil {
		return err
	}
	s.mchunks = append(s.mchunks, c)
	s.mems += uint64(c.n)
	return nil
}

// decodePackedPair validates payload as one packed pair chunk and
// returns a sealed chunk holding a copy of it.
func decodePackedPair(payload []byte) (*pairChunk, error) {
	sc := getPairScratch()
	defer putPairScratch(sc)
	if err := decodePairChunk(payload, sc); err != nil {
		return nil, err
	}
	return &pairChunk{packed: bytes.Clone(payload), n: len(sc.a)}, nil
}

// Validate cross-checks the recorded tallies against the execution
// profile captured alongside them: every committed instruction appends
// exactly one instruction record and every committed load or store
// exactly one memory record, so any mismatch means the stream was
// mangled after recording (or recorded by a broken path). It returns an
// error wrapping runerr.ErrTraceCorrupt, which the harness treats as a
// poisoned recording: re-record it before giving up on the workload.
func (s *IStream) Validate() error {
	if s.n != s.Counts.Insts || s.mems != s.Counts.Loads+s.Counts.Stores {
		return fmt.Errorf("%w: %d instruction records (%d memory), but the run committed %d insts (%d loads + %d stores)",
			runerr.ErrTraceCorrupt, s.n, s.mems, s.Counts.Insts, s.Counts.Loads, s.Counts.Stores)
	}
	return nil
}

// ICursor walks an IStream in commit order. NextInst yields successive
// instruction records; NextMem yields successive memory records — the
// caller interleaves them (one NextMem per memory instruction), which is
// exactly the recorded order. ReadInsts and ReadMems copy runs of
// records instead, for a consumer that takes a stream in steps. The zero
// ICursor is not useful; obtain one from Cursor. Each cursor is
// independent, so concurrent replays of one immutable stream need no
// synchronisation — but a cursor must not be copied once iteration has
// begun (copies would share decode scratch).
//
// A cursor owns one pooled decode buffer per plane, acquired eagerly at
// Cursor and released back to the pool independently when each plane
// first reports its end; after release that plane keeps reporting the
// end. A cursor abandoned mid-stream leaves its buffers to the GC.
type ICursor struct {
	inst, mem pairCursor
}

// pairCursor walks one plane of an IStream: the chunk it is in, decoded
// into its pooled buffer if sealed, and the position within it.
type pairCursor struct {
	chunks []*pairChunk
	ci     int // current chunk
	i      int // index within it
	a, b   []uint32
	sc     *pairScratch // decode buffer for sealed chunks
}

// Cursor returns a cursor positioned at the start of the stream.
func (s *IStream) Cursor() ICursor {
	return ICursor{inst: newPairCursor(s.ichunks), mem: newPairCursor(s.mchunks)}
}

func newPairCursor(chunks []*pairChunk) pairCursor {
	c := pairCursor{chunks: chunks, sc: getPairScratch()}
	if len(chunks) > 0 {
		c.a, c.b = chunks[0].columns(c.sc)
	}
	return c
}

// NextInst returns the next instruction record, or ok=false at the end
// of the plane (which releases that plane's pooled decode buffer; the
// memory plane may still be draining through NextMem).
func (c *ICursor) NextInst() (idx, next uint32, ok bool) { return c.inst.next() }

// NextMem returns the next memory record, or ok=false when the stream
// holds no further memory events (which a validated stream's consumer
// never observes before its last memory instruction; reporting the end
// releases the plane's pooled decode buffer).
func (c *ICursor) NextMem() (addr, value uint32, ok bool) { return c.mem.next() }

// ReadInsts copies the next instruction records into idx and next, as
// many as the shorter of the two holds, and returns how many it copied:
// fewer only at the end of the plane.
func (c *ICursor) ReadInsts(idx, next []uint32) int { return c.inst.read(idx, next) }

// ReadMems copies the next memory records into addr and value, as many
// as the shorter of the two holds, and returns how many it copied: fewer
// only at the end of the plane.
func (c *ICursor) ReadMems(addr, value []uint32) int { return c.mem.read(addr, value) }

func (c *pairCursor) next() (a, b uint32, ok bool) {
	for c.i == len(c.a) {
		if !c.advance() {
			return 0, 0, false
		}
	}
	a, b = c.a[c.i], c.b[c.i]
	c.i++
	return a, b, true
}

func (c *pairCursor) read(a, b []uint32) int {
	n := min(len(a), len(b))
	done := 0
	for done < n {
		if c.i == len(c.a) && !c.advance() {
			break
		}
		k := copy(a[done:n], c.a[c.i:])
		copy(b[done:done+k], c.b[c.i:c.i+k])
		c.i += k
		done += k
	}
	return done
}

// advance moves to the next chunk of the plane, or reports the end,
// releasing the decode buffer.
func (c *pairCursor) advance() bool {
	if c.ci+1 >= len(c.chunks) {
		if c.sc != nil {
			putPairScratch(c.sc)
			c.sc = nil
		}
		c.a, c.b = nil, nil
		c.i, c.ci = 0, len(c.chunks)
		return false
	}
	c.ci++
	c.a, c.b = c.chunks[c.ci].columns(c.sc)
	c.i = 0
	return true
}

// RecordIStream executes prog functionally (up to maxInsts; 0 = to
// completion) and returns its committed instruction stream. An exhausted
// instruction budget is reported through IStream.Truncated, not as an
// error, matching RecordStream.
func RecordIStream(prog *isa.Program, maxInsts uint64) (*IStream, error) {
	return RecordIStreamContext(context.Background(), prog, maxInsts, nil)
}

// RecordIStreamContext is RecordIStream with cancellation and an
// optional extra interrupt hook, both polled every
// funcsim.InterruptEvery committed instructions (the hook is where fault
// injection reaches the loop). The recording loop walks the predecoded
// text segment directly, like funcsim.Run, and appends each committed
// instruction's (index, next-PC) pair after the architectural step
// commits it; the memory observers fill the parallel event arrays.
func RecordIStreamContext(ctx context.Context, prog *isa.Program, maxInsts uint64, interrupt func() error) (*IStream, error) {
	s := NewIStream()
	sim := funcsim.New(prog)
	sim.OnLoad = func(e funcsim.MemEvent) { s.AppendMem(e.Addr, e.Value) }
	sim.OnStore = func(e funcsim.MemEvent) { s.AppendMem(e.Addr, e.Value) }
	insts := prog.Insts
	limit := uint32(len(insts)) * 4
	cancelable := ctx.Done() != nil
	countdown := 0 // polls on the first iteration, then every InterruptEvery
	var flushed uint64
	defer func() { funcsim.InstsCommitted.Add(sim.Counts.Insts - flushed) }()
	for !sim.Halted {
		if maxInsts != 0 && sim.Counts.Insts >= maxInsts {
			s.Truncated = true
			break
		}
		if cancelable || interrupt != nil {
			if countdown == 0 {
				countdown = funcsim.InterruptEvery
				funcsim.InstsCommitted.Add(sim.Counts.Insts - flushed)
				flushed = sim.Counts.Insts
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("trace: timing recording interrupted after %d insts: %w",
						sim.Counts.Insts, err)
				}
				if interrupt != nil {
					if err := interrupt(); err != nil {
						return nil, fmt.Errorf("trace: timing recording interrupted after %d insts: %w",
							sim.Counts.Insts, err)
					}
				}
			}
			countdown--
		}
		pc := sim.PC
		if pc >= limit || pc&3 != 0 {
			return nil, fmt.Errorf("trace: PC 0x%08x outside text segment", pc)
		}
		if err := sim.StepIn(insts[pc>>2]); err != nil {
			return nil, err
		}
		s.AppendInst(pc>>2, sim.PC)
	}
	s.Counts = sim.Counts
	s.Seal()
	return s, nil
}

// RecordIStreamBaselineContext records the same stream as
// RecordIStreamContext, but Step-driven over fully paged memory — the
// independent interpreter configuration the harness falls back to when
// a timing recording fails Validate. Because Step and the fast loop
// funnel through the same exec core, the recording is bit-identical to
// RecordIStreamContext's.
func RecordIStreamBaselineContext(ctx context.Context, prog *isa.Program, maxInsts uint64) (*IStream, error) {
	s := NewIStream()
	sim := funcsim.NewPaged(prog)
	sim.OnLoad = func(e funcsim.MemEvent) { s.AppendMem(e.Addr, e.Value) }
	sim.OnStore = func(e funcsim.MemEvent) { s.AppendMem(e.Addr, e.Value) }
	cancelable := ctx.Done() != nil
	countdown := 0
	for !sim.Halted {
		if maxInsts > 0 && sim.Counts.Insts >= maxInsts {
			s.Truncated = true
			break
		}
		if cancelable {
			if countdown == 0 {
				countdown = funcsim.InterruptEvery
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("trace: baseline timing recording interrupted after %d insts: %w",
						sim.Counts.Insts, err)
				}
			}
			countdown--
		}
		pc := sim.PC
		if err := sim.Step(); err != nil {
			return nil, err
		}
		s.AppendInst(pc>>2, sim.PC)
	}
	s.Counts = sim.Counts
	s.Seal()
	return s, nil
}
