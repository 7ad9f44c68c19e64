package trace

import (
	"bytes"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"rarpred/internal/check"
	"rarpred/internal/workload"
)

// roundTripEvents encodes one chunk's columns and decodes them back,
// failing on any divergence. Returns the payload for further abuse.
func roundTripEvents(t *testing.T, kinds []uint8, pcs, addrs, values []uint32) []byte {
	t.Helper()
	payload := encodeEventChunk(nil, kinds, pcs, addrs, values)
	sc := getEventScratch()
	defer putEventScratch(sc)
	loads, err := decodeEventChunk(payload, sc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	wantLoads := 0
	for i := range kinds {
		if Kind(kinds[i]) == KindLoad {
			wantLoads++
		}
		if sc.kinds[i] != kinds[i] || sc.pcs[i] != pcs[i] || sc.addrs[i] != addrs[i] || sc.values[i] != values[i] {
			t.Fatalf("event %d drifted: got (%d,%d,%d,%d), want (%d,%d,%d,%d)",
				i, sc.kinds[i], sc.pcs[i], sc.addrs[i], sc.values[i],
				kinds[i], pcs[i], addrs[i], values[i])
		}
	}
	if loads != wantLoads {
		t.Fatalf("decode counted %d loads, want %d", loads, wantLoads)
	}
	return payload
}

func TestEventChunkRoundTripEdgeCases(t *testing.T) {
	mk := func(n int, f func(i int) (uint8, uint32, uint32, uint32)) ([]uint8, []uint32, []uint32, []uint32) {
		kinds := make([]uint8, n)
		pcs := make([]uint32, n)
		addrs := make([]uint32, n)
		values := make([]uint32, n)
		for i := 0; i < n; i++ {
			kinds[i], pcs[i], addrs[i], values[i] = f(i)
		}
		return kinds, pcs, addrs, values
	}
	cases := []struct {
		name string
		n    int
		f    func(i int) (uint8, uint32, uint32, uint32)
	}{
		{"single", 1, func(i int) (uint8, uint32, uint32, uint32) {
			return uint8(KindLoad), 4, 0x1000, 7
		}},
		{"full-chunk-sequential", chunkEvents, func(i int) (uint8, uint32, uint32, uint32) {
			return uint8(KindLoad), uint32(i) * 4, uint32(i) * 8, uint32(i % 3)
		}},
		{"all-stores", 100, func(i int) (uint8, uint32, uint32, uint32) {
			return uint8(KindStore), uint32(i), uint32(i), uint32(i)
		}},
		{"alternating-kinds", 257, func(i int) (uint8, uint32, uint32, uint32) {
			return uint8(i % 2), uint32(i), uint32(i), uint32(i)
		}},
		// Deltas that wrap the uint32 ring in both directions: zigzag
		// must survive 0 -> 0xFFFFFFFF -> 0 chains.
		{"wraparound-deltas", 64, func(i int) (uint8, uint32, uint32, uint32) {
			v := uint32(0)
			if i%2 == 1 {
				v = ^uint32(0)
			}
			return uint8(KindLoad), v, ^v, v ^ 0x80000000
		}},
		// Maximum varint width: consecutive values far apart force
		// 5-byte varints in every column.
		{"max-varint-width", 32, func(i int) (uint8, uint32, uint32, uint32) {
			v := uint32(i) * 0x61C88647 // golden-ratio stride, wraps often
			return uint8(i % 2), v, ^v, v ^ 0xAAAA5555
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kinds, pcs, addrs, values := mk(tc.n, tc.f)
			roundTripEvents(t, kinds, pcs, addrs, values)
		})
	}
}

// TestEventChunkRawFallback: incompressible columns must canonically
// pick the raw tag, and sequential ones the packed tag — the store's
// re-encode oracle needs the choice deterministic, not heuristic.
func TestEventChunkRawFallback(t *testing.T) {
	n := 128
	kinds := make([]uint8, n)
	pcs := make([]uint32, n)
	addrs := make([]uint32, n)
	values := make([]uint32, n)
	v := uint32(0x2545F491)
	for i := 0; i < n; i++ {
		// xorshift noise: deltas are full-width, packing cannot win
		v ^= v << 13
		v ^= v >> 17
		v ^= v << 5
		kinds[i] = uint8(v % 2)
		pcs[i] = v * 0x9E3779B9
		addrs[i] = v ^ 0xDEADBEEF
		values[i] = v + uint32(i)*0x7FFFFFFF
	}
	payload := roundTripEvents(t, kinds, pcs, addrs, values)
	if payload[0] != chunkTagRaw {
		t.Fatalf("noise chunk tagged %d, want raw fallback", payload[0])
	}
	if want := rawEventPayloadSize(n); len(payload) != want {
		t.Fatalf("raw payload is %d bytes, want %d", len(payload), want)
	}

	seq := roundTripEvents(t,
		[]uint8{0, 0, 0, 1}, []uint32{4, 8, 12, 16}, []uint32{1, 2, 3, 4}, []uint32{0, 0, 0, 0})
	if seq[0] != chunkTagPacked {
		t.Fatalf("sequential chunk tagged %d, want packed", seq[0])
	}
	if len(seq) >= rawEventPayloadSize(4) {
		t.Fatalf("packed payload (%d bytes) not smaller than raw (%d)", len(seq), rawEventPayloadSize(4))
	}
}

func TestPairChunkRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 255, 256, chunkEvents} {
		a := make([]uint32, n)
		b := make([]uint32, n)
		for i := 0; i < n; i++ {
			a[i] = uint32(i)
			b[i] = ^uint32(i) // descending: negative deltas
		}
		payload := encodePairChunk(nil, a, b)
		sc := getPairScratch()
		if err := decodePairChunk(payload, sc); err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		for i := 0; i < n; i++ {
			if sc.a[i] != a[i] || sc.b[i] != b[i] {
				t.Fatalf("n=%d record %d drifted: got (%d,%d), want (%d,%d)",
					n, i, sc.a[i], sc.b[i], a[i], b[i])
			}
		}
		putPairScratch(sc)
	}
}

// TestEventChunkDecodeRejects: every malformed payload is a typed
// error, never a panic or a silent acceptance.
func TestEventChunkDecodeRejects(t *testing.T) {
	good := encodeEventChunk(nil, []uint8{0, 1, 0}, []uint32{4, 8, 12}, []uint32{1, 2, 3}, []uint32{9, 9, 9})
	cases := []struct {
		name    string
		payload []byte
		wantSub string
	}{
		{"empty", nil, "too short"},
		{"tag-only", []byte{chunkTagPacked}, "too short"},
		{"unknown-tag", []byte{9, 1, 0}, "unknown tag"},
		{"zero-count", []byte{chunkTagPacked, 0}, "want 1"},
		{"count-too-big", appendUvarint([]byte{chunkTagPacked}, chunkEvents+1), "want 1"},
		{"count-varint-overflow", []byte{chunkTagPacked, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, "bad count"},
		{"truncated-mid-columns", good[:len(good)-2], "truncated"},
		{"trailing-bytes", append(append([]byte{}, good...), 0), "trailing"},
		{"raw-short", []byte{chunkTagRaw, 2, 0, 1}, "2 events in"},
	}
	// A packed chunk whose kind runs claim more events than the count.
	overrun := appendUvarint([]byte{chunkTagPacked}, 2) // n = 2
	overrun = appendUvarint(overrun, 1)                 // 1 run
	overrun = append(overrun, 0)                        // kind
	overrun = appendUvarint(overrun, 3)                 // run length 3 > n
	cases = append(cases, struct {
		name    string
		payload []byte
		wantSub string
	}{"run-overrun", overrun, "bad run length"})
	// A structurally valid chunk with an undefined kind byte.
	badKind := encodeEventChunk(nil, []uint8{7}, []uint32{4}, []uint32{1}, []uint32{0})
	cases = append(cases, struct {
		name    string
		payload []byte
		wantSub string
	}{"bad-kind", badKind, "bad kind"})

	sc := getEventScratch()
	defer putEventScratch(sc)
	for _, tc := range cases {
		if _, err := decodeEventChunk(tc.payload, sc); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestAppendPackedChunkRejects mirrors the decode rejections at the
// Stream API the store uses, and proves a rejected payload leaves the
// stream unchanged.
func TestAppendPackedChunkRejects(t *testing.T) {
	s := NewStream()
	if err := s.AppendPackedChunk([]byte{chunkTagPacked}); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if s.Len() != 0 || len(s.chunks) != 0 {
		t.Fatalf("rejected payload mutated the stream: %d events, %d chunks", s.Len(), len(s.chunks))
	}
	good := encodeEventChunk(nil, []uint8{0, 1}, []uint32{4, 8}, []uint32{1, 2}, []uint32{5, 6})
	if err := s.AppendPackedChunk(good); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	if s.Len() != 2 || s.Loads() != 1 {
		t.Fatalf("appended chunk tallies: %d events, %d loads", s.Len(), s.Loads())
	}
}

// TestSealedReplayMatchesRaw records the same events into a sealed
// stream and one of raw chunks (appendRaw) and proves every replay
// surface agrees.
func TestSealedReplayMatchesRaw(t *testing.T) {
	comp, raw := NewStream(), NewStream()
	n := chunkEvents*2 + chunkEvents/3
	for i := 0; i < n; i++ {
		k := KindLoad
		if i%7 == 3 {
			k = KindStore
		}
		pc := uint32(i) * 4
		addr := uint32(i%4096) * 8
		val := uint32(i * i)
		comp.Append(k, pc, addr, val)
		appendRaw(raw, k, pc, addr, val)
	}
	comp.Seal()
	comp.CheckInvariants()
	raw.CheckInvariants()
	if comp.Len() != raw.Len() || comp.Loads() != raw.Loads() {
		t.Fatalf("tallies diverge: %d/%d vs %d/%d", comp.Len(), comp.Loads(), raw.Len(), raw.Loads())
	}
	if comp.Bytes() >= raw.Bytes() {
		t.Fatalf("sealed stream (%d bytes) not smaller than raw (%d)", comp.Bytes(), raw.Bytes())
	}
	if err := DiffStreams(comp, raw); err != nil {
		t.Fatalf("sealed and raw streams diverge: %v", err)
	}
}

// TestReplayAllocs: steady-state replay of a sealed stream must not
// allocate — chunk decode goes through the scratch pool.
func TestReplayAllocs(t *testing.T) {
	s := NewStream()
	for i := 0; i < chunkEvents*2; i++ {
		s.Append(KindLoad, uint32(i)*4, uint32(i)*8, uint32(i))
	}
	s.Seal()
	var sink uint64
	count := func(_, _, v uint32) { sink += uint64(v) }
	// Box the sink once: the measurement covers the replay/decode path,
	// not the caller's interface conversion.
	var snk Sink = SinkFuncs{OnLoad: count, OnStore: count}
	s.Replay(snk) // warm the pools
	// The race detector makes sync.Pool drop a share of Puts on purpose,
	// so pooled scratch is reallocated at random: both counts below hold
	// only in an uninstrumented build.
	if avg := testing.AllocsPerRun(10, func() { s.Replay(snk) }); avg != 0 && !raceEnabled {
		t.Errorf("replay allocates %.1f objects per run, want 0", avg)
	}

	is := NewIStream()
	for i := 0; i < chunkEvents*2; i++ {
		is.AppendInst(uint32(i), uint32(i)*4+4)
		is.AppendMem(uint32(i)*8, uint32(i))
	}
	is.Seal()
	walk := func() {
		cur := is.Cursor()
		for {
			if _, _, ok := cur.NextInst(); !ok {
				break
			}
			if _, _, ok := cur.NextMem(); !ok {
				break
			}
		}
		for {
			if _, _, ok := cur.NextMem(); !ok {
				break
			}
		}
	}
	walk() // warm the pools
	// The cursor itself is one allocation; the per-chunk decodes must be
	// free. Allow exactly that one object.
	if avg := testing.AllocsPerRun(10, walk); avg > 1 && !raceEnabled {
		t.Errorf("cursor walk allocates %.1f objects per run, want <= 1", avg)
	}
}

// BenchmarkReplay measures replay throughput over an 8-chunk sealed
// stream with committed-trace-like regularity (near-sequential pcs,
// strided addresses, low-entropy values); -benchmem must report 0
// allocs/op — the sealed path decodes through the scratch pool.
func BenchmarkReplay(b *testing.B) {
	b.Run("sealed", func(b *testing.B) {
		s := NewStream()
		for i := 0; i < chunkEvents*8; i++ {
			k := KindLoad
			if i%3 == 0 {
				k = KindStore
			}
			s.Append(k, uint32(i)*4, uint32((i*13)%65536)*4, uint32(i%257))
		}
		s.Seal()
		var acc uint64
		count := func(_, _, v uint32) { acc += uint64(v) }
		var snk Sink = SinkFuncs{OnLoad: count, OnStore: count}
		s.Replay(snk) // warm the pools
		b.SetBytes(int64(s.Len()) * eventBytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Replay(snk)
		}
	})
}

// TestRecordAllocs: encoding a chunk into a reused buffer allocates
// nothing — the sizing tables stay on the stack — and recording pays
// exactly two objects per sealed chunk: its header and its exact-size
// payload (the raw columns recycle through the scratch pool).
func TestRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool Puts, so pooled allocation counts are not exact")
	}
	kinds := make([]uint8, chunkEvents)
	pcs := make([]uint32, chunkEvents)
	addrs := make([]uint32, chunkEvents)
	values := make([]uint32, chunkEvents)
	for i := range kinds {
		kinds[i] = uint8(i % 3 / 2)
		pcs[i] = uint32(i%61) * 4
		addrs[i] = uint32((i*13)%65536) * 4
		values[i] = uint32(i % 257)
	}
	buf := encodeEventChunk(nil, kinds, pcs, addrs, values)
	if avg := testing.AllocsPerRun(5, func() { buf = encodeEventChunk(buf[:0], kinds, pcs, addrs, values) }); avg != 0 {
		t.Errorf("encodeEventChunk allocates %.1f objects per chunk, want 0", avg)
	}
	buf = encodePairChunk(buf[:0], pcs, addrs)
	if avg := testing.AllocsPerRun(5, func() { buf = encodePairChunk(buf[:0], pcs, addrs) }); avg != 0 {
		t.Errorf("encodePairChunk allocates %.1f objects per chunk, want 0", avg)
	}

	if check.Enabled {
		// Append's assertions box their arguments: about one object
		// per event.
		return
	}
	const runs = 4
	s := NewStream()
	// Room for every chunk up front, so the count is per chunk and not
	// the chunk list's amortized growth.
	s.chunks = make([]*chunk, 0, runs+3)
	fill := func() {
		for i := range kinds {
			s.Append(Kind(kinds[i]), pcs[i], addrs[i], values[i])
		}
	}
	// A collection empties the pools, and two in a row would make the
	// next chunk allocate fresh scratch; hold them off while counting.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fill()
	// Each run's first Append seals the chunk the run before filled and
	// starts a fresh one from the pooled scratch that seal released.
	if avg := testing.AllocsPerRun(runs, fill); avg != 2 {
		t.Errorf("recording allocates %.1f objects per sealed chunk, want 2", avg)
	}
}

// recordedChunks records each workload's memory stream at memSize and
// instruction stream at instSize and returns the raw columns of every
// event chunk and of every instruction- and memory-plane chunk: the
// encoder's real input.
func recordedChunks(tb testing.TB, abbrevs []string, memSize, instSize int) (events []eventScratch, pairs []pairScratch) {
	tb.Helper()
	for _, ab := range abbrevs {
		w, ok := workload.ByAbbrev(ab)
		if !ok {
			tb.Fatalf("no workload %q", ab)
		}
		s, err := RecordStream(w.Assemble(memSize), 0)
		if err != nil {
			tb.Fatalf("%s: %v", ab, err)
		}
		var sc *eventScratch
		for _, c := range s.chunks {
			kinds, pcs, addrs, values := c.columns(&sc)
			events = append(events, eventScratch{slices.Clone(kinds), slices.Clone(pcs), slices.Clone(addrs), slices.Clone(values)})
		}
		putEventScratch(sc)
		is, err := RecordIStream(w.Assemble(instSize), 0)
		if err != nil {
			tb.Fatalf("%s: %v", ab, err)
		}
		psc := getPairScratch()
		for _, c := range slices.Concat(is.ichunks, is.mchunks) {
			a, b := c.columns(psc)
			pairs = append(pairs, pairScratch{slices.Clone(a), slices.Clone(b)})
		}
		putPairScratch(psc)
	}
	return events, pairs
}

// BenchmarkEncode measures chunk encoding — sizing every column mode
// and writing the winner — over every chunk of four workloads'
// recordings, each op encoding the whole set into a reused buffer:
// event chunks of memory streams at the reference size, pair chunks of
// both instruction-stream planes at the timing size. -benchmem must
// report 0 allocs/op.
func BenchmarkEncode(b *testing.B) {
	events, pairs := recordedChunks(b, []string{"gcc", "swm", "li", "tom"},
		workload.ReferenceSize, workload.TimingSize)
	buf := make([]byte, 0, chunkEvents*eventBytes+16)
	var eventN, pairN int64
	for _, c := range events {
		eventN += int64(len(c.kinds))
	}
	for _, c := range pairs {
		pairN += int64(len(c.a))
	}
	for _, bc := range []struct {
		name   string
		bytes  int64
		encode func()
	}{
		{"event", eventN * eventBytes, func() {
			for _, c := range events {
				buf = encodeEventChunk(buf[:0], c.kinds, c.pcs, c.addrs, c.values)
			}
		}},
		{"pair", pairN * istreamEntryBytes, func() {
			for _, c := range pairs {
				buf = encodePairChunk(buf[:0], c.a, c.b)
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			// One untimed pass first. The runtime's background scavenger
			// wakes after the collection the framework runs before each
			// measurement, and its first timer on a processor allocates,
			// which -benchmem would count against the encoder.
			bc.encode()
			b.SetBytes(bc.bytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.encode()
			}
		})
	}
}

// modeEncoding is one candidate's column bytes, as its writer emits
// them.
type modeEncoding struct {
	mode byte
	enc  []byte
}

// writtenEncodings writes col under every applicable mode with the
// append functions themselves, in the documented comparison order:
// delta, xor, ctxStride, ctxStride+RLE, ctxLast, ctxLast+RLE, ctx2Last,
// ctx2Last+RLE, then raw.
func writtenEncodings(col, ctx1, ctx2 []uint32) []modeEncoding {
	encs := []modeEncoding{
		{colModeDelta, appendDeltaCol(nil, col)},
		{colModeXor, appendXorCol(nil, col)},
	}
	if ctx1 != nil {
		encs = append(encs,
			modeEncoding{colModeCtxStride, appendCtxCol(nil, ctx1, col, true, false)},
			modeEncoding{colModeCtxStride | colModeRLE0, appendCtxCol(nil, ctx1, col, true, true)},
			modeEncoding{colModeCtxLast, appendCtxCol(nil, ctx1, col, false, false)},
			modeEncoding{colModeCtxLast | colModeRLE0, appendCtxCol(nil, ctx1, col, false, true)})
	}
	if ctx2 != nil {
		encs = append(encs,
			modeEncoding{colModeCtx2Last, appendCtxCol(nil, ctx2, col, false, false)},
			modeEncoding{colModeCtx2Last | colModeRLE0, appendCtxCol(nil, ctx2, col, false, true)})
	}
	return append(encs, modeEncoding{colModeRaw, appendU32sLE(nil, col)})
}

// checkModeChoice holds appendModeCol to the writers: its output must
// be the mode byte followed by the first shortest written encoding (a
// later candidate must be strictly shorter), and sizeModes must have
// sized every candidate at exactly its written length.
func checkModeChoice(col, ctx1, ctx2 []uint32) error {
	encs := writtenEncodings(col, ctx1, ctx2)
	best := encs[0]
	written := map[byte]int{}
	for _, e := range encs {
		written[e.mode] = len(e.enc)
		if len(e.enc) < len(best.enc) {
			best = e
		}
	}
	for i, size := range sizeModes(col, ctx1, ctx2) {
		w, ok := written[candidates[i]]
		if !ok {
			w = noSize // no context column, no candidate
		}
		if size != w {
			return fmt.Errorf("sizeModes sized mode %#02x at %d bytes, its writer emits %d", candidates[i], size, w)
		}
	}
	want := append([]byte{best.mode}, best.enc...)
	if got := appendModeCol(nil, col, ctx1, ctx2); !bytes.Equal(got, want) {
		return fmt.Errorf("appendModeCol chose mode %#02x (%d bytes), the smallest encoding is mode %#02x (%d bytes)",
			got[0], len(got), want[0], len(want))
	}
	return nil
}

// checkEventModes applies checkModeChoice to an event chunk's three
// columns with the contexts encodeEventChunk gives them.
func checkEventModes(pcs, addrs, values []uint32) error {
	for _, c := range []struct {
		name            string
		col, ctx1, ctx2 []uint32
	}{
		{"pc", pcs, nil, nil},
		{"addr", addrs, pcs, nil},
		{"value", values, pcs, addrs},
	} {
		if err := checkModeChoice(c.col, c.ctx1, c.ctx2); err != nil {
			return fmt.Errorf("%s column: %w", c.name, err)
		}
	}
	return nil
}

// TestModeChoiceIsSmallestEncoding: every column the encoder writes is
// the first shortest of its real candidate encodings — measured by the
// writers' output, never by the sizer — on recorded chunks and on
// columns built to sit at the sizer's edges.
func TestModeChoiceIsSmallestEncoding(t *testing.T) {
	// Every 7-bit boundary of the varint length, up to 2^32-1.
	lens := []uint32{0, 1, math.MaxUint32}
	for shift := 7; shift < 32; shift += 7 {
		lens = append(lens, 1<<shift-1, 1<<shift)
	}
	for _, v := range lens {
		if got, want := uvarintLen(v), len(appendUvarint(nil, v)); got != want {
			t.Errorf("uvarintLen(%#x) = %d, want %d", v, got, want)
		}
	}

	events, pairs := recordedChunks(t, []string{"gcc", "li", "swm", "tom", "com", "apl"},
		workload.TimingSize, workload.TimingSize)
	for i, c := range events {
		if err := checkEventModes(c.pcs, c.addrs, c.values); err != nil {
			t.Errorf("event chunk %d: %v", i, err)
		}
	}
	for i, c := range pairs {
		if err := checkModeChoice(c.a, nil, nil); err != nil {
			t.Errorf("pair chunk %d, first column: %v", i, err)
		}
		if err := checkModeChoice(c.b, c.a, nil); err != nil {
			t.Errorf("pair chunk %d, second column: %v", i, err)
		}
	}
	t.Logf("%d recorded event chunks, %d pair chunks", len(events), len(pairs))

	const n = 4096
	seq := func(n int, f func(i int) uint32) []uint32 {
		col := make([]uint32, n)
		for i := range col {
			col[i] = f(i)
		}
		return col
	}
	twoPCs := seq(n, func(i int) uint32 { return 0x400 + uint32(i%2)*4 })
	var noise []uint32
	x := uint32(0x2545F491)
	for range n {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		noise = append(noise, x)
	}
	type modeCase struct {
		name            string
		col, ctx1, ctx2 []uint32
		wantMode        int // -1: any
	}
	cases := []modeCase{
		{"n=1", []uint32{7}, []uint32{4}, []uint32{8}, -1},
		// Every mode takes 4 bytes for the one value: raw ties and loses.
		{"n=1-ties-raw", []uint32{1 << 21}, nil, nil, colModeDelta},
		{"constant", seq(n, func(int) uint32 { return 0x1234 }), twoPCs, twoPCs, -1},
		{"wraparound-deltas", seq(n, func(i int) uint32 { return -uint32(i % 2) }), twoPCs, nil, -1},
		// xorshift noise: every predictor residual is full width.
		{"noise", noise, twoPCs, noise, colModeRaw},
		// Two instructions stride through arrays far apart with a +-1
		// jitter, so no residual is ever zero: plain ctxStride ties its
		// zero-run form and wins as the earlier candidate.
		{"ctx-stride", seq(n, func(i int) uint32 {
			j := uint32(1 - 2*(i/2%2))
			return uint32(i%2)<<30 + uint32(i/2)*64 + j
		}), twoPCs, nil, colModeCtxStride},
		// Each instruction repeats every value twice: ctxLast's zero runs
		// are all two long, so the run-coded form ties the plain one.
		{"runs-of-two", seq(n, func(i int) uint32 {
			return uint32(i%2)<<30 + uint32(i/4)*8
		}), twoPCs, nil, colModeCtxLast},
	}
	// Zero runs at the run-length varint's boundaries, left open at the
	// column's end and closed by a nonzero token.
	for _, run := range []int{127, 128, 16383, 16384} {
		cases = append(cases,
			modeCase{fmt.Sprintf("zero-run-%d-open", run), make([]uint32, run), make([]uint32, run), nil, -1},
			modeCase{fmt.Sprintf("zero-run-%d-closed", run), append(make([]uint32, run), 1), make([]uint32, run+1), nil, -1})
	}
	for _, tc := range cases {
		if err := checkModeChoice(tc.col, tc.ctx1, tc.ctx2); err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := appendModeCol(nil, tc.col, tc.ctx1, tc.ctx2)[0]; tc.wantMode >= 0 && got != byte(tc.wantMode) {
			t.Errorf("%s: chose mode %#02x, want %#02x", tc.name, got, tc.wantMode)
		}
	}
}

// FuzzChunkCodecRoundTrip drives both codecs from arbitrary bytes in
// two directions: structured columns must round-trip exactly, and raw
// fuzz bytes fed to the decoders must never panic and never decode to
// something that re-encodes differently (canonical-form check).
func FuzzChunkCodecRoundTrip(f *testing.F) {
	f.Add([]byte("codec-roundtrip-seed"))
	f.Add([]byte{0, 1, 2, 3, 0xff, 0xfe, 0x80, 0x7f})
	f.Add(encodeEventChunk(nil, []uint8{0, 1}, []uint32{4, 8}, []uint32{1, 2}, []uint32{5, 6}))
	f.Add(encodePairChunk(nil, []uint32{1, 2, 3}, []uint32{4, 4, 4}))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: build columns from the bytes, round-trip them.
		if len(data) >= 4 {
			n := min(len(data)/4, chunkEvents)
			kinds := make([]uint8, n)
			pcs := make([]uint32, n)
			addrs := make([]uint32, n)
			values := make([]uint32, n)
			for i := 0; i < n; i++ {
				kinds[i] = data[4*i] % 2
				pcs[i] = uint32(data[4*i+1]) << uint(data[4*i]%24)
				addrs[i] = uint32(data[4*i+2]) * uint32(data[4*i+3])
				values[i] = uint32(data[4*i+3]) << 8
			}
			payload := encodeEventChunk(nil, kinds, pcs, addrs, values)
			sc := getEventScratch()
			if _, err := decodeEventChunk(payload, sc); err != nil {
				t.Fatalf("canonical payload rejected: %v", err)
			}
			for i := 0; i < n; i++ {
				if sc.kinds[i] != kinds[i] || sc.pcs[i] != pcs[i] || sc.addrs[i] != addrs[i] || sc.values[i] != values[i] {
					t.Fatalf("event %d drifted", i)
				}
			}
			putEventScratch(sc)
			if err := checkEventModes(pcs, addrs, values); err != nil {
				t.Fatal(err)
			}

			pp := encodePairChunk(nil, pcs, addrs)
			psc := getPairScratch()
			if err := decodePairChunk(pp, psc); err != nil {
				t.Fatalf("canonical pair payload rejected: %v", err)
			}
			putPairScratch(psc)
		}

		// Direction 2: the decoders take the fuzz bytes as a payload.
		// They must never panic, and whatever they accept must
		// re-encode (canonically) to a payload that decodes back to the
		// identical columns — no accepted-but-unreproducible states.
		// Byte equality is not required here: a non-minimal varint
		// decodes fine but re-encodes minimally.
		sc := getEventScratch()
		if _, err := decodeEventChunk(data, sc); err == nil {
			re := encodeEventChunk(nil, sc.kinds, sc.pcs, sc.addrs, sc.values)
			sc2 := getEventScratch()
			if _, err := decodeEventChunk(re, sc2); err != nil {
				t.Fatalf("accepted event payload does not re-encode decodably: %v", err)
			}
			for i := range sc.kinds {
				if sc2.kinds[i] != sc.kinds[i] || sc2.pcs[i] != sc.pcs[i] || sc2.addrs[i] != sc.addrs[i] || sc2.values[i] != sc.values[i] {
					t.Fatalf("event payload round trip drifted at %d", i)
				}
			}
			putEventScratch(sc2)
		}
		putEventScratch(sc)
		psc := getPairScratch()
		if err := decodePairChunk(data, psc); err == nil {
			re := encodePairChunk(nil, psc.a, psc.b)
			psc2 := getPairScratch()
			if err := decodePairChunk(re, psc2); err != nil {
				t.Fatalf("accepted pair payload does not re-encode decodably: %v", err)
			}
			for i := range psc.a {
				if psc2.a[i] != psc.a[i] || psc2.b[i] != psc.b[i] {
					t.Fatalf("pair payload round trip drifted at %d", i)
				}
			}
			putPairScratch(psc2)
		}
		putPairScratch(psc)
	})
}
