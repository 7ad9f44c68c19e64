package trace

import (
	"strings"
	"testing"
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
