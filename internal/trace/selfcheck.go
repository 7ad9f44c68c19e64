package trace

import (
	"fmt"

	"rarpred/internal/check"
)

// Self-checks for the trace layer (rarsim -check): structural invariants
// for Stream, and the stream-vs-live differential used by the
// experiment harness to prove a replayed recording matches what a fresh
// functional simulation would commit.

// CheckInvariants validates the stream's chunked layout: parallel slices
// stay in lockstep, raw interior chunks are exactly full (Append only
// ever grows the tail chunk; sealed chunks may be partial — Seal packs
// the tail wherever recording stopped, and later Appends start a fresh
// chunk after it), sealed payloads decode, kinds are well-formed, and
// the event/load tallies match the chunk contents. Panics with
// *check.Violation on the first breach.
func (s *Stream) CheckInvariants() {
	total := 0
	var loads uint64
	sc := getEventScratch()
	defer putEventScratch(sc)
	sealedSeen := false
	for ci, c := range s.chunks {
		if c.packed != nil {
			sealedSeen = true
			chunkLoads, err := decodeEventChunk(c.packed, sc)
			if err != nil {
				check.Failf("stream.chunk", "sealed chunk %d does not decode: %v", ci, err)
			}
			if len(sc.kinds) != c.n {
				check.Failf("stream.chunk", "sealed chunk %d decodes to %d events, header says %d",
					ci, len(sc.kinds), c.n)
			}
			total += c.n
			loads += uint64(chunkLoads)
			continue
		}
		n := len(c.kinds)
		if len(c.pcs) != n || len(c.addrs) != n || len(c.values) != n {
			check.Failf("stream.chunk", "chunk %d: ragged slices (%d kinds, %d pcs, %d addrs, %d values)",
				ci, n, len(c.pcs), len(c.addrs), len(c.values))
		}
		if n == 0 || n > chunkEvents {
			check.Failf("stream.chunk", "chunk %d holds %d events, want 1..%d", ci, n, chunkEvents)
		}
		if !sealedSeen && ci < len(s.chunks)-1 && n != chunkEvents {
			check.Failf("stream.chunk", "interior chunk %d holds %d events, want exactly %d",
				ci, n, chunkEvents)
		}
		for i, k := range c.kinds {
			switch Kind(k) {
			case KindLoad:
				loads++
			case KindStore:
			default:
				check.Failf("stream.kind", "chunk %d event %d: bad kind %d", ci, i, k)
			}
		}
		total += n
	}
	if total != s.n {
		check.Failf("stream.counts", "chunks hold %d events, stream says %d", total, s.n)
	}
	if loads != s.loads {
		check.Failf("stream.counts", "chunks hold %d loads, stream says %d", loads, s.loads)
	}
}

// checkPairChunks validates one IStream plane for CheckInvariants and
// returns its record total.
func checkPairChunks(plane string, chunks []*pairChunk) uint64 {
	var total uint64
	sc := getPairScratch()
	defer putPairScratch(sc)
	sealedSeen := false
	for ci, c := range chunks {
		if c.packed != nil {
			sealedSeen = true
			if err := decodePairChunk(c.packed, sc); err != nil {
				check.Failf("istream.chunk", "sealed %s chunk %d does not decode: %v", plane, ci, err)
			}
			if len(sc.a) != c.n {
				check.Failf("istream.chunk", "sealed %s chunk %d decodes to %d records, header says %d",
					plane, ci, len(sc.a), c.n)
			}
			total += uint64(c.n)
			continue
		}
		n := len(c.a)
		if len(c.b) != n {
			check.Failf("istream.chunk", "%s chunk %d: ragged slices (%d, %d)", plane, ci, n, len(c.b))
		}
		if n == 0 || n > chunkEvents {
			check.Failf("istream.chunk", "%s chunk %d holds %d records, want 1..%d", plane, ci, n, chunkEvents)
		}
		if !sealedSeen && ci < len(chunks)-1 && n != chunkEvents {
			check.Failf("istream.chunk", "interior %s chunk %d holds %d records, want exactly %d",
				plane, ci, n, chunkEvents)
		}
		total += uint64(n)
	}
	return total
}

// CheckInvariants validates the instruction stream's chunked layout
// under the same rules as Stream's (raw interior chunks exactly full,
// sealed chunks decodable, tallies consistent). Panics with
// *check.Violation on the first breach.
func (s *IStream) CheckInvariants() {
	if insts := checkPairChunks("inst", s.ichunks); insts != s.n {
		check.Failf("istream.counts", "inst chunks hold %d records, stream says %d", insts, s.n)
	}
	if mems := checkPairChunks("mem", s.mchunks); mems != s.mems {
		check.Failf("istream.counts", "mem chunks hold %d records, stream says %d", mems, s.mems)
	}
}

// streamWalker iterates a stream's events one at a time regardless of
// chunk boundaries or sealing, decoding sealed chunks through a pooled
// scratch. DiffStreams needs this because two recordings of the same
// events may split them across chunks differently (a Sealed partial
// chunk followed by fresh appends vs one straight run).
type streamWalker struct {
	s  *Stream
	sc *eventScratch
	ci int
	i  int

	kinds  []uint8
	pcs    []uint32
	addrs  []uint32
	values []uint32
}

func newStreamWalker(s *Stream) *streamWalker {
	return &streamWalker{s: s, ci: -1}
}

// next returns the walker's next event, or ok=false at the end.
func (w *streamWalker) next() (kind uint8, pc, addr, value uint32, ok bool) {
	for w.i >= len(w.kinds) {
		w.ci++
		if w.ci >= len(w.s.chunks) {
			return 0, 0, 0, 0, false
		}
		if w.sc == nil {
			w.sc = getEventScratch()
		}
		w.kinds, w.pcs, w.addrs, w.values = w.s.chunks[w.ci].columns(&w.sc)
		w.i = 0
	}
	i := w.i
	w.i++
	return w.kinds[i], w.pcs[i], w.addrs[i], w.values[i], true
}

func (w *streamWalker) close() {
	if w.sc != nil {
		putEventScratch(w.sc)
		w.sc = nil
	}
}

// DiffStreams compares two streams event-by-event (and over their
// execution profiles) and returns a descriptive error at the first
// divergence, or nil when they are identical. The harness uses it as the
// replay-vs-live oracle: a served stream must be bit-identical to a
// fresh baseline recording of the same workload. Chunk boundaries and
// sealing state are not part of stream identity — only the events are.
func DiffStreams(got, want *Stream) error {
	if got.n != want.n || got.loads != want.loads {
		return fmt.Errorf("stream size: got %d events (%d loads), want %d (%d)",
			got.n, got.loads, want.n, want.loads)
	}
	if got.Truncated != want.Truncated {
		return fmt.Errorf("truncation: got %v, want %v", got.Truncated, want.Truncated)
	}
	if got.Counts != want.Counts {
		return fmt.Errorf("execution profile: got %+v, want %+v", got.Counts, want.Counts)
	}
	gw, ww := newStreamWalker(got), newStreamWalker(want)
	defer gw.close()
	defer ww.close()
	for i := 0; ; i++ {
		gk, gpc, ga, gv, gok := gw.next()
		wk, wpc, wa, wv, wok := ww.next()
		if !gok || !wok {
			if gok != wok {
				return fmt.Errorf("event %d: streams claim equal size but diverge in length", i)
			}
			return nil
		}
		if gk != wk || gpc != wpc || ga != wa || gv != wv {
			return fmt.Errorf("event %d: got {kind:%d pc:%#x addr:%#x val:%#x}, want {kind:%d pc:%#x addr:%#x val:%#x}",
				i, gk, gpc, ga, gv, wk, wpc, wa, wv)
		}
	}
}
