package trace

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Chunk compression: sealed chunks hold a columnar varint encoding of
// their columns instead of the raw struct-of-arrays slices. Each u32
// column carries a one-byte mode chosen canonically by the encoder
// (smallest encoding wins, ties broken by lowest mode id):
//
//	0 delta      zigzag varints of v - prev (chain starts at 0)
//	1 xor        varints of v ^ prev (repeats collapse to one byte)
//	2 ctxStride  zigzag varints of v - (last + stride), both keyed by a
//	             1024-entry table indexed with the primary context
//	             column — the same per-instruction stride locality the
//	             paper's address predictors exploit
//	3 ctxLast    zigzag varints of v - last[ctx] (per-context value
//	             repeats collapse to one byte)
//	4 raw        n × 4-byte LE words
//	5 ctx2Last   like ctxLast but keyed by the secondary context (the
//	             addr column for values: the memory-state model — a
//	             load from an unwritten address repeats its last value)
//
// Modes 2/3/5 may carry the 0x80 flag: zero-residual runs are
// run-length coded (a zero token is followed by the run length), which
// takes well-predicted columns below one byte per event.
//
// Context-keyed modes are only legal where a context column exists:
// the event chunk's addr column is keyed by pcs, its value column by
// pcs or addrs, and a pair chunk's b column by its a column (contexts
// always decode first). Predictor tables reset at every chunk boundary
// so chunks decode independently. Replay decodes one chunk at a time
// into a pooled scratch buffer, so steady-state replay allocates
// nothing and touches at most one decoded chunk per consumer.
//
// Event-chunk payload (Stream; little endian varints = LEB128):
//
//	tag u8 (1 = packed, 0 = raw fallback)
//	packed: uvarint n
//	        uvarint runs; runs × { kind u8, uvarint runLength }
//	        3 × { mode u8, column bytes } for pc, addr, value
//	raw:    uvarint n, n kind bytes, then n×4-byte LE pc/addr/value planes
//
// Pair-chunk payload (IStream instruction and memory planes):
//
//	tag u8 (1 = packed, 0 = raw fallback)
//	packed: uvarint n, 2 × { mode u8, column bytes } (context-free modes)
//	raw:    uvarint n, n×4-byte LE a plane, n×4-byte LE b plane
//
// The encoder emits the raw fallback only when the packed form would be
// no smaller, so encoding is deterministic (the store's load-time
// re-encode oracle depends on that).

const (
	chunkTagRaw    = 0
	chunkTagPacked = 1
)

// Column encoding modes. Context-keyed modes predict each value from a
// table indexed by another, already-decoded column of the same chunk
// (the "context"): per-PC stride prediction for addresses, per-PC or
// per-address last-value prediction for values, per-instruction
// next-PC prediction for the IStream plane. The colModeRLE0 flag marks
// a residual stream whose zero runs are run-length coded (a zero token
// is followed by the run length), which takes well-predicted columns
// below one byte per event.
const (
	colModeDelta     = 0 // zigzag varints of v - prev
	colModeXor       = 1 // varints of v ^ prev
	colModeCtxStride = 2 // residual vs last+stride keyed by primary context
	colModeCtxLast   = 3 // residual vs last value keyed by primary context
	colModeRaw       = 4 // n × 4-byte LE words
	colModeCtx2Last  = 5 // residual vs last value keyed by secondary context

	colModeRLE0 = 0x80 // flag: zero-residual runs are run-length coded
)

// predSize is the context-keyed predictor table length (per chunk,
// reset at chunk boundaries). PCs and addresses are word aligned, so
// the index drops the low two bits before masking.
const (
	predSize = 1024
	predMask = predSize - 1
)

func predIdx(ctx uint32) uint32 { return (ctx >> 2) & predMask }

// eventScratch is one chunk's worth of raw event columns. It backs both
// a recording stream's tail chunk and a replay's decode buffer, so
// sealing a chunk recycles its arrays into the same pool replay draws
// from.
type eventScratch struct {
	kinds  []uint8
	pcs    []uint32
	addrs  []uint32
	values []uint32
}

var eventScratchPool = sync.Pool{New: func() any {
	return &eventScratch{
		kinds:  make([]uint8, 0, chunkEvents),
		pcs:    make([]uint32, 0, chunkEvents),
		addrs:  make([]uint32, 0, chunkEvents),
		values: make([]uint32, 0, chunkEvents),
	}
}}

func getEventScratch() *eventScratch { return eventScratchPool.Get().(*eventScratch) }
func putEventScratch(sc *eventScratch) {
	sc.kinds, sc.pcs, sc.addrs, sc.values = sc.kinds[:0], sc.pcs[:0], sc.addrs[:0], sc.values[:0]
	eventScratchPool.Put(sc)
}

// pairScratch is one chunk's worth of two-column records (the IStream
// instruction and memory planes share the shape).
type pairScratch struct {
	a []uint32
	b []uint32
}

var pairScratchPool = sync.Pool{New: func() any {
	return &pairScratch{
		a: make([]uint32, 0, chunkEvents),
		b: make([]uint32, 0, chunkEvents),
	}
}}

func getPairScratch() *pairScratch { return pairScratchPool.Get().(*pairScratch) }
func putPairScratch(sc *pairScratch) {
	sc.a, sc.b = sc.a[:0], sc.b[:0]
	pairScratchPool.Put(sc)
}

// packBufPool holds reusable encode buffers; the sealed chunk keeps an
// exact-size copy so resident bytes carry no slack capacity.
var packBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, chunkEvents*eventBytes)
	return &b
}}

func zigzag(d uint32) uint32   { return (d << 1) ^ uint32(int32(d)>>31) }
func unzigzag(z uint32) uint32 { return (z >> 1) ^ uint32(int32(z<<31)>>31) }

func appendUvarint(dst []byte, v uint32) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// readUvarint decodes one varint at p[off:], returning the value and the
// next offset, or ok=false on truncation or overflow past 32 bits.
func readUvarint(p []byte, off int) (v uint32, next int, ok bool) {
	var x uint64
	var shift uint
	for i := off; i < len(p); i++ {
		b := p[i]
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			if x > 1<<32-1 {
				return 0, 0, false
			}
			return uint32(x), i + 1, true
		}
		shift += 7
		if shift > 35 {
			return 0, 0, false
		}
	}
	return 0, 0, false
}

// appendDeltaCol appends col as a chain of zigzag-varint deltas starting
// from 0.
func appendDeltaCol(dst []byte, col []uint32) []byte {
	prev := uint32(0)
	for _, v := range col {
		dst = appendUvarint(dst, zigzag(v-prev))
		prev = v
	}
	return dst
}

// decodeDeltaCol reverses appendDeltaCol into out[:n], returning the new
// offset. This is replay's hot loop: the common case — a small delta in
// a single varint byte — is decoded inline, and only multi-byte varints
// take the general readUvarint path.
func decodeDeltaCol(p []byte, off, n int, out []uint32) (int, bool) {
	prev := uint32(0)
	i := 0
	for i < n {
		// Bulk path: four single-byte varints at a time, detected with
		// one word load (no byte has its continuation bit set).
		for i+4 <= n && off+4 <= len(p) {
			w := binary.LittleEndian.Uint32(p[off:])
			if w&0x80808080 != 0 {
				break
			}
			z0, z1, z2, z3 := w&0x7f, (w>>8)&0x7f, (w>>16)&0x7f, (w>>24)&0x7f
			prev += (z0 >> 1) ^ -(z0 & 1)
			out[i] = prev
			prev += (z1 >> 1) ^ -(z1 & 1)
			out[i+1] = prev
			prev += (z2 >> 1) ^ -(z2 & 1)
			out[i+2] = prev
			prev += (z3 >> 1) ^ -(z3 & 1)
			out[i+3] = prev
			off += 4
			i += 4
		}
		if i >= n {
			break
		}
		if off >= len(p) {
			return 0, false
		}
		if b := p[off]; b < 0x80 {
			z := uint32(b)
			prev += (z >> 1) ^ -(z & 1)
			out[i] = prev
			off++
			i++
			continue
		}
		z, next, ok := readUvarint(p, off)
		if !ok {
			return 0, false
		}
		prev += unzigzag(z)
		out[i] = prev
		off = next
		i++
	}
	return off, true
}

// appendXorCol appends col as varints of each value xored with its
// predecessor (chain starts at 0): repeated values cost one byte.
func appendXorCol(dst []byte, col []uint32) []byte {
	prev := uint32(0)
	for _, v := range col {
		dst = appendUvarint(dst, v^prev)
		prev = v
	}
	return dst
}

// decodeXorCol reverses appendXorCol into out[:n].
func decodeXorCol(p []byte, off, n int, out []uint32) (int, bool) {
	prev := uint32(0)
	for i := 0; i < n; i++ {
		if off >= len(p) {
			return 0, false
		}
		if b := p[off]; b < 0x80 {
			prev ^= uint32(b)
			out[i] = prev
			off++
			continue
		}
		z, next, ok := readUvarint(p, off)
		if !ok {
			return 0, false
		}
		prev ^= z
		out[i] = prev
		off = next
	}
	return off, true
}

// appendCtxCol appends col as zigzag-varint residuals against a
// context-keyed predictor: last value per context slot, optionally plus
// the last observed stride. Tables start zeroed, so the first touch of
// a slot pays the full value and steady-state loop bodies pay one byte
// — or, with rle0, a share of one run-length token. Zero runs are
// emitted greedily (maximal), so the encoding is canonical.
func appendCtxCol(dst []byte, ctx, col []uint32, withStride, rle0 bool) []byte {
	var last, stride [predSize]uint32
	zrun := uint32(0)
	for i, v := range col {
		idx := predIdx(ctx[i])
		pred := last[idx]
		if withStride {
			pred += stride[idx]
			stride[idx] = v - last[idx]
		}
		z := zigzag(v - pred)
		last[idx] = v
		if rle0 {
			if z == 0 {
				zrun++
				continue
			}
			if zrun > 0 {
				dst = append(dst, 0)
				dst = appendUvarint(dst, zrun)
				zrun = 0
			}
		}
		dst = appendUvarint(dst, z)
	}
	if zrun > 0 {
		dst = append(dst, 0)
		dst = appendUvarint(dst, zrun)
	}
	return dst
}

// decodeCtxCol reverses appendCtxCol into out[:n]; ctx must already
// hold the chunk's decoded context column.
func decodeCtxCol(p []byte, off, n int, ctx, out []uint32, withStride, rle0 bool) (int, bool) {
	var last, stride [predSize]uint32
	zrun := 0
	for i := 0; i < n; i++ {
		var z uint32
		if zrun > 0 {
			zrun--
		} else {
			if off >= len(p) {
				return 0, false
			}
			if b := p[off]; b < 0x80 {
				z = uint32(b)
				off++
			} else {
				v, next, ok := readUvarint(p, off)
				if !ok {
					return 0, false
				}
				z = v
				off = next
			}
			if rle0 && z == 0 {
				rl, next, ok := readUvarint(p, off)
				if !ok || rl == 0 || int(rl) > n-i {
					return 0, false
				}
				zrun = int(rl) - 1
				off = next
			}
		}
		idx := predIdx(ctx[i])
		pred := last[idx]
		if withStride {
			pred += stride[idx]
		}
		v := pred + unzigzag(z)
		if withStride {
			stride[idx] = v - last[idx]
		}
		last[idx] = v
		out[i] = v
	}
	return off, true
}

func decodeRawCol(p []byte, off, n int, out []uint32) (int, bool) {
	if off+4*n > len(p) || off+4*n < 0 {
		return 0, false
	}
	for i := 0; i < n; i++ {
		out[i] = binary.LittleEndian.Uint32(p[off+4*i:])
	}
	return off + 4*n, true
}

func sizeDeltaCol(col []uint32) int {
	size, prev := 0, uint32(0)
	for _, v := range col {
		size += uvarintLen(zigzag(v - prev))
		prev = v
	}
	return size
}

func sizeXorCol(col []uint32) int {
	size, prev := 0, uint32(0)
	for _, v := range col {
		size += uvarintLen(v ^ prev)
		prev = v
	}
	return size
}

// sizeCtxCol returns the encoded size of col under a context-keyed
// predictor, both as plain varint tokens and with zero runs
// run-length coded.
func sizeCtxCol(ctx, col []uint32, withStride bool) (plain, rle int) {
	var last, stride [predSize]uint32
	zrun := uint32(0)
	for i, v := range col {
		idx := predIdx(ctx[i])
		pred := last[idx]
		if withStride {
			pred += stride[idx]
			stride[idx] = v - last[idx]
		}
		z := zigzag(v - pred)
		last[idx] = v
		plain += uvarintLen(z)
		if z == 0 {
			zrun++
			continue
		}
		if zrun > 0 {
			rle += 1 + uvarintLen(zrun)
			zrun = 0
		}
		rle += uvarintLen(z)
	}
	if zrun > 0 {
		rle += 1 + uvarintLen(zrun)
	}
	return plain, rle
}

// appendModeCol sizes every applicable mode for col, picks the
// smallest (earlier candidate wins ties — the canonical choice the
// store's re-encode oracle depends on), and appends mode byte + column
// bytes. ctx1 is the primary prediction context (the pc column for
// event-chunk addr/value columns, the a column for a pair chunk's b
// column) and ctx2 the secondary one (the addr column for the value
// column: per-address last value is the memory-state model). nil
// contexts restrict the choice to context-free modes.
func appendModeCol(dst []byte, col, ctx1, ctx2 []uint32) []byte {
	mode, best := byte(colModeDelta), sizeDeltaCol(col)
	if s := sizeXorCol(col); s < best {
		mode, best = colModeXor, s
	}
	if ctx1 != nil {
		plain, rle := sizeCtxCol(ctx1, col, true)
		if plain < best {
			mode, best = colModeCtxStride, plain
		}
		if rle < best {
			mode, best = colModeCtxStride|colModeRLE0, rle
		}
		plain, rle = sizeCtxCol(ctx1, col, false)
		if plain < best {
			mode, best = colModeCtxLast, plain
		}
		if rle < best {
			mode, best = colModeCtxLast|colModeRLE0, rle
		}
	}
	if ctx2 != nil {
		plain, rle := sizeCtxCol(ctx2, col, false)
		if plain < best {
			mode, best = colModeCtx2Last, plain
		}
		if rle < best {
			mode, best = colModeCtx2Last|colModeRLE0, rle
		}
	}
	if s := 4 * len(col); s < best {
		mode = colModeRaw
	}
	dst = append(dst, mode)
	rle0 := mode&colModeRLE0 != 0
	switch mode &^ colModeRLE0 {
	case colModeDelta:
		dst = appendDeltaCol(dst, col)
	case colModeXor:
		dst = appendXorCol(dst, col)
	case colModeCtxStride:
		dst = appendCtxCol(dst, ctx1, col, true, rle0)
	case colModeCtxLast:
		dst = appendCtxCol(dst, ctx1, col, false, rle0)
	case colModeCtx2Last:
		dst = appendCtxCol(dst, ctx2, col, false, rle0)
	case colModeRaw:
		dst = appendU32sLE(dst, col)
	}
	return dst
}

// decodeModeCol decodes one mode-prefixed column into out[:n]. ctx1
// and ctx2 are the prediction contexts for context-keyed modes; nil
// rejects them (the pc column itself has none).
func decodeModeCol(p []byte, off, n int, ctx1, ctx2, out []uint32) (int, bool) {
	if off >= len(p) {
		return 0, false
	}
	mode := p[off]
	off++
	rle0 := mode&colModeRLE0 != 0
	switch mode &^ colModeRLE0 {
	case colModeDelta:
		if rle0 {
			return 0, false
		}
		return decodeDeltaCol(p, off, n, out)
	case colModeXor:
		if rle0 {
			return 0, false
		}
		return decodeXorCol(p, off, n, out)
	case colModeCtxStride:
		if ctx1 == nil {
			return 0, false
		}
		return decodeCtxCol(p, off, n, ctx1, out, true, rle0)
	case colModeCtxLast:
		if ctx1 == nil {
			return 0, false
		}
		return decodeCtxCol(p, off, n, ctx1, out, false, rle0)
	case colModeCtx2Last:
		if ctx2 == nil {
			return 0, false
		}
		return decodeCtxCol(p, off, n, ctx2, out, false, rle0)
	case colModeRaw:
		if rle0 {
			return 0, false
		}
		return decodeRawCol(p, off, n, out)
	}
	return 0, false
}

func appendU32sLE(dst []byte, src []uint32) []byte {
	for _, v := range src {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

// encodeEventChunk appends the canonical payload for one Stream chunk:
// packed when that is smaller, the raw fallback otherwise.
func encodeEventChunk(dst []byte, kinds []uint8, pcs, addrs, values []uint32) []byte {
	n := len(kinds)
	base := len(dst)
	dst = append(dst, chunkTagPacked)
	dst = appendUvarint(dst, uint32(n))
	// Kinds run-length encoded: committed streams alternate in long runs.
	runs := 0
	for i := 0; i < n; {
		runs++
		j := i + 1
		for j < n && kinds[j] == kinds[i] {
			j++
		}
		i = j
	}
	dst = appendUvarint(dst, uint32(runs))
	for i := 0; i < n; {
		j := i + 1
		for j < n && kinds[j] == kinds[i] {
			j++
		}
		dst = append(dst, kinds[i])
		dst = appendUvarint(dst, uint32(j-i))
		i = j
	}
	dst = appendModeCol(dst, pcs, nil, nil)
	dst = appendModeCol(dst, addrs, pcs, nil)
	dst = appendModeCol(dst, values, pcs, addrs)
	if rawSize := rawEventPayloadSize(n); len(dst)-base >= rawSize {
		dst = dst[:base]
		dst = append(dst, chunkTagRaw)
		dst = appendUvarint(dst, uint32(n))
		dst = append(dst, kinds...)
		dst = appendU32sLE(dst, pcs)
		dst = appendU32sLE(dst, addrs)
		dst = appendU32sLE(dst, values)
	}
	return dst
}

func rawEventPayloadSize(n int) int {
	return 1 + uvarintLen(uint32(n)) + n*eventBytes
}

func uvarintLen(v uint32) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// decodeEventChunk reverses encodeEventChunk into sc's columns,
// validating the payload end to end (every structural surprise is an
// error, never a panic: the store feeds untrusted bytes through here).
// It returns the number of load events for tally accounting.
func decodeEventChunk(payload []byte, sc *eventScratch) (loads int, err error) {
	if len(payload) < 2 {
		return 0, fmt.Errorf("event chunk payload too short (%d bytes)", len(payload))
	}
	tag := payload[0]
	n32, off, ok := readUvarint(payload, 1)
	if !ok {
		return 0, fmt.Errorf("event chunk: bad count varint")
	}
	n := int(n32)
	if n == 0 || n > chunkEvents {
		return 0, fmt.Errorf("event chunk holds %d events, want 1..%d", n, chunkEvents)
	}
	sc.kinds = sc.kinds[:n]
	sc.pcs = sc.pcs[:n]
	sc.addrs = sc.addrs[:n]
	sc.values = sc.values[:n]
	switch tag {
	case chunkTagRaw:
		if len(payload)-off != n*eventBytes {
			return 0, fmt.Errorf("raw event chunk: %d events in %d payload bytes", n, len(payload))
		}
		copy(sc.kinds, payload[off:off+n])
		off += n
		for i := 0; i < n; i++ {
			sc.pcs[i] = binary.LittleEndian.Uint32(payload[off+4*i:])
		}
		off += 4 * n
		for i := 0; i < n; i++ {
			sc.addrs[i] = binary.LittleEndian.Uint32(payload[off+4*i:])
		}
		off += 4 * n
		for i := 0; i < n; i++ {
			sc.values[i] = binary.LittleEndian.Uint32(payload[off+4*i:])
		}
		off += 4 * n
	case chunkTagPacked:
		runs, o, ok := readUvarint(payload, off)
		if !ok || runs == 0 || int(runs) > n {
			return 0, fmt.Errorf("packed event chunk: bad run count")
		}
		off = o
		filled := 0
		for r := uint32(0); r < runs; r++ {
			if off >= len(payload) {
				return 0, fmt.Errorf("packed event chunk: truncated in kind runs")
			}
			k := payload[off]
			rl, o, ok := readUvarint(payload, off+1)
			if !ok || rl == 0 || filled+int(rl) > n {
				return 0, fmt.Errorf("packed event chunk: bad run length")
			}
			off = o
			// Fill the run by doubling copies (memmove beats a byte loop
			// on the long runs committed streams produce).
			ks := sc.kinds[filled : filled+int(rl)]
			ks[0] = k
			for j := 1; j < len(ks); j *= 2 {
				copy(ks[j:], ks[:j])
			}
			filled += int(rl)
		}
		if filled != n {
			return 0, fmt.Errorf("packed event chunk: kind runs cover %d of %d events", filled, n)
		}
		if off, ok = decodeModeCol(payload, off, n, nil, nil, sc.pcs); !ok {
			return 0, fmt.Errorf("packed event chunk: truncated or invalid pc column")
		}
		if off, ok = decodeModeCol(payload, off, n, sc.pcs, nil, sc.addrs); !ok {
			return 0, fmt.Errorf("packed event chunk: truncated or invalid addr column")
		}
		if off, ok = decodeModeCol(payload, off, n, sc.pcs, sc.addrs, sc.values); !ok {
			return 0, fmt.Errorf("packed event chunk: truncated or invalid value column")
		}
		if off != len(payload) {
			return 0, fmt.Errorf("packed event chunk: %d trailing bytes", len(payload)-off)
		}
	default:
		return 0, fmt.Errorf("event chunk: unknown tag %d", tag)
	}
	if tag == chunkTagRaw && off != len(payload) {
		return 0, fmt.Errorf("raw event chunk: %d trailing bytes", len(payload)-off)
	}
	for i, k := range sc.kinds {
		switch Kind(k) {
		case KindLoad:
			loads++
		case KindStore:
		default:
			return 0, fmt.Errorf("event chunk: event %d has bad kind %d", i, k)
		}
	}
	return loads, nil
}

// encodePairChunk appends the canonical payload for one two-column
// chunk (an IStream instruction or memory plane block).
func encodePairChunk(dst []byte, a, b []uint32) []byte {
	n := len(a)
	base := len(dst)
	dst = append(dst, chunkTagPacked)
	dst = appendUvarint(dst, uint32(n))
	dst = appendModeCol(dst, a, nil, nil)
	dst = appendModeCol(dst, b, a, nil)
	if rawSize := 1 + uvarintLen(uint32(n)) + n*istreamEntryBytes; len(dst)-base >= rawSize {
		dst = dst[:base]
		dst = append(dst, chunkTagRaw)
		dst = appendUvarint(dst, uint32(n))
		dst = appendU32sLE(dst, a)
		dst = appendU32sLE(dst, b)
	}
	return dst
}

// decodePairChunk reverses encodePairChunk into sc's columns, validating
// the payload end to end.
func decodePairChunk(payload []byte, sc *pairScratch) error {
	if len(payload) < 2 {
		return fmt.Errorf("pair chunk payload too short (%d bytes)", len(payload))
	}
	tag := payload[0]
	n32, off, ok := readUvarint(payload, 1)
	if !ok {
		return fmt.Errorf("pair chunk: bad count varint")
	}
	n := int(n32)
	if n == 0 || n > chunkEvents {
		return fmt.Errorf("pair chunk holds %d records, want 1..%d", n, chunkEvents)
	}
	sc.a = sc.a[:n]
	sc.b = sc.b[:n]
	switch tag {
	case chunkTagRaw:
		if len(payload)-off != n*istreamEntryBytes {
			return fmt.Errorf("raw pair chunk: %d records in %d payload bytes", n, len(payload))
		}
		for i := 0; i < n; i++ {
			sc.a[i] = binary.LittleEndian.Uint32(payload[off+4*i:])
		}
		off += 4 * n
		for i := 0; i < n; i++ {
			sc.b[i] = binary.LittleEndian.Uint32(payload[off+4*i:])
		}
		off += 4 * n
		if off != len(payload) {
			return fmt.Errorf("raw pair chunk: %d trailing bytes", len(payload)-off)
		}
	case chunkTagPacked:
		if off, ok = decodeModeCol(payload, off, n, nil, nil, sc.a); !ok {
			return fmt.Errorf("packed pair chunk: truncated or invalid first column")
		}
		if off, ok = decodeModeCol(payload, off, n, sc.a, nil, sc.b); !ok {
			return fmt.Errorf("packed pair chunk: truncated or invalid second column")
		}
		if off != len(payload) {
			return fmt.Errorf("packed pair chunk: %d trailing bytes", len(payload)-off)
		}
	default:
		return fmt.Errorf("pair chunk: unknown tag %d", tag)
	}
	return nil
}

// packExact encodes via enc into a pooled buffer and returns an
// exact-size copy, so the long-lived packed bytes carry no slack.
func packExact(enc func(dst []byte) []byte) []byte {
	bp := packBufPool.Get().(*[]byte)
	buf := enc((*bp)[:0])
	packed := make([]byte, len(buf))
	copy(packed, buf)
	*bp = buf[:0]
	packBufPool.Put(bp)
	return packed
}
