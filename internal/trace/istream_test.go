package trace

import (
	"context"
	"errors"
	"testing"

	"rarpred/internal/funcsim"
	"rarpred/internal/runerr"
	"rarpred/internal/workload"
)

// TestIStreamAppendCursor crosses a chunk boundary in both planes and
// proves the cursor walk returns exactly what was appended.
func TestIStreamAppendCursor(t *testing.T) {
	s := NewIStream()
	const n = chunkEvents + chunkEvents/2
	for i := 0; i < n; i++ {
		s.AppendInst(uint32(i), uint32(i)*4+4)
		if i%2 == 0 {
			s.AppendMem(uint32(i)*8, ^uint32(i))
		}
	}
	if s.Len() != n {
		t.Fatalf("Len() = %d, want %d", s.Len(), n)
	}
	if want := uint64((n + 1) / 2); s.MemEvents() != want {
		t.Fatalf("MemEvents() = %d, want %d", s.MemEvents(), want)
	}
	// 2 instruction chunks + 1 memory chunk. Raw chunks are charged at
	// full capacity; the first instruction chunk sealed (compressed) on
	// rollover, shrinking the resident total.
	if want := int64(s.n+s.mems) * istreamEntryBytes; s.RawBytes() != want {
		t.Errorf("RawBytes() = %d, want %d", s.RawBytes(), want)
	}
	if full := int64(3) * chunkEvents * istreamEntryBytes; s.Bytes() >= full {
		t.Errorf("Bytes() = %d, want < %d (sealed chunk should compress)", s.Bytes(), full)
	}
	s.CheckInvariants()

	cur := s.Cursor()
	for i := 0; i < n; i++ {
		idx, next, ok := cur.NextInst()
		if !ok || idx != uint32(i) || next != uint32(i)*4+4 {
			t.Fatalf("inst %d: got (%d, %d, %v)", i, idx, next, ok)
		}
		if i%2 == 0 {
			addr, value, ok := cur.NextMem()
			if !ok || addr != uint32(i)*8 || value != ^uint32(i) {
				t.Fatalf("mem %d: got (%d, %d, %v)", i, addr, value, ok)
			}
		}
	}
	if _, _, ok := cur.NextInst(); ok {
		t.Error("cursor returned an instruction past the end")
	}
	if _, _, ok := cur.NextMem(); ok {
		t.Error("cursor returned a memory event past the end")
	}
}

// TestICursorReadsInSteps: ReadInsts and ReadMems, in steps that do not
// divide a chunk, copy exactly the records NextInst and NextMem yield,
// across chunk boundaries, and fall short only at the end of a plane.
func TestICursorReadsInSteps(t *testing.T) {
	s := NewIStream()
	const n = 2*chunkEvents + 123
	for i := 0; i < n; i++ {
		s.AppendInst(uint32(i), uint32(i)*4+4)
		if i%3 == 0 {
			s.AppendMem(uint32(i)*8, ^uint32(i))
		}
	}
	s.Seal()
	for _, step := range []int{1, 1000, chunkEvents + 7} {
		ref, cur := s.Cursor(), s.Cursor()
		a, b := make([]uint32, step), make([]uint32, step)
		for _, plane := range []struct {
			name string
			read func(a, b []uint32) int
			next func() (uint32, uint32, bool)
			want uint64
		}{
			{"inst", cur.ReadInsts, ref.NextInst, s.Len()},
			{"mem", cur.ReadMems, ref.NextMem, s.MemEvents()},
		} {
			var total uint64
			for {
				got := plane.read(a, b)
				total += uint64(got)
				for k := 0; k < got; k++ {
					x, y, ok := plane.next()
					if !ok || x != a[k] || y != b[k] {
						t.Fatalf("step %d %s record %d: read (%d, %d), next (%d, %d, %v)",
							step, plane.name, total-uint64(got)+uint64(k), a[k], b[k], x, y, ok)
					}
				}
				if got < step {
					break
				}
			}
			if total != plane.want {
				t.Errorf("step %d: read %d %s records, want %d", step, total, plane.name, plane.want)
			}
			if _, _, ok := plane.next(); ok {
				t.Errorf("step %d: reference %s cursor not at the end", step, plane.name)
			}
			if got := plane.read(a, b); got != 0 {
				t.Errorf("step %d: %d %s records read past the end", step, got, plane.name)
			}
		}
	}
}

// TestRecordIStreamMatchesBaseline proves the predecoded fast recorder
// and the page-walking baseline recorder produce identical streams.
func TestRecordIStreamMatchesBaseline(t *testing.T) {
	w, ok := workload.ByAbbrev("gcc")
	if !ok {
		t.Fatal("unknown workload gcc")
	}
	fast, err := RecordIStream(w.Assemble(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RecordIStreamBaselineContext(context.Background(), w.Assemble(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Len() != base.Len() || fast.MemEvents() != base.MemEvents() {
		t.Fatalf("fast %d insts/%d mems, baseline %d/%d",
			fast.Len(), fast.MemEvents(), base.Len(), base.MemEvents())
	}
	if fast.Counts != base.Counts {
		t.Fatalf("counts diverge: %+v vs %+v", fast.Counts, base.Counts)
	}
	fc, bc := fast.Cursor(), base.Cursor()
	for i := uint64(0); i < fast.Len(); i++ {
		fi, fn, _ := fc.NextInst()
		bi, bn, _ := bc.NextInst()
		if fi != bi || fn != bn {
			t.Fatalf("inst %d: fast (%d,%d), baseline (%d,%d)", i, fi, fn, bi, bn)
		}
	}
	for i := uint64(0); i < fast.MemEvents(); i++ {
		fa, fv, _ := fc.NextMem()
		ba, bv, _ := bc.NextMem()
		if fa != ba || fv != bv {
			t.Fatalf("mem %d: fast (%d,%d), baseline (%d,%d)", i, fa, fv, ba, bv)
		}
	}
	if err := fast.Validate(); err != nil {
		t.Errorf("fast stream fails validation: %v", err)
	}
	if err := base.Validate(); err != nil {
		t.Errorf("baseline stream fails validation: %v", err)
	}
}

// TestRecordIStreamCrossValidatesStream checks the timing recording
// against the independent memory-trace recorder: same program, same
// committed memory events in the same order.
func TestRecordIStreamCrossValidatesStream(t *testing.T) {
	w, ok := workload.ByAbbrev("tom")
	if !ok {
		t.Fatal("unknown workload tom")
	}
	prog := w.Assemble(3)
	is, err := RecordIStream(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := RecordStream(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if is.MemEvents() != uint64(ms.Len()) {
		t.Fatalf("istream has %d memory events, stream has %d", is.MemEvents(), ms.Len())
	}
	cur := is.Cursor()
	var i uint64
	var fail error
	check := func(_, addr, value uint32) {
		if fail != nil {
			return
		}
		a, v, ok := cur.NextMem()
		if !ok || a != addr || v != value {
			fail = errors.New("diverged")
			t.Errorf("mem %d: istream (%d,%d,%v), stream (%d,%d)", i, a, v, ok, addr, value)
		}
		i++
	}
	ms.Replay(SinkFuncs{OnLoad: check, OnStore: check})
}

// TestIStreamValidateCatchesCorruption covers both tally mismatches the
// degradation path relies on.
func TestIStreamValidateCatchesCorruption(t *testing.T) {
	w, ok := workload.ByAbbrev("gcc")
	if !ok {
		t.Fatal("unknown workload gcc")
	}
	is, err := RecordIStream(w.Assemble(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := is.Validate(); err != nil {
		t.Fatalf("clean stream fails validation: %v", err)
	}
	is.AppendMem(0, 0) // spurious memory record
	if err := is.Validate(); !errors.Is(err, runerr.ErrTraceCorrupt) {
		t.Errorf("Validate() = %v, want runerr.ErrTraceCorrupt", err)
	}
	is2, err := RecordIStream(w.Assemble(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	is2.AppendInst(0, 4) // spurious instruction record
	if err := is2.Validate(); !errors.Is(err, runerr.ErrTraceCorrupt) {
		t.Errorf("Validate() = %v, want runerr.ErrTraceCorrupt", err)
	}
}

// TestRecordIStreamTruncation: an instruction budget marks the stream
// truncated rather than failing.
func TestRecordIStreamTruncation(t *testing.T) {
	w, ok := workload.ByAbbrev("gcc")
	if !ok {
		t.Fatal("unknown workload gcc")
	}
	is, err := RecordIStream(w.Assemble(3), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !is.Truncated {
		t.Error("stream not marked truncated")
	}
	if is.Len() != 1000 {
		t.Errorf("Len() = %d, want 1000", is.Len())
	}
}

// TestRecordIStreamInterrupt: cancellation surfaces as a context error.
func TestRecordIStreamInterrupt(t *testing.T) {
	w, ok := workload.ByAbbrev("gcc")
	if !ok {
		t.Fatal("unknown workload gcc")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RecordIStreamContext(ctx, w.Assemble(3), 0, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// FuzzIStreamRoundTrip builds an instruction stream from arbitrary
// bytes, checks the chunk invariants, and proves the cursor walk
// reproduces every appended record in order.
func FuzzIStreamRoundTrip(f *testing.F) {
	f.Add([]byte("istream-roundtrip"))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0x80, 0x40, 0x20, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewIStream()
		type inst struct{ idx, next uint32 }
		type mem struct{ addr, value uint32 }
		var insts []inst
		var mems []mem
		var loads uint64
		for i := 0; i+2 < len(data); i += 3 {
			in := inst{uint32(data[i]), uint32(data[i+1]) * 4}
			s.AppendInst(in.idx, in.next)
			insts = append(insts, in)
			if data[i+2]&1 == 1 {
				m := mem{uint32(data[i+2]) << 2, ^uint32(i)}
				s.AppendMem(m.addr, m.value)
				mems = append(mems, m)
				if data[i+2]&2 == 2 {
					loads++
				}
			}
		}
		s.Counts = funcsim.Counts{
			Insts:  uint64(len(insts)),
			Loads:  loads,
			Stores: uint64(len(mems)) - loads,
		}
		s.CheckInvariants()
		if err := s.Validate(); err != nil {
			t.Fatalf("consistent stream fails validation: %v", err)
		}
		if s.Len() != uint64(len(insts)) || s.MemEvents() != uint64(len(mems)) {
			t.Fatalf("Len/MemEvents = %d/%d, want %d/%d",
				s.Len(), s.MemEvents(), len(insts), len(mems))
		}
		cur := s.Cursor()
		for i, in := range insts {
			idx, next, ok := cur.NextInst()
			if !ok || idx != in.idx || next != in.next {
				t.Fatalf("inst %d: got (%d,%d,%v), want %+v", i, idx, next, ok, in)
			}
		}
		if _, _, ok := cur.NextInst(); ok {
			t.Fatal("instruction past the end")
		}
		for i, m := range mems {
			addr, value, ok := cur.NextMem()
			if !ok || addr != m.addr || value != m.value {
				t.Fatalf("mem %d: got (%d,%d,%v), want %+v", i, addr, value, ok, m)
			}
		}
		if _, _, ok := cur.NextMem(); ok {
			t.Fatal("memory event past the end")
		}

		// A desynchronised tally must not validate.
		s.AppendInst(0, 0)
		if err := s.Validate(); err == nil {
			t.Fatal("stream with extra instruction validated")
		}
	})
}
