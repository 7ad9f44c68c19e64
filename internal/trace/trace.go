// Package trace implements trace-driven simulation support: the
// committed load/store stream of a program can be recorded once, saved
// in a compact binary format, and replayed into any number of analyzers
// (cloaking engines, locality analyzers, value predictors) without
// re-executing the program — the standard methodology for sweeping many
// predictor configurations over one execution.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"rarpred/internal/funcsim"
	"rarpred/internal/isa"
)

// Kind tags an event.
type Kind uint8

const (
	// KindLoad is a committed load.
	KindLoad Kind = iota
	// KindStore is a committed store.
	KindStore
)

// Event is one committed memory access.
type Event struct {
	Kind  Kind
	PC    uint32
	Addr  uint32
	Value uint32
}

// Trace is a recorded access stream.
type Trace struct {
	Events []Event

	// Insts is the total dynamic instruction count of the traced run
	// (loads and stores plus everything else), kept so fractions over
	// all instructions remain computable from a trace alone.
	Insts uint64
}

// Record executes prog functionally (up to maxInsts; 0 = to completion)
// and returns its memory trace.
func Record(prog *isa.Program, maxInsts uint64) (*Trace, error) {
	tr := &Trace{}
	s := funcsim.New(prog)
	s.OnLoad = func(e funcsim.MemEvent) {
		tr.Events = append(tr.Events, Event{Kind: KindLoad, PC: e.PC, Addr: e.Addr, Value: e.Value})
	}
	s.OnStore = func(e funcsim.MemEvent) {
		tr.Events = append(tr.Events, Event{Kind: KindStore, PC: e.PC, Addr: e.Addr, Value: e.Value})
	}
	if err := s.Run(maxInsts); err != nil && err != funcsim.ErrMaxInsts {
		return nil, err
	}
	tr.Insts = s.Counts.Insts
	return tr, nil
}

// Sink consumes a replayed access stream a decoded chunk at a time (see
// Stream.Replay for the order). SinkFuncs adapts per-event callbacks; a
// sink that walks the columns itself, like cloak.Bank, can run one
// structure over the whole chunk before the next.
type Sink interface {
	// WalkChunk receives one chunk's events in recorded order as
	// parallel columns: event i is a Kind(kinds[i]) access by the
	// instruction at pcs[i] to addrs[i] that read or wrote values[i].
	// The columns are valid only until WalkChunk returns.
	WalkChunk(kinds []uint8, pcs, addrs, values []uint32)
}

// Loads returns the number of load events.
func (t *Trace) Loads() int {
	n := 0
	for _, e := range t.Events {
		if e.Kind == KindLoad {
			n++
		}
	}
	return n
}

// magic identifies the file format; the version byte guards layout
// changes.
var magic = [4]byte{'R', 'A', 'R', 1}

// Save writes the trace in the binary format (little endian, 13 bytes
// per event).
func (t *Trace) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], t.Insts)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(t.Events)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [13]byte
	for _, e := range t.Events {
		rec[0] = byte(e.Kind)
		binary.LittleEndian.PutUint32(rec[1:], e.PC)
		binary.LittleEndian.PutUint32(rec[5:], e.Addr)
		binary.LittleEndian.PutUint32(rec[9:], e.Value)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a trace written by Save.
func Load(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("trace: bad magic %v", m)
	}
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	t := &Trace{Insts: binary.LittleEndian.Uint64(hdr[0:])}
	n := binary.LittleEndian.Uint64(hdr[8:])
	const maxEvents = 1 << 31 // sanity bound against corrupt headers
	if n > maxEvents {
		return nil, fmt.Errorf("trace: implausible event count %d", n)
	}
	t.Events = make([]Event, n)
	var rec [13]byte
	for i := range t.Events {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: event %d: %w", i, err)
		}
		if rec[0] > byte(KindStore) {
			return nil, fmt.Errorf("trace: event %d: bad kind %d", i, rec[0])
		}
		t.Events[i] = Event{
			Kind:  Kind(rec[0]),
			PC:    binary.LittleEndian.Uint32(rec[1:]),
			Addr:  binary.LittleEndian.Uint32(rec[5:]),
			Value: binary.LittleEndian.Uint32(rec[9:]),
		}
	}
	return t, nil
}
