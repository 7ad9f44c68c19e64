package trace

import "rarpred/internal/container"

// AddrIDs is a Sink that numbers a stream's addresses densely in
// first-touch order (container.IDs) and hands its sinks each chunk with
// the address column replaced by those ids: one map probe per event,
// after which a sink indexes flat arrays by id instead of hashing. The
// numbering is a bijection, so a sink that compares addresses only for
// equality, as every DDT, DDT sweep, locality analyzer and engine bank
// does, computes exactly what it would from the addresses. One AddrIDs
// numbers one stream; replaying that stream through it again reuses the
// ids it assigned.
type AddrIDs struct {
	ids   *container.IDs
	col   []uint32 // the id column, reused for every chunk
	sinks []Sink
}

// NewAddrIDs returns a sink that forwards every chunk, with ids in
// place of addresses, to sinks in argument order.
func NewAddrIDs(sinks ...Sink) *AddrIDs {
	return &AddrIDs{ids: container.NewIDs(), sinks: sinks}
}

// WalkChunk implements Sink.
func (a *AddrIDs) WalkChunk(kinds []uint8, pcs, addrs, values []uint32) {
	n := len(kinds)
	if cap(a.col) < n {
		a.col = make([]uint32, n)
	}
	col := a.col[:n]
	for j, addr := range addrs[:n] {
		col[j] = a.ids.ID(addr)
	}
	for _, s := range a.sinks {
		s.WalkChunk(kinds, pcs, col, values)
	}
}
