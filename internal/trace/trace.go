// Package trace implements trace-driven simulation support: the
// committed load/store stream of a program can be recorded once and
// replayed into any number of analyzers (cloaking engines, locality
// analyzers, value predictors) without re-executing the program — the
// standard methodology for sweeping many predictor configurations over
// one execution. A recording's one file format is the artifact store's
// (internal/store), built from the packed chunks this package encodes.
package trace

// Kind tags an event.
type Kind uint8

const (
	// KindLoad is a committed load.
	KindLoad Kind = iota
	// KindStore is a committed store.
	KindStore
)

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
