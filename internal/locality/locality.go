// Package locality implements the dependence-stream analyses of the
// paper: RAR memory dependence locality (Section 2, Figure 2), address
// locality (Section 5.4, Figure 7a) and value locality (Section 5.5,
// Figure 7b).
package locality

import (
	"math/bits"

	"rarpred/internal/cloak"
	"rarpred/internal/container"
)

// MaxDepth is the deepest locality rank tracked (the paper plots n = 1..4).
const MaxDepth = 4

// RARLocality measures memory-dependence-locality(n): the probability
// that a sink load's current RAR dependence was among the last n unique
// RAR dependences experienced by previous executions of the same static
// load (Section 2).
//
// Detection runs against an address window of the given size: a table
// tracking the most recent windowSize unique addresses accessed (by loads
// and stores); windowSize 0 models the infinite window of Figure 2(a).
type RARLocality struct {
	window *cloak.DDT
	rarSinks
}

// rarSinks is the sink-load bookkeeping of one address window.
type rarSinks struct {
	// history holds each static sink load's MRU-ordered list of unique
	// RAR source PCs, deepest MaxDepth, indexed by pc>>2 (text starts at
	// 0, so the index is below the program length).
	history []depHistory

	hits  [MaxDepth]uint64 // hits[i]: dependence found at MRU rank i
	total uint64           // dynamic sink loads (executions with a RAR dependence)
}

// depHistory is a fixed-depth MRU list of source PCs: the rank search
// and move-to-front stay in one cache line with no slice allocation.
type depHistory struct {
	n   int32
	pcs [MaxDepth]uint32
}

// NewRARLocality returns an analyzer with the given address-window size
// (0 = infinite). Its Store and Load take raw addresses.
func NewRARLocality(windowSize int) *RARLocality {
	return &RARLocality{window: cloak.NewDDT(windowSize, true)}
}

// Store feeds one committed store.
func (l *RARLocality) Store(pc, addr uint32) { l.window.Store(addr, pc) }

// Load feeds one committed load.
func (l *RARLocality) Load(pc, addr uint32) {
	if dep, ok := l.window.Load(addr, pc); ok && dep.Kind == cloak.DepRAR {
		l.observe(pc, dep.SourcePC)
	}
}

// SinkLoads returns the number of dynamic sink loads observed.
func (l *RARLocality) SinkLoads() uint64 { return l.total }

// Locality returns memory-dependence-locality(n) for n in 1..MaxDepth:
// the fraction of sink loads whose dependence was within the last n
// unique dependences. It returns 0 when no sink loads were observed.
func (l *RARLocality) Locality(n int) float64 { return l.locality(n) }

// observe records one execution of the sink load at pc whose RAR source
// is src.
func (s *rarSinks) observe(pc, src uint32) {
	s.total++
	k := pc >> 2
	s.history = container.Grow(s.history, k)
	hist := &s.history[k]
	rank := int32(-1)
	for i := int32(0); i < hist.n; i++ {
		if hist.pcs[i] == src {
			rank = i
			break
		}
	}
	if rank >= 0 {
		s.hits[rank]++
	}
	// Move-to-front update of the unique-dependence history: shift the
	// entries above the hit (or the whole list, dropping the LRU) down
	// one slot and write the source at the front.
	top := rank
	if top < 0 {
		top = hist.n
		if top >= MaxDepth {
			top = MaxDepth - 1
		} else {
			hist.n = top + 1
		}
	}
	copy(hist.pcs[1:top+1], hist.pcs[:top])
	hist.pcs[0] = src
}

func (s *rarSinks) locality(n int) float64 {
	if s.total == 0 {
		return 0
	}
	if n > MaxDepth {
		n = MaxDepth
	}
	var h uint64
	for i := 0; i < n; i++ {
		h += s.hits[i]
	}
	return float64(h) / float64(s.total)
}

// RARLocalitySweep is RARLocality over several address windows in one
// pass: one cloak.DDTSweep detects at every window size, and each window
// keeps its own sink histories.
type RARLocalitySweep struct {
	windows *cloak.DDTSweep
	sinks   []rarSinks
}

// NewRARLocalitySweep returns an analyzer over the given address-window
// sizes: strictly ascending, optionally ending in 0 (infinite), as
// cloak.NewDDTSweep requires. Window index w refers to windowSizes[w].
// Like the sweep, its Store and Load take address ids (trace.AddrIDs).
func NewRARLocalitySweep(windowSizes ...int) *RARLocalitySweep {
	return &RARLocalitySweep{
		windows: cloak.NewDDTSweep(windowSizes...),
		sinks:   make([]rarSinks, len(windowSizes)),
	}
}

// Store feeds one committed store to address id.
func (l *RARLocalitySweep) Store(pc, id uint32) { l.windows.Store(id, pc) }

// Load feeds one committed load of address id.
func (l *RARLocalitySweep) Load(pc, id uint32) {
	_, rar := l.windows.Load(id, pc)
	for m := rar; m != 0; m &= m - 1 {
		w := bits.TrailingZeros32(m)
		l.sinks[w].observe(pc, l.windows.Source(w))
	}
}

// SinkLoads returns the number of dynamic sink loads observed under
// window index w.
func (l *RARLocalitySweep) SinkLoads(w int) uint64 { return l.sinks[w].total }

// Locality returns memory-dependence-locality(n) under window index w,
// as RARLocality.Locality does for a single window.
func (l *RARLocalitySweep) Locality(w, n int) float64 { return l.sinks[w].locality(n) }

// LastMap tracks, per static load PC, the last observed word (an address
// or a value) and reports whether consecutive executions repeat it. It
// implements both address locality and value locality. Words are only
// compared for equality, so an address id serves as well as the
// address.
type LastMap struct {
	last    []lastWord // by pc>>2
	observe uint64
	same    uint64
}

// lastWord is one static load's previous word, once it has one.
type lastWord struct {
	word uint32
	seen bool
}

// NewLastMap returns an empty tracker.
func NewLastMap() *LastMap { return &LastMap{} }

// Observe records one execution of the static load at pc with the given
// word, and reports whether the word equals the previous execution's.
// The first execution of a load reports false.
func (m *LastMap) Observe(pc, word uint32) bool {
	m.observe++
	k := pc >> 2
	m.last = container.Grow(m.last, k)
	l := &m.last[k]
	repeat := l.seen && l.word == word
	*l = lastWord{word: word, seen: true}
	if repeat {
		m.same++
	}
	return repeat
}

// Fraction returns the fraction of observations that repeated the
// previous word (the paper's "locality" metric, over all loads).
func (m *LastMap) Fraction() float64 {
	if m.observe == 0 {
		return 0
	}
	return float64(m.same) / float64(m.observe)
}

// Counts returns (observations, repeats).
func (m *LastMap) Counts() (uint64, uint64) { return m.observe, m.same }
