package container

import "math/bits"

// U32Map is an open-addressed hash map keyed by uint32, tuned for the
// simulator's per-event hot paths on sparse keys (IDs' address
// numbering, a cache's resident blocks, per-address analyzer state).
// Compared to a built-in map it stores slots inline in one slice (one
// cache line per probe, no per-entry allocation) and hashes with a
// single multiply. Entries are never removed. The zero U32Map is not
// ready for use; construct with NewU32Map.
//
// Pointers returned by GetOrPut are valid only until the next insertion
// (the table may grow).
type U32Map[V any] struct {
	slots []slot[V]
	n     int
	shift uint8 // hash uses the top bits: index = (k*phi) >> shift
	limit int   // grow when n reaches limit (1/2 of len(slots))
}

type slot[V any] struct {
	key  uint32
	used bool
	val  V
}

// phi32 is 2^32 / golden ratio; Fibonacci hashing spreads word-aligned
// addresses (low bits always zero) evenly through the top index bits.
const phi32 = 2654435769

// NewU32Map returns a map sized for about hint entries.
func NewU32Map[V any](hint int) *U32Map[V] {
	size := 8
	for size/2 < hint {
		size <<= 1
	}
	return &U32Map[V]{
		slots: make([]slot[V], size),
		shift: uint8(32 - bits.TrailingZeros(uint(size))),
		limit: size / 2,
	}
}

// Len returns the number of entries.
func (m *U32Map[V]) Len() int { return m.n }

func (m *U32Map[V]) home(k uint32) uint32 { return (k * phi32) >> m.shift }

// find returns the slot index holding k, or the insertion slot and false.
func (m *U32Map[V]) find(k uint32) (uint32, bool) {
	slots := m.slots
	mask := uint32(len(slots) - 1)
	i := m.home(k)
	for {
		s := &slots[i&mask]
		if !s.used {
			return i & mask, false
		}
		if s.key == k {
			return i & mask, true
		}
		i++
	}
}

// GetOrPut returns a pointer to the value under k, inserting the zero
// value when absent. The pointer is valid only until the next insertion.
func (m *U32Map[V]) GetOrPut(k uint32) (v *V, inserted bool) {
	i, ok := m.find(k)
	if ok {
		return &m.slots[i].val, false
	}
	if m.n >= m.limit {
		m.rehash()
		i, _ = m.find(k)
	}
	m.slots[i] = slot[V]{key: k, used: true}
	m.n++
	return &m.slots[i].val, true
}

func (m *U32Map[V]) rehash() {
	old := m.slots
	size := len(old) * 2
	m.slots = make([]slot[V], size)
	m.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	m.limit = size / 2
	mask := uint32(size - 1)
	for idx := range old {
		if !old[idx].used {
			continue
		}
		i := m.home(old[idx].key)
		for m.slots[i].used {
			i = (i + 1) & mask
		}
		m.slots[i] = old[idx]
	}
}
