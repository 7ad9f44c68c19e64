package container

import "math/bits"

// U32Map is an open-addressed hash map keyed by uint32, tuned for the
// simulator's per-event hot paths on sparse keys (IDs' address
// numbering, a cache's resident blocks, per-address analyzer state).
// Compared to a built-in map it stores slots inline in one slice (one
// cache line per probe, no per-entry allocation), hashes with a single
// multiply, and deletes by backward shifting so the table never
// accumulates tombstones. The zero U32Map is not ready for use;
// construct with NewU32Map.
//
// Pointers returned by GetOrPut are valid only until the next insertion
// (the table may grow); Delete moves surviving entries, so pointers do
// not survive deletions either.
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

// Ptr returns a pointer to the value under k, or nil. Like GetOrPut
// pointers, it is valid only until the next insertion or deletion.
func (m *U32Map[V]) Ptr(k uint32) *V {
	i, ok := m.find(k)
	if !ok {
		return nil
	}
	return &m.slots[i].val
}

// GetOrPut returns a pointer to the value under k, inserting the zero
// value when absent. The pointer is valid only until the next insertion
// or deletion.
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

// Delete removes k, reporting whether it was present. Entries displaced
// by the deleted one are shifted back so probes stay tombstone-free.
func (m *U32Map[V]) Delete(k uint32) bool {
	i, ok := m.find(k)
	if !ok {
		return false
	}
	m.n--
	slots := m.slots
	mask := uint32(len(slots) - 1)
	j := i
	for {
		slots[i&mask] = slot[V]{}
		for {
			j = (j + 1) & mask
			s := &slots[j&mask]
			if !s.used {
				return true
			}
			// The entry at j can back-fill slot i only if i lies between
			// its home slot and j (cyclically); otherwise it would become
			// unreachable from its home.
			if (j-m.home(s.key))&mask >= (j-i)&mask {
				slots[i&mask] = *s
				i = j
				break
			}
		}
	}
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
