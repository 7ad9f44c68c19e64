package container

import "fmt"

// DenseLimit bounds the keys of the directly indexed tables: Assoc's
// unbounded mode, LRU, and the id-indexed arrays of the dependence
// detectors. Their real keys are small: a PC shifted right by two (text
// starts at 0), a synonym from a counter, a first-touch address id
// (IDs). A key at the limit is a raw address or PC passed where a dense
// key belongs, and growing a table to cover it would allocate GiBs, so
// Grow panics instead.
const DenseLimit = 1 << 24

// Grow returns s extended, by doubling, to cover index k; new elements
// are zero and existing ones keep their values (the backing array may
// move, so pointers into s do not survive). It panics with a message
// naming k when k is at or past DenseLimit.
func Grow[V any](s []V, k uint32) []V {
	if int(k) < len(s) {
		return s
	}
	return grow(s, k)
}

// grow is Grow's slow path, kept apart so that Grow inlines.
func grow[V any](s []V, k uint32) []V {
	if k >= DenseLimit {
		panic(fmt.Sprintf("container: dense key %#x is past the limit %#x: pass a dense key (pc>>2, a synonym or an address id), not a raw address",
			k, DenseLimit))
	}
	n := max(len(s), 8)
	for n <= int(k) {
		n *= 2
	}
	grown := make([]V, n)
	copy(grown, s)
	return grown
}

// IDs numbers uint32 keys densely in first-touch order: the first key
// it sees gets id 0, the next new one 1, and so on. The numbering is a
// bijection onto [0, Len()), so a structure that compares keys only for
// equality computes the same results from the ids, and can index flat
// arrays by them (Grow) instead of hashing.
type IDs struct {
	m *U32Map[uint32]
}

// NewIDs returns an empty numbering.
func NewIDs() *IDs { return &IDs{m: NewU32Map[uint32](0)} }

// ID returns k's id, assigning the next one on first touch.
func (x *IDs) ID(k uint32) uint32 {
	id, inserted := x.m.GetOrPut(k)
	if inserted {
		*id = uint32(x.m.Len() - 1)
	}
	return *id
}

// Len returns the number of keys numbered so far.
func (x *IDs) Len() int { return x.m.Len() }
