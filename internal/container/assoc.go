// Package container provides the small hardware-table containers shared
// by the predictors and caches: a set-associative LRU table, a
// fully-associative LRU table, an open-addressed uint32 map, and the
// dense key numbering (IDs) and doubling growth (Grow) behind the
// directly indexed tables.
package container

// Assoc is a set-associative, LRU-replaced table keyed by uint32, used to
// model finite PC- and synonym-indexed hardware structures. Construct
// with NewAssoc; sets <= 0 selects an unbounded table, which models
// "infinite" configurations in accuracy studies.
//
// An unbounded table is a slice indexed directly by key, grown by
// doubling (Grow): its keys must be dense (pc>>2, synonyms), and a key
// past DenseLimit panics. Values live inline, so in unbounded mode a
// pointer obtained from Get, Peek or GetOrInsert is valid only until the
// next GetOrInsert of a key beyond the table (it may grow); callers that
// must hold a pointer across insertions bracket them with Reserve.
// Bounded tables never move entries, but an entry may be evicted and
// reused by any later GetOrInsert. A bounded table fills a set's ways in
// order and never empties one, so its valid ways are a prefix of the
// set and a lookup stops at the first invalid way.
type Assoc[V any] struct {
	sets, ways int
	lines      []line[V]
	clock      uint64

	// dense holds an unbounded table's entries, indexed by key; n counts
	// the valid ones.
	dense []denseLine[V]
	n     int
}

type line[V any] struct {
	key   uint32
	valid bool
	lru   uint64 // last-touch stamp; larger is more recent
	val   V
}

type denseLine[V any] struct {
	valid bool
	val   V
}

// NewAssoc returns a table with the given geometry. Pass sets <= 0 for an
// unbounded table; ways < 1 is treated as 1. sets is rounded up to a
// power of two so the index is a mask.
func NewAssoc[V any](sets, ways int) *Assoc[V] {
	if sets <= 0 {
		return &Assoc[V]{}
	}
	if ways < 1 {
		ways = 1
	}
	p := 1
	for p < sets {
		p <<= 1
	}
	return &Assoc[V]{sets: p, ways: ways, lines: make([]line[V], p*ways)}
}

// Capacity returns the number of entries the table can hold, or 0 for
// unbounded tables.
func (t *Assoc[V]) Capacity() int { return t.sets * t.ways }

// Sets returns the (rounded) set count, 0 for unbounded tables.
func (t *Assoc[V]) Sets() int { return t.sets }

// Ways returns the associativity, 0 for unbounded tables.
func (t *Assoc[V]) Ways() int { return t.ways }

func (t *Assoc[V]) set(key uint32) []line[V] {
	i := int(key) & (t.sets - 1)
	return t.lines[i*t.ways : (i+1)*t.ways]
}

// densePtr returns an unbounded table's value under key, or nil.
func (t *Assoc[V]) densePtr(key uint32) *V {
	if int(key) < len(t.dense) && t.dense[key].valid {
		return &t.dense[key].val
	}
	return nil
}

// Get returns the value stored under key, or nil. A hit refreshes the
// entry's recency.
func (t *Assoc[V]) Get(key uint32) *V {
	if t.sets == 0 {
		return t.densePtr(key)
	}
	l := t.find(key)
	if l == nil {
		return nil
	}
	t.clock++
	l.lru = t.clock
	return &l.val
}

// find returns a bounded table's line holding key, or nil.
func (t *Assoc[V]) find(key uint32) *line[V] {
	set := t.set(key)
	for i := range set {
		if !set[i].valid {
			break
		}
		if set[i].key == key {
			return &set[i]
		}
	}
	return nil
}

// Peek returns the value under key without refreshing recency.
func (t *Assoc[V]) Peek(key uint32) *V {
	if t.sets == 0 {
		return t.densePtr(key)
	}
	if l := t.find(key); l != nil {
		return &l.val
	}
	return nil
}

// GetOrInsert returns the value under key, allocating (and evicting the
// set's LRU entry if necessary) when absent. inserted reports whether a
// new entry was created; a new entry starts at the zero value of V.
func (t *Assoc[V]) GetOrInsert(key uint32) (v *V, inserted bool) {
	if t.sets == 0 {
		t.dense = Grow(t.dense, key)
		l := &t.dense[key]
		if !l.valid {
			l.valid = true
			t.n++
			inserted = true
		}
		return &l.val, inserted
	}
	// The new entry takes the set's first invalid way, or else its LRU
	// way.
	set := t.set(key)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].key == key {
			t.clock++
			set[i].lru = t.clock
			return &set[i].val, false
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	t.clock++
	set[victim] = line[V]{key: key, valid: true, lru: t.clock}
	return &set[victim].val, true
}

// Reserve ensures that GetOrInsert calls on keys up to maxKey cannot
// move entries, so pointers obtained before them stay valid. It is a
// no-op on bounded tables, whose entries never move.
func (t *Assoc[V]) Reserve(maxKey uint32) {
	if t.sets == 0 {
		t.dense = Grow(t.dense, maxKey)
	}
}

// ForEach visits every valid entry without touching recency. Iteration
// order is unspecified.
func (t *Assoc[V]) ForEach(f func(key uint32, v *V)) {
	if t.sets == 0 {
		for k := range t.dense {
			if t.dense[k].valid {
				f(uint32(k), &t.dense[k].val)
			}
		}
		return
	}
	for i := range t.lines {
		if t.lines[i].valid {
			f(t.lines[i].key, &t.lines[i].val)
		}
	}
}

// Len returns the number of valid entries.
func (t *Assoc[V]) Len() int {
	if t.sets == 0 {
		return t.n
	}
	n := 0
	for i := range t.lines {
		if t.lines[i].valid {
			n++
		}
	}
	return n
}
