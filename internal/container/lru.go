package container

// LRU is a fully-associative table with least-recently-used replacement,
// keyed by small dense uint32 keys (the value predictor's pc>>2): it
// indexes its entries directly by key, grown by doubling (Grow), so a
// key past DenseLimit panics. It models the paper's fully-associative
// value predictor. Construct with NewLRU; capacity 0 means unbounded.
type LRU[V any] struct {
	capacity   int
	entries    []*lruNode[V] // by key; nil = not resident
	n          int           // resident entries
	head, tail *lruNode[V]   // head = most recently used
	evictions  uint64

	// OnEvict, when non-nil, is called with each evicted key/value just
	// before removal.
	OnEvict func(key uint32, v *V)
}

type lruNode[V any] struct {
	key        uint32
	val        V
	prev, next *lruNode[V]
}

// NewLRU returns an LRU with the given capacity (0 = unbounded).
func NewLRU[V any](capacity int) *LRU[V] {
	return &LRU[V]{capacity: capacity}
}

// Len returns the number of resident entries.
func (l *LRU[V]) Len() int { return l.n }

// Capacity returns the entry limit (0 = unbounded).
func (l *LRU[V]) Capacity() int { return l.capacity }

// Evictions returns the cumulative eviction count.
func (l *LRU[V]) Evictions() uint64 { return l.evictions }

func (l *LRU[V]) unlink(n *lruNode[V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// node returns the resident node under key, or nil.
func (l *LRU[V]) node(key uint32) *lruNode[V] {
	if int(key) < len(l.entries) {
		return l.entries[key]
	}
	return nil
}

func (l *LRU[V]) pushFront(n *lruNode[V]) {
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

// Get returns the value under key, refreshing its recency, or nil.
func (l *LRU[V]) Get(key uint32) *V {
	n := l.node(key)
	if n == nil {
		return nil
	}
	if l.head != n {
		l.unlink(n)
		l.pushFront(n)
	}
	return &n.val
}

// Peek returns the value under key without refreshing recency, or nil.
func (l *LRU[V]) Peek(key uint32) *V {
	n := l.node(key)
	if n == nil {
		return nil
	}
	return &n.val
}

// GetOrInsert returns the value under key, allocating (and evicting the
// LRU entry if at capacity) when absent.
func (l *LRU[V]) GetOrInsert(key uint32) (v *V, inserted bool) {
	if n := l.node(key); n != nil {
		if l.head != n {
			l.unlink(n)
			l.pushFront(n)
		}
		return &n.val, false
	}
	if l.capacity > 0 && l.n >= l.capacity {
		victim := l.tail
		if l.OnEvict != nil {
			l.OnEvict(victim.key, &victim.val)
		}
		l.unlink(victim)
		l.entries[victim.key] = nil
		l.n--
		l.evictions++
	}
	l.entries = Grow(l.entries, key)
	n := &lruNode[V]{key: key}
	l.entries[key] = n
	l.n++
	l.pushFront(n)
	return &n.val, true
}

// Remove deletes the entry under key, reporting whether it was resident.
func (l *LRU[V]) Remove(key uint32) bool {
	n := l.node(key)
	if n == nil {
		return false
	}
	l.unlink(n)
	l.entries[key] = nil
	l.n--
	return true
}
