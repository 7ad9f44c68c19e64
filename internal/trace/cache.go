package trace

import (
	"container/list"
	"context"
	"fmt"
	"sort"
	"sync"

	"rarpred/internal/check"
	"rarpred/internal/metrics"
	"rarpred/internal/runerr"
)

// Key identifies one recorded stream: a workload name, its size
// parameter, and the instruction budget the recording ran under. Any of
// those changing changes the committed reference stream, so all three
// are part of the identity. Timing distinguishes the two recording
// shapes sharing the cache: false keys a memory-event Stream, true an
// instruction-level IStream (the timing experiments' replay source).
type Key struct {
	Workload string
	Size     int
	MaxInsts uint64
	Timing   bool
}

// Cached is what the cache stores: any recording that can report its
// resident size for the byte budget. Stream and IStream satisfy it.
type Cached interface {
	Bytes() int64
}

// Tier is a durable second tier behind the in-memory cache. On a miss
// the cache asks the tier before recording live; after a successful
// recording it offers the result back. Load returns (nil, nil) when the
// tier has nothing for the key; any error is treated as a miss (the
// cache records live) — the tier owns quarantining whatever produced
// it. Store failures are likewise non-fatal: the run continues with the
// in-memory copy. A Tier must be safe for concurrent use.
type Tier interface {
	Load(Key) (Cached, error)
	Store(Key, Cached) error
}

// Cache is a process-wide, memory-bounded store of recorded streams.
// Lookups are single-flight: when several goroutines request the same
// key at once, exactly one records and the rest wait for its result.
// Completed entries are evicted least-recently-used once the total
// payload exceeds the byte budget. A Cache is safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	tier    Tier
	entries map[Key]*cacheEntry
	lru     *list.List // completed entries; front = most recently used

	// pins counts pending consumers per key (Retain/Release). A pinned
	// key's entry is exempt from LRU eviction: a scheduler that knows
	// which cells still need a stream pins it up front so the cache
	// never drops a hot stream only to re-record it moments later.
	pins map[Key]int

	// Accounting lives in metrics instruments so a registry (see
	// RegisterMetrics) reads the very numbers the cache runs on — one
	// set of books for eviction decisions, Stats, -benchjson, and the
	// /metrics endpoint. All mutations happen under mu; the instruments'
	// atomics only buy lock-free reads for monitors.
	bytes     metrics.Gauge // resident (compressed) payload vs budget
	rawBytes  metrics.Gauge // uncompressed payload of the same entries
	hits      metrics.Counter
	misses    metrics.Counter
	evictions metrics.Counter
}

// testWaiterJoined, when non-nil, is called once a Get has committed to
// waiting on another goroutine's in-flight recording (its outcome is the
// shared flight's result from that point on). Tests use it to release an
// injected fault only after every waiter has actually joined the flight.
var testWaiterJoined func()

// cacheEntry is one cached (or in-flight) recording. ready is closed
// once val/err are set; elem is non-nil only for completed entries
// resident in the LRU list.
type cacheEntry struct {
	key   Key
	ready chan struct{}
	val   Cached
	err   error
	elem  *list.Element
}

// DefaultBudget bounds the default shared cache: the full 18-workload
// suite at reference size records ~150 MB of events, so half a GiB keeps
// every stream resident with headroom for oversized sweeps.
const DefaultBudget = 512 << 20

// NewCache returns a cache bounded to budget payload bytes. A budget
// <= 0 disables eviction (unbounded).
func NewCache(budget int64) *Cache {
	return &Cache{
		budget:  budget,
		entries: make(map[Key]*cacheEntry),
		lru:     list.New(),
		pins:    make(map[Key]int),
	}
}

// Retain declares one pending consumer of key: until a matching Release,
// the key's entry (present now or recorded later) is exempt from LRU
// eviction. Retain does not populate the cache — it is the dependency
// edge a scheduler draws from a future cell to the stream it will
// consume. Retain/Release pairs nest (the pin is a refcount).
func (c *Cache) Retain(key Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pins[key]++
}

// Release drops one Retain of key. When the last pin goes, the entry
// rejoins the ordinary LRU economy and an over-budget cache may evict it
// immediately. Releasing an unpinned key is a no-op.
func (c *Cache) Release(key Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.pins[key]
	if !ok {
		return
	}
	if n <= 1 {
		delete(c.pins, key)
		c.evictLocked()
		return
	}
	c.pins[key] = n - 1
}

// SetTier installs (or, with nil, removes) the durable second tier.
// Only cache misses that start after SetTier returns consult it.
func (c *Cache) SetTier(t Tier) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tier = t
}

// SetBudget changes the byte budget and evicts immediately if the
// resident total now exceeds it.
func (c *Cache) SetBudget(budget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = budget
	c.evictLocked()
}

// Get returns the stream for key, calling record to produce it on a
// miss. Concurrent Gets for the same key share one record call; its
// error (if any) is returned to every waiter and the entry is dropped so
// a later Get retries. A panicking record can never strand waiters: the
// entry is completed (with a typed ErrWorkloadPanic), dropped so a later
// Get retries, and the panic then propagates to record's own caller,
// whose worker-level recovery owns it.
func (c *Cache) Get(key Key, record func() (*Stream, error)) (*Stream, error) {
	return c.GetContext(context.Background(), key, record)
}

// GetContext is Get with a bounded wait: a waiter whose context ends
// before the in-flight recording completes gives up with the context
// error instead of blocking on a recording that may be stalled. The
// recording itself is not canceled (it belongs to the goroutine that
// started it, which carries its own context).
func (c *Cache) GetContext(ctx context.Context, key Key, record func() (*Stream, error)) (*Stream, error) {
	v, err := c.getContext(ctx, key, func() (Cached, error) {
		s, err := record()
		if s == nil {
			return nil, err // avoid a typed-nil Cached
		}
		return s, err
	})
	if v == nil {
		return nil, err
	}
	s, ok := v.(*Stream)
	if !ok {
		// A tier keyed wrongly (Timing mismatch) could hand back the
		// other recording shape; refuse it rather than panic.
		return nil, fmt.Errorf("trace: cached value for %s/%d is %T, want *Stream: %w",
			key.Workload, key.Size, v, runerr.ErrTraceCorrupt)
	}
	return s, err
}

// GetIStreamContext is GetContext for instruction-level timing
// recordings: same single-flight, budget, and pinning semantics, with
// the entry keyed (by convention) with Key.Timing set so functional and
// timing recordings of one workload coexist.
func (c *Cache) GetIStreamContext(ctx context.Context, key Key, record func() (*IStream, error)) (*IStream, error) {
	v, err := c.getContext(ctx, key, func() (Cached, error) {
		s, err := record()
		if s == nil {
			return nil, err
		}
		return s, err
	})
	if v == nil {
		return nil, err
	}
	s, ok := v.(*IStream)
	if !ok {
		return nil, fmt.Errorf("trace: cached value for %s/%d is %T, want *IStream: %w",
			key.Workload, key.Size, v, runerr.ErrTraceCorrupt)
	}
	return s, err
}

// getContext is the untyped single-flight core shared by the Stream and
// IStream getters.
func (c *Cache) getContext(ctx context.Context, key Key, record func() (Cached, error)) (Cached, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.hits.Inc()
		c.mu.Unlock()
		if testWaiterJoined != nil {
			testWaiterJoined()
		}
		select {
		case <-e.ready:
			return e.val, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.misses.Inc()
	tier := c.tier
	c.mu.Unlock()

	// The completion runs deferred so it executes even when record
	// panics: waiters are released with a typed error and the poisoned
	// entry is removed, then the panic unwinds to this Get's caller.
	panicked := true
	defer func() {
		c.mu.Lock()
		if panicked && e.err == nil {
			e.err = fmt.Errorf("trace: recording %s/%d: %w",
				key.Workload, key.Size, runerr.ErrWorkloadPanic)
		}
		// Only insert if the entry is still ours: a concurrent Drop may
		// have disowned it while the recording ran.
		if cur := c.entries[key]; cur == e {
			if e.err != nil {
				delete(c.entries, key)
			} else {
				e.elem = c.lru.PushFront(e)
				c.bytes.Add(e.val.Bytes())
				c.rawBytes.Add(rawBytesOf(e.val))
				c.evictLocked()
			}
		}
		c.mu.Unlock()
		close(e.ready)
	}()

	// The durable tier is consulted inside the flight, so concurrent
	// requesters share one disk read exactly as they share one recording.
	// A tier error — corruption, I/O failure — is a miss: the tier has
	// already quarantined or reported what it needed to, and live
	// re-recording is the degradation path that always works.
	if tier != nil {
		if v, lerr := tier.Load(key); lerr == nil && v != nil {
			e.val = v
			panicked = false
			return e.val, nil
		}
	}

	e.val, e.err = record()
	panicked = false
	if e.err == nil && tier != nil && e.val != nil {
		// Best-effort publish: a failed save (after the tier's own
		// bounded retry) costs durability, not the run.
		_ = tier.Store(key, e.val)
	}
	return e.val, e.err
}

// Drop removes a completed entry (a stream the caller found to be
// corrupt, say) so the next Get re-records. An in-flight recording is
// left alone: its owner will complete it, and dropping it here would
// detach the entry the owner is about to publish.
func (c *Cache) Drop(key Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return
	}
	select {
	case <-e.ready:
	default:
		return // still recording
	}
	delete(c.entries, key)
	if e.elem != nil {
		c.lru.Remove(e.elem)
		c.bytes.Add(-e.val.Bytes())
		c.rawBytes.Add(-rawBytesOf(e.val))
		e.elem = nil
		if check.Enabled {
			c.checkNoUnderflowLocked("Drop", e.key)
		}
	}
}

// rawBytesOf reports a cached value's uncompressed payload size,
// falling back to its resident size for values that do not distinguish
// the two.
func rawBytesOf(v Cached) int64 {
	if r, ok := v.(interface{ RawBytes() int64 }); ok {
		return r.RawBytes()
	}
	return v.Bytes()
}

// evictLocked drops least-recently-used completed entries until the
// resident payload fits the budget. Pinned entries (Retain) are skipped:
// a stream with pending consumers is never dropped, even over budget.
// The most recently used entry always stays (a single stream larger
// than the budget is still returned and cached until something newer
// displaces it). In-flight recordings are not in the LRU list and are
// never evicted.
func (c *Cache) evictLocked() {
	if c.budget <= 0 {
		return
	}
	for el := c.lru.Back(); el != nil && el != c.lru.Front() && c.bytes.Value() > c.budget; {
		prev := el.Prev()
		e := el.Value.(*cacheEntry)
		if c.pins[e.key] == 0 {
			c.lru.Remove(el)
			delete(c.entries, e.key)
			c.bytes.Add(-e.val.Bytes())
			c.rawBytes.Add(-rawBytesOf(e.val))
			c.evictions.Inc()
			if check.Enabled {
				c.checkNoUnderflowLocked("evict", e.key)
			}
		}
		el = prev
	}
}

// Stats is a snapshot of cache effectiveness and residency.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
	Bytes     int64 // resident (compressed) payload counted against Budget
	RawBytes  int64 // uncompressed payload of the same entries
	Budget    int64
	Pinned    int // keys currently held by Retain
}

// Stats returns a consistent snapshot.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evictions.Value(),
		Entries:   len(c.entries),
		Bytes:     c.bytes.Value(),
		RawBytes:  c.rawBytes.Value(),
		Budget:    c.budget,
		Pinned:    len(c.pins),
	}
}

// RegisterMetrics attaches the cache's live accounting to r under
// prefix ("trace.cache", say): the hit/miss/eviction counters and the
// resident/raw byte gauges are the cache's own instruments — the very
// values eviction runs on — and entries/pinned/budget are computed at
// snapshot time under the cache lock. Registering twice (or a second
// cache under the same prefix) replaces the previous registration.
func (c *Cache) RegisterMetrics(r *metrics.Registry, prefix string) {
	r.RegisterCounter(prefix+".hits", &c.hits)
	r.RegisterCounter(prefix+".misses", &c.misses)
	r.RegisterCounter(prefix+".evictions", &c.evictions)
	r.RegisterGauge(prefix+".bytes", &c.bytes)
	r.RegisterGauge(prefix+".raw_bytes", &c.rawBytes)
	r.GaugeFunc(prefix+".entries", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(len(c.entries))
	})
	r.GaugeFunc(prefix+".pinned", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(len(c.pins))
	})
	r.GaugeFunc(prefix+".budget", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.budget
	})
}

// checkNoUnderflowLocked asserts (under rarcheck) that byte accounting
// never went negative: removing an entry must never subtract more than
// was added for it, whatever mix of live-recorded and tier-loaded
// compressed entries passed through.
func (c *Cache) checkNoUnderflowLocked(op string, key Key) {
	check.Assertf(c.bytes.Value() >= 0, "cache.bytes",
		"%s %+v drove resident bytes negative (%d)", op, key, c.bytes.Value())
	check.Assertf(c.rawBytes.Value() >= 0, "cache.bytes",
		"%s %+v drove raw bytes negative (%d)", op, key, c.rawBytes.Value())
}

// Resident describes one completed cache entry for reporting (the
// -tracestats listing): its key, resident (compressed) bytes, and
// uncompressed payload bytes.
type Resident struct {
	Key      Key
	Bytes    int64
	RawBytes int64
}

// Residents returns the completed entries, sorted by key (workload,
// size, budget, timing) so the listing is deterministic regardless of
// recording order.
func (c *Cache) Residents() []Resident {
	c.mu.Lock()
	defer c.mu.Unlock()
	rs := make([]Resident, 0, len(c.entries))
	for _, e := range c.entries {
		if e.elem == nil {
			continue // in flight
		}
		rs = append(rs, Resident{Key: e.key, Bytes: e.val.Bytes(), RawBytes: rawBytesOf(e.val)})
	}
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i].Key, rs[j].Key
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Size != b.Size {
			return a.Size < b.Size
		}
		if a.MaxInsts != b.MaxInsts {
			return a.MaxInsts < b.MaxInsts
		}
		return !a.Timing && b.Timing
	})
	return rs
}
