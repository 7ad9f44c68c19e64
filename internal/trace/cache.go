package trace

import (
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
// resident size for the byte accounting. Stream and IStream satisfy it.
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

// Cache is a process-wide store of recorded streams. It keeps every
// stream it records until Drop: the paper's evaluation is a fixed sweep
// over 18 programs, and their whole trace set fits in memory.
// Lookups are single-flight: when several goroutines request the same
// key at once, exactly one records and the rest wait for its result.
// A Cache is safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	tier    Tier
	entries map[Key]*cacheEntry

	// Accounting lives in metrics instruments so a registry (see
	// RegisterMetrics) reads the very numbers the cache keeps — one set
	// of books for Stats, -benchjson and -progress. All
	// mutations happen under mu; the instruments' atomics only buy
	// lock-free reads for monitors.
	bytes    metrics.Gauge // resident (compressed) payload
	rawBytes metrics.Gauge // uncompressed payload of the same entries
	hits     metrics.Counter
	misses   metrics.Counter
}

// testWaiterJoined, when non-nil, is called once a Get has committed to
// waiting on another goroutine's in-flight recording (its outcome is the
// shared flight's result from that point on). Tests use it to release an
// injected fault only after every waiter has actually joined the flight.
var testWaiterJoined func()

// cacheEntry is one cached (or in-flight) recording. ready is closed,
// under the cache lock, once val/err are set and the entry's bytes are
// accounted; a completed entry still in the map is resident.
type cacheEntry struct {
	key   Key
	ready chan struct{}
	val   Cached
	err   error
}

// completed reports whether the entry's recording has finished.
func (e *cacheEntry) completed() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[Key]*cacheEntry)}
}

// SetTier installs (or, with nil, removes) the durable second tier.
// Only cache misses that start after SetTier returns consult it.
func (c *Cache) SetTier(t Tier) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tier = t
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
// recordings: same single-flight semantics, with
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
		defer c.mu.Unlock()
		if panicked && e.err == nil {
			e.err = fmt.Errorf("trace: recording %s/%d: %w",
				key.Workload, key.Size, runerr.ErrWorkloadPanic)
		}
		// Only account the entry if it is still ours: a concurrent Drop
		// may have disowned it while the recording ran.
		if cur := c.entries[key]; cur == e {
			if e.err != nil {
				delete(c.entries, key)
			} else {
				c.bytes.Add(e.val.Bytes())
				c.rawBytes.Add(rawBytesOf(e.val))
			}
		}
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
	if !ok || !e.completed() {
		return // absent, or still recording
	}
	delete(c.entries, key)
	c.bytes.Add(-e.val.Bytes())
	c.rawBytes.Add(-rawBytesOf(e.val))
	if check.Enabled {
		c.checkNoUnderflowLocked("Drop", e.key)
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

// Stats is a snapshot of cache effectiveness and residency.
type Stats struct {
	Hits     uint64
	Misses   uint64
	Entries  int
	Bytes    int64 // resident (compressed) payload
	RawBytes int64 // uncompressed payload of the same entries
}

// Stats returns a consistent snapshot.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:     c.hits.Value(),
		Misses:   c.misses.Value(),
		Entries:  len(c.entries),
		Bytes:    c.bytes.Value(),
		RawBytes: c.rawBytes.Value(),
	}
}

// RegisterMetrics attaches the cache's live accounting to r under
// prefix ("trace.cache", say): the hit/miss counters and the
// resident/raw byte gauges are the cache's own instruments, and entries
// is computed at snapshot time under the cache lock. Registering twice
// (or a second cache under the same prefix) replaces the previous
// registration.
func (c *Cache) RegisterMetrics(r *metrics.Registry, prefix string) {
	r.RegisterCounter(prefix+".hits", &c.hits)
	r.RegisterCounter(prefix+".misses", &c.misses)
	r.RegisterGauge(prefix+".bytes", &c.bytes)
	r.RegisterGauge(prefix+".raw_bytes", &c.rawBytes)
	r.GaugeFunc(prefix+".entries", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(len(c.entries))
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
// size, instruction budget, timing) so the listing is deterministic
// regardless of recording order.
func (c *Cache) Residents() []Resident {
	c.mu.Lock()
	defer c.mu.Unlock()
	rs := make([]Resident, 0, len(c.entries))
	for _, e := range c.entries {
		if !e.completed() {
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
