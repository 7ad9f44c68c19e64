package trace

import (
	"testing"

	"rarpred/internal/metrics"
)

// buildCompressedStream returns a sealed, compressed stream whose
// resident size (packed bytes) is well below its raw payload — the
// shape a store-tier load hands the cache, where the raw size is only
// knowable post-decode.
func buildCompressedStream(t *testing.T, n int) *Stream {
	t.Helper()
	s := NewStream()
	s.compress = true
	for i := 0; i < n; i++ {
		kind := KindLoad
		if i%3 == 0 {
			kind = KindStore
		}
		s.Append(kind, uint32(i)<<2, uint32(i%64), uint32(i*7))
	}
	s.Seal()
	if s.Bytes() >= s.RawBytes() {
		t.Fatalf("stream did not compress: resident %d, raw %d", s.Bytes(), s.RawBytes())
	}
	return s
}

// TestCacheAccountingTierLoadedCompressed audits the raw/resident books
// across Drop of compressed entries that arrived via the store tier:
// insertion and removal must use the same sizes, and the totals must
// return exactly to zero — never underflow — once every entry is gone.
func TestCacheAccountingTierLoadedCompressed(t *testing.T) {
	a := buildCompressedStream(t, 3*chunkEvents/2)
	b := buildCompressedStream(t, chunkEvents/2)
	keyA := Key{Workload: "a", Size: 1}
	keyB := Key{Workload: "b", Size: 1}
	c := NewCache()
	c.SetTier(&fakeTier{m: map[Key]Cached{keyA: a, keyB: b}})

	record := func() (*Stream, error) { t.Fatal("tier had the stream"); return nil, nil }
	if _, err := c.Get(keyA, record); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(keyB, record); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Bytes != a.Bytes()+b.Bytes() || st.RawBytes != a.RawBytes()+b.RawBytes() {
		t.Fatalf("after tier loads: Bytes=%d RawBytes=%d, want %d/%d",
			st.Bytes, st.RawBytes, a.Bytes()+b.Bytes(), a.RawBytes()+b.RawBytes())
	}
	c.CheckInvariants()

	// Drop one entry: both books shrink by exactly that entry's sizes.
	c.Drop(keyA)
	st = c.Stats()
	if st.Bytes != b.Bytes() || st.RawBytes != b.RawBytes() {
		t.Fatalf("after Drop: Bytes=%d RawBytes=%d, want %d/%d",
			st.Bytes, st.RawBytes, b.Bytes(), b.RawBytes())
	}
	c.CheckInvariants()

	// Reload the dropped entry from the tier: it is accounted afresh.
	if _, err := c.Get(keyA, record); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Bytes != a.Bytes()+b.Bytes() || st.RawBytes != a.RawBytes()+b.RawBytes() {
		t.Fatalf("after reload: Bytes=%d RawBytes=%d, want %d/%d",
			st.Bytes, st.RawBytes, a.Bytes()+b.Bytes(), a.RawBytes()+b.RawBytes())
	}
	c.CheckInvariants()

	// Remove both: the books must land exactly on zero.
	c.Drop(keyA)
	c.Drop(keyB)
	st = c.Stats()
	if st.Bytes != 0 || st.RawBytes != 0 {
		t.Fatalf("after removing every entry: Bytes=%d RawBytes=%d, want 0/0", st.Bytes, st.RawBytes)
	}
	c.CheckInvariants()
}

// TestCacheRegisterMetrics: the registry reads the same books Stats
// reports — same instruments, so the two can never drift.
func TestCacheRegisterMetrics(t *testing.T) {
	r := metrics.NewRegistry()
	c := NewCache()
	c.RegisterMetrics(r, "trace.cache")

	key := Key{Workload: "w", Size: 1}
	if _, err := c.Get(key, func() (*Stream, error) { return buildStream(100), nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(key, func() (*Stream, error) { t.Fatal("hit must not record"); return nil, nil }); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	s := r.Snapshot()
	if s.Counters["trace.cache.hits"] != st.Hits || s.Counters["trace.cache.misses"] != st.Misses {
		t.Fatalf("snapshot counters %v disagree with Stats %+v", s.Counters, st)
	}
	if s.Gauges["trace.cache.bytes"] != st.Bytes || s.Gauges["trace.cache.raw_bytes"] != st.RawBytes ||
		s.Gauges["trace.cache.entries"] != int64(st.Entries) {
		t.Fatalf("snapshot gauges %v disagree with Stats %+v", s.Gauges, st)
	}
}
