package metrics

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("c") != c {
		t.Fatal("Counter is not get-or-create")
	}
	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 1, 3, 100, -5} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 105 { // -5 clamps to 0
		t.Fatalf("sum = %d, want 105", h.Sum())
	}
	hv := h.value()
	// 0 and -5 land in bucket ub=0; 1,1 in ub=1; 3 in ub=3; 100 in ub=127.
	want := map[string]uint64{"0": 2, "1": 2, "3": 1, "127": 1}
	if len(hv.Buckets) != len(want) {
		t.Fatalf("buckets = %v, want %v", hv.Buckets, want)
	}
	for ub, n := range want {
		if hv.Buckets[ub] != n {
			t.Fatalf("bucket %s = %d, want %d (all: %v)", ub, hv.Buckets[ub], n, hv.Buckets)
		}
	}
}

func TestVecAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("plain").Add(5)
	r.Gauge("depth").Set(-2)
	r.HistogramVec("hv").With("x").Observe(1)
	r.HistogramVec("hv").With("y").Observe(2)
	r.HistogramVec("hv").With("y").Observe(3)

	s := r.Snapshot()
	if s.Counters["plain"] != 5 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if s.Gauges["depth"] != -2 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
	if s.Histograms["hv{x}"].Count != 1 || s.Histograms["hv{y}"].Count != 2 {
		t.Fatalf("histograms = %v", s.Histograms)
	}

	// Snapshots of identical state must marshal identically (map keys
	// sort), so golden comparisons and the benchjson diff are stable.
	b1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("snapshot marshal unstable:\n%s\n%s", b1, b2)
	}
}

func TestKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as gauge after counter did not panic")
		}
	}()
	r.Gauge("x")
}

func TestSpanNesting(t *testing.T) {
	r := NewRegistry()
	outer := r.StartSpan("cell")
	inner := r.StartSpan("cell/record")
	time.Sleep(time.Millisecond)
	inner.End()
	outer.End()

	s := r.Snapshot()
	for _, path := range []string{"spans_ns{cell}", "spans_ns{cell/record}"} {
		if s.Histograms[path].Count != 1 {
			t.Fatalf("span %s count = %d, want 1 (have %v)", path, s.Histograms[path].Count, s.Histograms)
		}
	}
	// The inner span slept ≥1ms; the outer one encloses it.
	child := s.Histograms["spans_ns{cell/record}"].Sum
	parent := s.Histograms["spans_ns{cell}"].Sum
	if child < int64(time.Millisecond) {
		t.Fatalf("child span %dns, want >= 1ms", child)
	}
	if parent < child {
		t.Fatalf("parent span %dns shorter than child %dns", parent, child)
	}
	// Zero span End is a no-op.
	var zero Span
	zero.End()
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			v := r.HistogramVec("vec")
			for i := 0; i < 1000; i++ {
				c.Inc()
				v.With("l").Observe(int64(i))
				r.Gauge("g").Add(1)
				sp := r.StartSpan("s")
				sp.End()
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["shared"] != 8000 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if s.Gauges["g"] != 8000 {
		t.Fatalf("gauge = %d", s.Gauges["g"])
	}
	if s.Histograms["vec{l}"].Count != 8000 {
		t.Fatalf("histogram count = %d", s.Histograms["vec{l}"].Count)
	}
}

// TestNames: a snapshot lists each instrument under its registered
// name, a vec member as name{label}, and asking for a taken name
// returns the instrument already there.
func TestNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(1)
	r.Gauge("a").Set(2)
	r.HistogramVec("c").With("x").Observe(3)
	r.Counter("b").Add(3)

	s := r.Snapshot()
	if len(s.Counters) != 1 || s.Counters["b"] != 4 {
		t.Errorf("counters = %v, want b=4 from one instrument", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges["a"] != 2 {
		t.Errorf("gauges = %v, want a=2", s.Gauges)
	}
	if len(s.Histograms) != 1 || s.Histograms["c{x}"].Sum != 3 {
		t.Errorf("histograms = %v, want c{x}", s.Histograms)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		var i int64
		for pb.Next() {
			h.Observe(i)
			i++
		}
	})
}

func BenchmarkSpan(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < b.N; i++ {
		s := r.StartSpan("cell")
		s.End()
	}
}

func BenchmarkVecWith(b *testing.B) {
	v := NewRegistry().HistogramVec("v")
	v.With("hot")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			v.With("hot").Observe(1)
		}
	})
}
