// Package metrics is the simulator's unified instrumentation registry:
// typed counters and gauges with an atomic fast path, labeled histogram
// families for spans, and a point-in-time Snapshot for reporting. The
// suite scheduler, the functional and pipeline simulators and the trace
// replay register their instruments here, so the -benchjson report and
// the -progress ticker read the same numbers and can never drift apart.
//
// Design constraints, in order:
//
//  1. Hot-path cost. Counter.Add and Gauge.Set are single atomic ops on
//     a pre-resolved pointer; nothing on the increment path takes a
//     lock, allocates, or formats a name. Callers resolve instruments
//     once (at construction or init) and keep the pointer.
//  2. Consistency. Snapshot walks the registry under a read lock and
//     loads each instrument atomically. Individual loads are atomic but
//     the snapshot as a whole is not a cross-instrument transaction —
//     fine for monitoring, and the final end-of-run snapshot (taken
//     after the pool quiesces) is exact.
//  3. No dependencies. Plain stdlib: sync, sync/atomic, math/bits.
package metrics

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; a subsystem may keep Counters of its own, or obtain
// registry-owned ones from Registry.Counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Counters only go up; Add with a huge n that wraps is the
// caller's bug, not checked here.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 value (queue depth, resident bytes).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with bits.Len64(v) == i, i.e. bucket 0 holds
// v==0, bucket i>0 holds 2^(i-1) <= v < 2^i. 65 buckets cover all of
// uint64; observations are clamped at zero.
const histBuckets = 65

// Histogram is a lock-free power-of-two histogram of int64 samples
// (negative samples clamp to zero). It tracks count, sum, and per-bucket
// counts; good enough to answer "how long do cells take" and "is the
// span overhead in nanoseconds or microseconds" without reservoirs.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the running sum of observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// HistogramValue is a histogram's state in a Snapshot. Buckets maps the
// inclusive upper bound of each non-empty power-of-two bucket (2^i - 1,
// rendered as a decimal string for JSON stability) to its count.
type HistogramValue struct {
	Count   uint64            `json:"count"`
	Sum     int64             `json:"sum"`
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

func (h *Histogram) value() HistogramValue {
	hv := HistogramValue{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if hv.Buckets == nil {
			hv.Buckets = make(map[string]uint64)
		}
		// Upper bound of bucket i: largest v with bits.Len64(v)==i.
		var ub uint64
		if i > 0 {
			ub = 1<<uint(i) - 1
		}
		hv.Buckets[fmt.Sprintf("%d", ub)] = n
	}
	return hv
}

// HistogramVec is a labeled family of histograms sharing one name; the
// span API records each span path into one member.
type HistogramVec struct {
	mu sync.RWMutex
	m  map[string]*Histogram
}

// With returns the histogram for the label, creating it on first use.
func (v *HistogramVec) With(label string) *Histogram {
	v.mu.RLock()
	h := v.m[label]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.m[label]; h == nil {
		h = &Histogram{}
		v.m[label] = h
	}
	return h
}

// Registry holds named instruments. Names are flat, dot-separated by
// convention ("suite.cells_done", "funcsim.insts_committed"); a vec
// member renders in snapshots as name{label}. Registering the same name
// twice returns the same instrument (get-or-create), so package-level
// wiring from independent subsystems composes without coordination. A
// name registered as two different kinds panics: that is a wiring bug.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	histoVec map[string]*HistogramVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		histoVec: make(map[string]*HistogramVec),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Package-level subsystems
// (the suite scheduler, the simulators) register here; code
// that wants isolation (tests) builds its own Registry.
func Default() *Registry { return defaultRegistry }

func (r *Registry) checkName(name, kind string) {
	if _, ok := r.counters[name]; ok && kind != "counter" {
		panic("metrics: " + name + " already registered as counter")
	}
	if _, ok := r.gauges[name]; ok && kind != "gauge" {
		panic("metrics: " + name + " already registered as gauge")
	}
	if _, ok := r.histoVec[name]; ok && kind != "histogramvec" {
		panic("metrics: " + name + " already registered as histogram vec")
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "counter")
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "gauge")
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// HistogramVec returns the named histogram family, creating it on
// first use.
func (r *Registry) HistogramVec(name string) *HistogramVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "histogramvec")
	v := r.histoVec[name]
	if v == nil {
		v = &HistogramVec{m: make(map[string]*Histogram)}
		r.histoVec[name] = v
	}
	return v
}

// Snapshot is a point-in-time copy of every instrument, shaped for
// json.Marshal. Vec members are flattened as name{label}. Maps
// marshal with sorted keys, so two snapshots of identical state render
// identically.
type Snapshot struct {
	Counters   map[string]uint64         `json:"counters,omitempty"`
	Gauges     map[string]int64          `json:"gauges,omitempty"`
	Histograms map[string]HistogramValue `json:"histograms,omitempty"`
}

// Snapshot captures the registry. Safe to call concurrently with
// instrument updates; see the package comment for the (non-)atomicity
// contract.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramValue),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, v := range r.histoVec {
		v.mu.RLock()
		for label, h := range v.m {
			s.Histograms[name+"{"+label+"}"] = h.value()
		}
		v.mu.RUnlock()
	}
	if len(s.Counters) == 0 {
		s.Counters = nil
	}
	if len(s.Gauges) == 0 {
		s.Gauges = nil
	}
	if len(s.Histograms) == 0 {
		s.Histograms = nil
	}
	return s
}
