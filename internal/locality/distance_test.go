package locality

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

func TestFenwickBasic(t *testing.T) {
	f := newFenwick(8)
	f.add(3, 1)
	f.add(5, 1)
	f.add(7, 2)
	if got := f.sum(4); got != 1 {
		t.Errorf("sum(4) = %d", got)
	}
	if got := f.sum(8); got != 4 {
		t.Errorf("sum(8) = %d", got)
	}
	if got := f.sum(6) - f.sum(3); got != 1 {
		t.Errorf("sum over [4,6] = %d", got)
	}
	f.add(5, -1)
	if got := f.sum(8); got != 3 {
		t.Errorf("after removal sum = %d", got)
	}
}

// TestQuickFenwickMatchesNaive: grown-on-demand prefix sums match a
// plain array, including across growth boundaries.
func TestQuickFenwickMatchesNaive(t *testing.T) {
	f := func(ops []uint16) bool {
		fen := newFenwick(2)
		naive := make([]int, 1)
		for _, op := range ops {
			i := int(op%512) + 1
			for len(naive) <= i {
				naive = append(naive, 0)
			}
			fen.add(i, 1)
			naive[i]++
			q := int(op>>9)%512 + 1
			want := 0
			for k := 1; k <= q && k < len(naive); k++ {
				want += naive[k]
			}
			if fen.sum(q) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDistanceSimplePairs(t *testing.T) {
	d := NewDistanceAnalyzer()
	// Adjacent pair: distance 0 (no unique addresses in between).
	d.Load(4, 0x100)
	d.Load(8, 0x100)
	if d.Sinks() != 1 {
		t.Fatalf("sinks = %d", d.Sinks())
	}
	if d.CDF(1) != 1 {
		t.Errorf("CDF(1) = %v (distance-0 pair)", d.CDF(1))
	}
}

func TestDistanceCountsUniqueIntervening(t *testing.T) {
	d := NewDistanceAnalyzer()
	d.Load(4, 0x100)
	// Three unique intervening addresses, one touched twice.
	d.Load(12, 0x200)
	d.Load(12, 0x300)
	d.Load(12, 0x200) // repeat: not a new unique address
	d.Load(12, 0x400)
	d.Load(8, 0x100) // sink: distance = 3 unique
	if d.Sinks() != 1 {
		t.Fatalf("sinks = %d", d.Sinks())
	}
	if d.CDF(2) != 0 {
		t.Errorf("CDF(2) = %v, want 0 (distance is 3)", d.CDF(2))
	}
	if d.CDF(4) != 1 {
		t.Errorf("CDF(4) = %v, want 1", d.CDF(4))
	}
}

func TestDistanceStoreBreaksChain(t *testing.T) {
	d := NewDistanceAnalyzer()
	d.Load(4, 0x100)
	d.Store(100, 0x100)
	d.Load(8, 0x100)
	if d.Sinks() != 0 {
		t.Errorf("store did not break the chain: %d sinks", d.Sinks())
	}
}

func TestDistanceSelfReread(t *testing.T) {
	d := NewDistanceAnalyzer()
	d.Load(4, 0x100)
	d.Load(4, 0x100) // same static load: no pair
	if d.Sinks() != 0 {
		t.Errorf("self re-read recorded as sink")
	}
}

func TestDistancePercentile(t *testing.T) {
	d := NewDistanceAnalyzer()
	// Ten distance-0 pairs and one large-distance pair.
	for i := 0; i < 10; i++ {
		addr := uint32(0x1000 + i*4)
		d.Load(4, addr)
		d.Load(8, addr)
	}
	d.Load(4, 0x9000)
	for i := 0; i < 300; i++ {
		d.Load(12, uint32(0x20000+i*4))
	}
	d.Load(8, 0x9000)
	if p := d.Percentile(0.9); p > 2 {
		t.Errorf("p90 = %d, want <= 2", p)
	}
	if p := d.Percentile(1.0); p < 256 {
		t.Errorf("p100 = %d, want >= 256", p)
	}
}

// TestDistanceMatchesWindowedDetection: the CDF at a window size must
// approximate the fraction of infinite-window sinks a finite window
// detects (they are the same quantity measured two ways, up to the LRU
// vs exact-stack subtlety of the DDT's combined table).
func TestDistanceMatchesWindowedDetection(t *testing.T) {
	dist := NewDistanceAnalyzer()
	win := NewRARLocality(64)
	inf := NewRARLocality(0)
	// A mix: adjacent pairs plus pairs separated by ~100 unique addrs.
	g := uint32(12345)
	for i := 0; i < 2000; i++ {
		g = g*1664525 + 1013904223
		shared := uint32(0x100000 + (g>>8)%512*4)
		dist.Load(4, shared)
		win.Load(4, shared)
		inf.Load(4, shared)
		if i%2 == 0 {
			// far pair: stream 100 unique addresses first
			for j := 0; j < 100; j++ {
				a := uint32(0x900000 + uint32(i*100+j)*4)
				dist.Load(12, a)
				win.Load(12, a)
				inf.Load(12, a)
			}
		}
		dist.Load(8, shared)
		win.Load(8, shared)
		inf.Load(8, shared)
	}
	cdf := dist.CDF(64)
	detected := float64(win.SinkLoads()) / float64(inf.SinkLoads())
	diff := cdf - detected
	if diff < -0.25 || diff > 0.25 {
		t.Errorf("CDF(64) = %.2f vs windowed detection %.2f", cdf, detected)
	}
}

func TestDistanceEmpty(t *testing.T) {
	d := NewDistanceAnalyzer()
	if d.CDF(128) != 0 || d.Percentile(0.5) != 0 {
		t.Error("empty analyzer nonzero")
	}
}

// TestDistancePercentileSingleSink: one RAR sink at distance 100 is
// covered by the bound 128 at every percentile, and by no smaller one.
func TestDistancePercentileSingleSink(t *testing.T) {
	d := NewDistanceAnalyzer()
	d.Load(4, 0x10000)
	for i := 0; i < 100; i++ {
		d.Load(12, uint32(i*4))
	}
	d.Load(8, 0x10000)
	if d.Sinks() != 1 || d.CDF(64) != 0 || d.CDF(128) != 1 {
		t.Fatalf("sinks %d, CDF(64) %v, CDF(128) %v: want one sink at distance 100", d.Sinks(), d.CDF(64), d.CDF(128))
	}
	for _, frac := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		if p := d.Percentile(frac); p != 128 {
			t.Errorf("Percentile(%v) = %d, want 128", frac, p)
		}
	}
}

// TestDistancePercentileExactFractions: a fraction met exactly by a
// cumulative count is covered by that count's bound, whichever way the
// product frac × total rounds (0.07 × 100 rounds up to just over 7,
// 0.29 × 100 down to just under 29).
func TestDistancePercentileExactFractions(t *testing.T) {
	d := NewDistanceAnalyzer()
	d.total = 100
	d.hist[0], d.hist[2], d.hist[5] = 7, 22, 71 // cumulative 7, 29, 100
	for _, c := range []struct {
		frac float64
		want int
	}{{0.07, 1}, {0.08, 4}, {0.29, 4}, {0.3, 32}, {0.9, 32}, {1, 32}} {
		if p := d.Percentile(c.frac); p != c.want {
			t.Errorf("Percentile(%v) = %d, want %d", c.frac, p, c.want)
		}
	}
}

// naiveDistances is the reference model of DistanceAnalyzer: an explicit
// LRU stack of addresses, where an access's distance is its address's
// depth in the stack, and the same RAR rule (the first load since the
// last store is the source; a different static load is a sink).
type naiveDistances struct {
	stack    []uint32 // most recent first
	lastLoad map[uint32]uint32
	hist     [distanceBuckets]uint64
}

func (n *naiveDistances) touch(addr uint32) int {
	i := slices.Index(n.stack, addr)
	if i < 0 {
		n.stack = slices.Insert(n.stack, 0, addr)
		return -1
	}
	copy(n.stack[1:i+1], n.stack[:i])
	n.stack[0] = addr
	return i
}

func (n *naiveDistances) access(load bool, pc, addr uint32) {
	dist := n.touch(addr)
	if !load {
		delete(n.lastLoad, addr)
		return
	}
	src, ok := n.lastLoad[addr]
	if ok && src != pc && dist >= 0 {
		b := 0
		for 1<<b <= dist && b < distanceBuckets-1 {
			b++
		}
		n.hist[b]++
	}
	if !ok {
		n.lastLoad[addr] = pc
	}
}

// checkAgainstNaive feeds the same accesses to the analyzer and the
// reference model and requires identical histograms.
func checkAgainstNaive(t *testing.T, what string, feed func(on func(load bool, pc, addr uint32))) {
	t.Helper()
	d := NewDistanceAnalyzer()
	n := &naiveDistances{lastLoad: map[uint32]uint32{}}
	feed(func(load bool, pc, addr uint32) {
		if load {
			d.Load(pc, addr)
		} else {
			d.Store(pc, addr)
		}
		n.access(load, pc, addr)
	})
	if !slices.Equal(d.hist, n.hist[:]) {
		t.Errorf("%s: histogram %v, naive LRU stack %v", what, d.hist, n.hist)
	}
}

// TestDistanceMatchesNaiveStack: the Fenwick-tree distances equal an
// explicit LRU stack's, exactly, on random streams (whose timestamps
// cross several doublings of the tree) and on recorded workloads.
func TestDistanceMatchesNaiveStack(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		events, addrs := 500+rng.Intn(5000), 1+rng.Intn(600)
		checkAgainstNaive(t, "random stream", func(on func(load bool, pc, addr uint32)) {
			for i := 0; i < events; i++ {
				on(rng.Intn(4) != 0, uint32(rng.Intn(16))<<2, uint32(rng.Intn(addrs))<<2)
			}
		})
	}
	for _, abbrev := range []string{"go", "li", "vor", "wav"} {
		w, _ := workload.ByAbbrev(abbrev)
		tr, err := trace.RecordStream(w.Assemble(4), 0)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkAgainstNaive(t, w.Name, func(on func(load bool, pc, addr uint32)) {
			tr.Replay(trace.SinkFuncs{
				OnLoad:  func(pc, addr, _ uint32) { on(true, pc, addr) },
				OnStore: func(pc, addr, _ uint32) { on(false, pc, addr) },
			})
		})
	}
}
