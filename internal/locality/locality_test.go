package locality

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRARLocalityPerfectStream(t *testing.T) {
	// One (source, sink) pair repeating over changing addresses: from the
	// second sink execution on, locality(1) hits.
	l := NewRARLocality(0)
	const iters = 10
	for i := 0; i < iters; i++ {
		addr := uint32(0x1000 + i*4)
		l.Load(4, addr)
		l.Load(8, addr)
	}
	if l.SinkLoads() != iters {
		t.Fatalf("sink loads = %d", l.SinkLoads())
	}
	want := float64(iters-1) / float64(iters)
	if got := l.Locality(1); got != want {
		t.Errorf("locality(1) = %v, want %v", got, want)
	}
	if l.Locality(4) != want {
		t.Errorf("locality(4) = %v, want %v", l.Locality(4), want)
	}
}

func TestRARLocalityWorkingSet(t *testing.T) {
	// A sink load alternating between two sources: locality(1) = 0 after
	// warmup, locality(2) high.
	l := NewRARLocality(0)
	const iters = 20
	for i := 0; i < iters; i++ {
		addr := uint32(0x1000 + i*4)
		src := uint32(4)
		if i%2 == 1 {
			src = 8
		}
		l.Load(src, addr)
		l.Load(12, addr) // sink alternates (4,12) and (8,12)
	}
	if l.Locality(1) != 0 {
		t.Errorf("locality(1) = %v, want 0 for alternating sources", l.Locality(1))
	}
	// After both sources appear once, every later sink execution finds its
	// source at MRU rank 2.
	want := float64(iters-2) / float64(iters)
	if got := l.Locality(2); got != want {
		t.Errorf("locality(2) = %v, want %v", got, want)
	}
}

func TestRARLocalityStoreBreaksChain(t *testing.T) {
	l := NewRARLocality(0)
	l.Load(4, 0x1000)
	l.Store(100, 0x1000)
	l.Load(8, 0x1000) // RAW territory, not a RAR sink
	if l.SinkLoads() != 0 {
		t.Errorf("sink loads = %d, want 0 (store broke the chain)", l.SinkLoads())
	}
}

func TestRARLocalityFiniteWindow(t *testing.T) {
	// A 2-address window forgets the source when many unique addresses
	// intervene; the infinite window does not.
	drive := func(l *RARLocality) {
		for i := 0; i < 10; i++ {
			base := uint32(0x1000 + i*0x100)
			l.Load(4, base)
			for j := 0; j < 8; j++ {
				l.Load(8, base+uint32(4+j*4)) // unique addresses
			}
			l.Load(12, base) // sink: (4, 12) dependence — if still visible
		}
	}
	inf := NewRARLocality(0)
	fin := NewRARLocality(2)
	drive(inf)
	drive(fin)
	if inf.SinkLoads() == 0 {
		t.Fatal("infinite window saw no sinks")
	}
	if fin.SinkLoads() >= inf.SinkLoads() {
		t.Errorf("finite window saw %d sinks, infinite %d", fin.SinkLoads(), inf.SinkLoads())
	}
}

func TestRARLocalityDepthClamp(t *testing.T) {
	l := NewRARLocality(0)
	if l.Locality(1) != 0 {
		t.Error("empty analyzer nonzero")
	}
	l.Load(4, 0x1000)
	l.Load(8, 0x1000)
	if l.Locality(100) != l.Locality(MaxDepth) {
		t.Error("depth not clamped")
	}
}

func TestRARLocalityHistoryIsUnique(t *testing.T) {
	// Repeats of the same dependence must not push other entries out of
	// the unique-dependence working set.
	l := NewRARLocality(0)
	feed := func(src uint32, addr uint32) {
		l.Load(src, addr)
		l.Load(100, addr)
	}
	feed(4, 0x1000)
	for i := 0; i < 10; i++ {
		feed(8, uint32(0x2000+i*4)) // same dep many times
	}
	// (4,100) is still the 2nd most recent *unique* dependence.
	feed(4, 0x9000)
	want := l.hits[1]
	if want == 0 {
		t.Errorf("old unique dependence was evicted by repeats: hits=%v", l.hits)
	}
}

func TestLastMapAddressLocality(t *testing.T) {
	m := NewLastMap()
	if m.Observe(4, 0x100) {
		t.Error("first observation reported as repeat")
	}
	if !m.Observe(4, 0x100) {
		t.Error("repeat not detected")
	}
	if m.Observe(4, 0x104) {
		t.Error("changed word reported as repeat")
	}
	obs, same := m.Counts()
	if obs != 3 || same != 1 {
		t.Errorf("counts = %d, %d", obs, same)
	}
	if f := m.Fraction(); f != 1.0/3.0 {
		t.Errorf("fraction = %v", f)
	}
}

func TestLastMapPerPC(t *testing.T) {
	m := NewLastMap()
	m.Observe(4, 1)
	m.Observe(8, 2)
	if !m.Observe(4, 1) || !m.Observe(8, 2) {
		t.Error("per-PC tracking broken")
	}
}

func TestLastMapEmptyFraction(t *testing.T) {
	if NewLastMap().Fraction() != 0 {
		t.Error("empty fraction nonzero")
	}
}

// TestQuickLocalityBounds: locality is a CDF over ranks — monotone in n
// and within [0, 1].
func TestQuickLocalityBounds(t *testing.T) {
	f := func(ops []uint16) bool {
		l := NewRARLocality(8)
		for _, op := range ops {
			pc := uint32((op%8)*4 + 4)
			addr := uint32(((op >> 3) % 32) * 4)
			if op&0x8000 != 0 {
				l.Store(pc, addr)
			} else {
				l.Load(pc, addr)
			}
		}
		prev := 0.0
		for n := 1; n <= MaxDepth; n++ {
			v := l.Locality(n)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRARLocalitySweepMatchesSingleWindows: the one-pass multi-window
// analyzer reports, per window, exactly what an independent RARLocality
// of that window size reports.
func TestRARLocalitySweepMatchesSingleWindows(t *testing.T) {
	windows := []int{1, 3, 16, 0}
	sweep := NewRARLocalitySweep(windows...)
	singles := make([]*RARLocality, len(windows))
	for i, w := range windows {
		singles[i] = NewRARLocality(w)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		pc, addr := uint32(rng.Intn(24))<<2, uint32(rng.Intn(40))<<2
		if rng.Intn(6) == 0 {
			sweep.Store(pc, addr)
			for _, l := range singles {
				l.Store(pc, addr)
			}
			continue
		}
		sweep.Load(pc, addr)
		for _, l := range singles {
			l.Load(pc, addr)
		}
	}
	for i, l := range singles {
		if l.SinkLoads() == 0 {
			t.Fatalf("window %d: no sink loads; the stream exercises nothing", windows[i])
		}
		if got, want := sweep.SinkLoads(i), l.SinkLoads(); got != want {
			t.Errorf("window %d: sweep saw %d sink loads, single analyzer %d", windows[i], got, want)
		}
		for n := 1; n <= MaxDepth; n++ {
			if got, want := sweep.Locality(i, n), l.Locality(n); got != want {
				t.Errorf("window %d: locality(%d) = %v, single analyzer %v", windows[i], n, got, want)
			}
		}
	}
}
