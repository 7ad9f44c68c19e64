package cloak

import (
	"math/rand"
	"testing"

	"rarpred/internal/check"
)

// driveRandom feeds n pseudo-random committed ops into det over a tiny
// address space so eviction, RAW-breaks-RAR, and same-PC re-reads all
// occur constantly.
func driveRandomDet(rng *rand.Rand, det Detector, n int) {
	for i := 0; i < n; i++ {
		pc := uint32(rng.Intn(64)) << 2
		addr := uint32(rng.Intn(24))
		if rng.Intn(3) == 0 {
			det.Store(addr, pc)
		} else {
			det.Load(addr, pc)
		}
	}
}

func TestDDTSelfCheckCleanRun(t *testing.T) {
	for _, tc := range []struct {
		name        string
		capacity    int
		recordLoads bool
	}{
		{"bounded-rar", 8, true},
		{"bounded-raw", 8, false},
		{"unbounded-rar", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newDDTChecked(tc.capacity, tc.recordLoads, true)
			d.forceWindow()
			driveRandomDet(rand.New(rand.NewSource(1)), d, 20000)
			d.CheckInvariants()
			d.compareAgainst(d.ref)
		})
	}
}

func TestSplitDDTSelfCheckCleanRun(t *testing.T) {
	s := newSplitDDTChecked(8, 8, true)
	s.forceWindow()
	driveRandomDet(rand.New(rand.NewSource(2)), s, 20000)
	s.CheckInvariants()
	s.stores.compareAgainst(s.ref.stores)
	s.loads.compareAgainst(s.ref.loads)
}

// TestOracleCatchesFieldCorruption: flipping a single annotation bit in
// the live table diverges from the model at the next window comparison.
func TestOracleCatchesFieldCorruption(t *testing.T) {
	d := newDDTChecked(8, true, true)
	d.forceWindow()
	driveRandomDet(rand.New(rand.NewSource(3)), d, 500)
	d.nodes[d.head].loadValid = !d.nodes[d.head].loadValid
	v := check.Catch(func() { d.compareAgainst(d.ref) })
	if v == nil || v.Site != "ddt.oracle" {
		t.Fatalf("corrupted annotation not caught: %v", v)
	}
}

// TestOracleCatchesLRUSlip: silently skipping one recency update (the
// classic "forgot to touch" bug) is caught by the order comparison.
func TestOracleCatchesLRUSlip(t *testing.T) {
	d := newDDTChecked(8, true, true)
	d.forceWindow()
	driveRandomDet(rand.New(rand.NewSource(4)), d, 500)
	// Re-read the LRU address through the internal path only: the table
	// touches it, the model does not see the op at all.
	d.load(d.nodes[d.tail].id, 0x40)
	v := check.Catch(func() { d.compareAgainst(d.ref) })
	if v == nil || v.Site != "ddt.oracle" {
		t.Fatalf("LRU slip not caught: %v", v)
	}
}

func TestInvariantsCatchBrokenChain(t *testing.T) {
	d := newDDTChecked(8, true, false)
	driveRandomDet(rand.New(rand.NewSource(5)), d, 500)
	d.nodes[d.tail].prev = d.tail // self-loop at the tail
	v := check.Catch(func() { d.CheckInvariants() })
	if v == nil {
		t.Fatal("broken LRU chain not caught")
	}
}

func TestInvariantsCatchIndexMismatch(t *testing.T) {
	d := newDDTChecked(8, true, false)
	driveRandomDet(rand.New(rand.NewSource(6)), d, 500)
	d.nodes[d.head].id++ // node no longer carries its indexed id
	v := check.Catch(func() { d.CheckInvariants() })
	if v == nil || v.Site != "ddt.idx" {
		t.Fatalf("index mismatch not caught: %v", v)
	}
}

func TestDPNTInvariantsCatchCorruption(t *testing.T) {
	p := NewDPNT(0, 0, Adaptive2Bit, MergeIncremental)
	p.RecordDependence(Dependence{Kind: DepRAR, SourcePC: 0x10, SinkPC: 0x20})
	p.CheckInvariants()
	p.table.Get(key(0x20)).consumer.state = confMax + 5
	v := check.Catch(func() { p.CheckInvariants() })
	if v == nil || v.Site != "dpnt.conf" {
		t.Fatalf("confidence overflow not caught: %v", v)
	}
}

func TestSFInvariantsCatchBadKind(t *testing.T) {
	f := NewSynonymFile(0, 0)
	f.Write(1, 42, DepRAR, 0x10)
	f.CheckInvariants()
	f.table.Get(1).Kind = DepNone
	v := check.Catch(func() { f.CheckInvariants() })
	if v == nil || v.Site != "sf.kind" {
		t.Fatalf("full entry with no kind not caught: %v", v)
	}
}

// TestSelfCheckDoesNotPerturbStats: the same committed stream produces
// bit-identical statistics with and without self-checking — the checks
// only read state.
func TestSelfCheckDoesNotPerturbStats(t *testing.T) {
	for _, split := range []bool{false, true} {
		cfg := Config{DDTCapacity: 8, DPNTSets: 4, DPNTWays: 2, SFSets: 4, SFWays: 2,
			Mode: ModeRAWRAR, Confidence: Adaptive2Bit, Merge: MergeIncremental, SplitDDT: split}
		plain := New(cfg)
		checked := New(cfg)
		checked.forceSelfCheckAlways()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 20000; i++ {
			pc := uint32(rng.Intn(64)) << 2
			addr := uint32(rng.Intn(24))
			val := uint32(rng.Intn(8))
			if rng.Intn(3) == 0 {
				plain.Store(pc, addr, val)
				checked.Store(pc, addr, val)
			} else {
				plain.Load(pc, addr, val)
				checked.Load(pc, addr, val)
			}
		}
		if plain.Stats() != checked.Stats() {
			t.Errorf("split=%v: stats diverge:\nplain:   %+v\nchecked: %+v",
				split, plain.Stats(), checked.Stats())
		}
	}
}

// TestSetSelfCheckGatesConstruction: the package gate snapshots into
// structures built while it is on.
func TestSetSelfCheckGatesConstruction(t *testing.T) {
	SetSelfCheck(true)
	defer SetSelfCheck(false)
	if d := NewDDT(8, true); !d.sc {
		t.Error("NewDDT ignored the package gate")
	}
	if s := NewSplitDDT(8, 8); !s.sc {
		t.Error("NewSplitDDT ignored the package gate")
	}
	if e := New(DefaultConfig()); !e.sc {
		t.Error("New ignored the package gate")
	}
	SetSelfCheck(false)
	if d := NewDDT(8, true); d.sc {
		t.Error("NewDDT self-checks with the gate off")
	}
}
