package cloak

import (
	"fmt"
	"math/rand"
	"testing"

	"rarpred/internal/check"
	"rarpred/internal/trace"
	"rarpred/internal/workload"
)

// sweepOracle drives a DDTSweep and one independent DDT per capacity
// with the same committed stream and compares every load's result.
type sweepOracle struct {
	caps  []int
	sweep *DDTSweep
	ddts  []*DDT
}

// newSweepOracle builds the per-capacity reference tables as
// self-checked DDTs pinned in permanent comparison windows when checked
// is set, or as plain NewDDT tables otherwise.
func newSweepOracle(checked bool, caps ...int) *sweepOracle {
	o := &sweepOracle{caps: caps, sweep: NewDDTSweep(caps...)}
	for _, c := range caps {
		d := NewDDT(c, true)
		if checked {
			d = newDDTChecked(c, true, true)
			d.forceWindow()
		}
		o.ddts = append(o.ddts, d)
	}
	return o
}

func (o *sweepOracle) store(addr, pc uint32) {
	o.sweep.Store(addr, pc)
	for _, d := range o.ddts {
		d.Store(addr, pc)
	}
}

// load feeds one load to every table and describes the first
// divergence, or returns "". It also asserts the exact inclusion rule on
// the reference tables themselves: a load that sees RAW at one capacity
// sees RAW at every larger one.
func (o *sweepOracle) load(addr, pc uint32) string {
	raw, rar := o.sweep.Load(addr, pc)
	rawBelow := false
	for c, d := range o.ddts {
		want, ok := d.Load(addr, pc)
		isRAW := ok && want.Kind == DepRAW
		if rawBelow && !isRAW {
			return fmt.Sprintf("load addr=%#x pc=%#x: RAW at a smaller capacity, (%+v,%v) at %d",
				addr, pc, want, ok, o.caps[c])
		}
		rawBelow = isRAW
		var got Dependence
		switch bit := uint32(1) << c; {
		case raw&bit != 0:
			got = Dependence{Kind: DepRAW, SourcePC: o.sweep.Source(c), SinkPC: pc}
		case rar&bit != 0:
			got = Dependence{Kind: DepRAR, SourcePC: o.sweep.Source(c), SinkPC: pc}
		}
		if got != want || (got.Kind != DepNone) != ok {
			return fmt.Sprintf("capacity %d, load addr=%#x pc=%#x: sweep %+v, DDT (%+v,%v)",
				o.caps[c], addr, pc, got, want, ok)
		}
	}
	return ""
}

// sweepCapSets covers capacity 1, non-powers of two, adjacent sizes and
// an unbounded last table.
var sweepCapSets = [][]int{
	{1},
	{0},
	{1, 2, 3},
	{1, 3, 7, 0},
	{2, 5, 12, 30},
	{4, 0},
	{3, 10, 11, 12, 0},
	{1, 2, 4, 8, 16, 32, 64},
}

func TestDDTSweepMatchesPerCapacityDDTs(t *testing.T) {
	for _, caps := range sweepCapSets {
		for _, space := range []int{6, 24, 80} {
			t.Run(fmt.Sprintf("caps=%v/addrs=%d", caps, space), func(t *testing.T) {
				o := newSweepOracle(true, caps...)
				rng := rand.New(rand.NewSource(int64(space)))
				for i := 0; i < 20000; i++ {
					pc := uint32(rng.Intn(16)) << 2
					addr := uint32(rng.Intn(space))
					if rng.Intn(4) == 0 {
						o.store(addr, pc)
					} else if msg := o.load(addr, pc); msg != "" {
						t.Fatalf("op %d: %s", i, msg)
					}
					if i%997 == 0 {
						o.sweep.CheckInvariants()
					}
				}
				o.sweep.CheckInvariants()
			})
		}
	}
}

// TestDDTSweepMatchesWorkloads checks the sweep event by event against
// one NewDDT per capacity on every workload's committed stream. The
// stream's addresses are numbered as a pass numbers them, because the
// sweep takes address ids; each NewDDT numbers what it is given again.
func TestDDTSweepMatchesWorkloads(t *testing.T) {
	caps := []int{1, 32, 100, 128, 1000, 2048, 0}
	for _, w := range workload.All() {
		tr, err := trace.RecordStream(w.Program(4), 0)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		o := newSweepOracle(false, caps...)
		var fail string
		tr.Replay(trace.NewAddrIDs(trace.SinkFuncs{
			OnLoad: func(pc, id, _ uint32) {
				if msg := o.load(id, pc); msg != "" && fail == "" {
					fail = msg
				}
			},
			OnStore: func(pc, id, _ uint32) { o.store(id, pc) },
		}))
		if fail != "" {
			t.Errorf("%s: %s", w.Name, fail)
		}
		o.sweep.CheckInvariants()
	}
}

// TestDDTSweepRARNotInclusive pins down why only RAW detection grows
// with capacity: re-inserting an address at a small capacity records a
// later earliest load, so a RAR there can be nothing at a larger
// capacity, and a store remembered only by the larger table turns the
// small table's RAR into RAW.
func TestDDTSweepRARNotInclusive(t *testing.T) {
	const small, large = 0, 1
	evict := func(s *DDTSweep) { s.Load(0x200, 0x90) } // pushes 0x100 out of the 1-entry table
	s := NewDDTSweep(1, 0)
	s.Load(0x100, 0x10)
	evict(s)
	s.Load(0x100, 0x20) // small: fresh, records 0x20; large: RAR(0x10)
	if raw, rar := s.Load(0x100, 0x10); raw != 0 || rar != 1<<small || s.Source(small) != 0x20 {
		t.Errorf("load 0x10: raw %#b rar %#b, want RAR(0x20) at the small table only", raw, rar)
	}

	s = NewDDTSweep(1, 0)
	s.Store(0x100, 0x80)
	evict(s)
	s.Load(0x100, 0x10) // small: fresh, records 0x10; large: RAW
	raw, rar := s.Load(0x100, 0x20)
	if raw != 1<<large || rar != 1<<small || s.Source(small) != 0x10 || s.Source(large) != 0x80 {
		t.Errorf("load 0x20: raw %#b rar %#b, want RAR(0x10) small and RAW(0x80) large", raw, rar)
	}
}

func TestDDTSweepRejectsBadCapacities(t *testing.T) {
	tooMany := make([]int, maxSweepCaps+1)
	for i := range tooMany {
		tooMany[i] = i + 1
	}
	for _, caps := range [][]int{nil, {0, 4}, {4, 4}, {8, 4}, {-1}, {4, 0, 0}, tooMany} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDDTSweep(%v) did not panic", caps)
				}
			}()
			NewDDTSweep(caps...)
		}()
	}
}

// TestDDTSweepSelfCheckCatchesCorruptNode: under the package gate the
// sweep shadows each capacity with a checked DDT, so a node whose
// store-valid mask is corrupted diverges at the next load of its address,
// and a node with a wrong segment fails the structural sweep.
func TestDDTSweepSelfCheckCatchesCorruptNode(t *testing.T) {
	SetSelfCheck(true)
	defer SetSelfCheck(false)
	drive := func() *DDTSweep {
		s := NewDDTSweep(2, 5, 0)
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 500; i++ {
			if addr, pc := uint32(rng.Intn(12)), uint32(rng.Intn(8))<<2; rng.Intn(3) == 0 {
				s.Store(addr, pc)
			} else {
				s.Load(addr, pc)
			}
		}
		return s
	}

	s := drive()
	if s.shadows == nil {
		t.Fatal("NewDDTSweep ignored the package gate")
	}
	s.Store(0x7, 0x40)
	s.nodes[s.head].sv = 0 // forget the store at every capacity
	v := check.Catch(func() { s.Load(0x7, 0x44) })
	if v == nil || v.Site != "ddtsweep.oracle" {
		t.Fatalf("corrupted store-valid mask not caught: %v", v)
	}

	s = drive()
	s.nodes[s.head].seg = 2 // claim the MRU node is absent from the small tables
	v = check.Catch(func() { s.CheckInvariants() })
	if v == nil || v.Site != "ddtsweep.seg" {
		t.Fatalf("corrupted segment not caught: %v", v)
	}
}
