package cloak

import "testing"

// FuzzDDTSweep drives a DDTSweep with an arbitrary committed stream and
// checks every load, at every capacity, against a self-checked DDT of
// that capacity pinned in permanent comparison windows; the reference
// tables must also obey RAW inclusion on every load.
//
// Byte 0 picks the capacities: its low six bits each add one of 1, 2, 3,
// 5, 8 and 13, and its top bit appends the unbounded table (capacity 1
// alone when no bit is set). Each following 2-byte group encodes one
// op: the low bit of the first byte selects load/store and its next
// three bits the (word-aligned) PC; the second byte masked to a
// 32-address space forces constant aliasing and eviction.
func FuzzDDTSweep(f *testing.F) {
	f.Add([]byte{0x81, 0, 1, 2, 1, 0, 1, 2, 1})
	f.Add([]byte{0x3f, 1, 3, 0, 3, 2, 3, 4, 5, 0, 3, 6, 7, 0, 3})
	f.Add([]byte("\x92loadstoreloadloadstore"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var caps []int
		for i, c := range []int{1, 2, 3, 5, 8, 13} {
			if data[0]&(1<<i) != 0 {
				caps = append(caps, c)
			}
		}
		if data[0]&0x80 != 0 {
			caps = append(caps, 0)
		}
		if len(caps) == 0 {
			caps = []int{1}
		}
		o := newSweepOracle(true, caps...)
		for i := 1; i+1 < len(data); i += 2 {
			pc := uint32(data[i]>>1&7) << 2
			addr := uint32(data[i+1] & 31)
			if data[i]&1 != 0 {
				o.store(addr, pc)
			} else if msg := o.load(addr, pc); msg != "" {
				t.Fatalf("op %d: %s", i/2, msg)
			}
		}
		o.sweep.CheckInvariants()
	})
}

// FuzzEngine drives full engines (bounded/unbounded/split/RAW-only) with
// an arbitrary committed stream under always-on self-checking: every
// detector result is compared against the naive reference model, the
// LRU order is compared at window boundaries, and DPNT/SF invariants
// sweep after every load. Any divergence panics with *check.Violation
// and fails the fuzz run.
//
// Each 3-byte group encodes one op: the low bit of byte 0 selects
// load/store, its remaining bits the (word-aligned) PC; byte 1 masked to
// a 32-address space forces constant aliasing and eviction; byte 2 is
// the value.
func FuzzEngine(f *testing.F) {
	f.Add([]byte("storeload"))
	f.Add([]byte("aAbBcCdDeEfF00112233445566778899"))
	f.Add([]byte{1, 5, 9, 0, 5, 9, 2, 5, 7, 0, 5, 7, 4, 5, 3, 0, 5, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		base := Config{DPNTSets: 4, DPNTWays: 2, SFSets: 4, SFWays: 2,
			Confidence: Adaptive2Bit, Merge: MergeIncremental, SelfCheck: true}
		cfgs := make([]Config, 0, 4)
		for _, c := range []struct {
			capacity int
			split    bool
			mode     Mode
		}{
			{8, false, ModeRAWRAR},
			{0, false, ModeRAWRAR},
			{8, true, ModeRAWRAR},
			{8, false, ModeRAW},
		} {
			cfg := base
			cfg.DDTCapacity, cfg.SplitDDT, cfg.Mode = c.capacity, c.split, c.mode
			cfgs = append(cfgs, cfg)
		}
		for _, cfg := range cfgs {
			e := New(cfg)
			e.forceSelfCheckAlways()
			for i := 0; i+2 < len(data); i += 3 {
				pc := uint32(data[i]>>1&0x3f) << 2
				addr := uint32(data[i+1] & 31)
				val := uint32(data[i+2])
				if data[i]&1 == 0 {
					e.Load(pc, addr, val)
				} else {
					e.Store(pc, addr, val)
				}
			}
			e.checkInvariants()
		}
	})
}
