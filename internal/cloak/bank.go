package cloak

import "rarpred/internal/check"

// Bank runs several engines over one committed stream with one detector
// per distinct detection setup. Detection happens at commit in the DDT
// alone: the DPNT, synonym file, confidence and merge policy never feed
// back into it. Engines whose configs agree on DDTCapacity, SplitDDT and
// Mode therefore see identical dependences, and one table answers for
// all of them. The bank drives each shared detector once per event, and
// every engine reads the result through a tap detector, so the engines'
// own Load and Store paths run unchanged.
type Bank struct {
	engines []*Engine
	shared  []*sharedDetector
}

// sharedDetector is one detector of a bank plus the event it last
// processed and, for a load, the result its taps hand back.
type sharedDetector struct {
	det      Detector
	addr, pc uint32
	dep      Dependence
	ok       bool
}

// tap is a bank engine's detector. The shared detector has already
// recorded each store, and a load returns the shared result.
type tap struct{ s *sharedDetector }

func (tap) Store(addr, pc uint32) {}

func (t tap) Load(addr, pc uint32) (Dependence, bool) {
	if check.Enabled {
		check.Assertf(addr == t.s.addr && pc == t.s.pc, "bank.tap",
			"engine load addr=%#x pc=%#x, shared detector last saw addr=%#x pc=%#x", addr, pc, t.s.addr, t.s.pc)
	}
	return t.s.dep, t.s.ok
}

// NewBank returns a bank with one engine per config, in order. Configs
// that agree on DDTCapacity, SplitDDT and Mode share one detector, which
// self-checks when the package gate or any of those configs asks for it.
func NewBank(cfgs ...Config) *Bank {
	groups := map[Config]int{} // detection fields only → index into dets
	var dets []Config
	groupOf := make([]int, len(cfgs))
	for i, cfg := range cfgs {
		key := Config{DDTCapacity: cfg.DDTCapacity, SplitDDT: cfg.SplitDDT, Mode: cfg.Mode}
		g, ok := groups[key]
		if !ok {
			g = len(dets)
			groups[key] = g
			dets = append(dets, key)
		}
		dets[g].SelfCheck = dets[g].SelfCheck || cfg.SelfCheck
		groupOf[i] = g
	}
	b := &Bank{}
	for _, d := range dets {
		b.shared = append(b.shared, &sharedDetector{det: newDetector(d, d.SelfCheck || SelfCheckEnabled())})
	}
	for i, cfg := range cfgs {
		b.engines = append(b.engines, newEngine(cfg, tap{b.shared[groupOf[i]]}))
	}
	return b
}

// Engines returns the bank's engines in config order. Drive them only
// through the bank: an engine's detector answers for the bank's latest
// event.
func (b *Bank) Engines() []*Engine { return b.engines }

// Store feeds one committed store to every engine.
func (b *Bank) Store(pc, addr, value uint32) {
	for _, s := range b.shared {
		s.addr, s.pc = addr, pc
		s.det.Store(addr, pc)
	}
	for _, e := range b.engines {
		e.Store(pc, addr, value)
	}
}

// Load feeds one committed load to every engine.
func (b *Bank) Load(pc, addr, value uint32) {
	for _, s := range b.shared {
		s.addr, s.pc = addr, pc
		s.dep, s.ok = s.det.Load(addr, pc)
	}
	for _, e := range b.engines {
		e.Load(pc, addr, value)
	}
}
