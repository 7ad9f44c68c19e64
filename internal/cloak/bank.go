package cloak

import "rarpred/internal/check"

// Bank runs engines over one committed stream: one engine per distinct
// config, and one detector per distinct detection setup. Detection
// happens at commit in the DDT alone: the DPNT, synonym file,
// confidence and merge policy never feed back into it. Engines whose
// configs agree on DDTCapacity, SplitDDT and Mode therefore see
// identical dependences, and one table answers for all of them. The
// bank drives each shared detector once per event, and every engine
// reads the result through a tap detector, so the engines' own Load
// and Store paths run unchanged.
//
// Several consumers can ask for the same config; they share its
// engine. A consumer that needs each load's outcome, not only the
// engine's totals, registers a listener with OnLoad. Every request
// (Engine, OnLoad, Profile) must come before the first event.
type Bank struct {
	engines   []*Engine
	byConfig  map[Config]int // config → index into engines
	listeners [][]func(pc, addr, value uint32, out LoadOutcome)
	shared    []*sharedDetector
	byDetect  map[Config]int // detection fields only → index into shared
}

// sharedDetector is one detector of a bank plus the event it last
// processed and, for a load, the result its taps hand back.
type sharedDetector struct {
	det      Detector
	sc       bool // det is the self-checking variant
	addr, pc uint32
	dep      Dependence
	ok       bool
	profile  *Profile // records every dependence det reports, once asked for
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

// NewBank returns a bank holding an engine for each config. Equal
// configs share one engine; configs that agree on DDTCapacity,
// SplitDDT and Mode share one detector, which self-checks when the
// package gate or any of those configs asks for it.
func NewBank(cfgs ...Config) *Bank {
	b := &Bank{byConfig: map[Config]int{}, byDetect: map[Config]int{}}
	for _, cfg := range cfgs {
		b.add(cfg)
	}
	return b
}

// add returns the index of cfg's engine, building it on first request.
func (b *Bank) add(cfg Config) int {
	if i, ok := b.byConfig[cfg]; ok {
		return i
	}
	i := len(b.engines)
	b.byConfig[cfg] = i
	b.engines = append(b.engines, newEngine(cfg, tap{b.detector(cfg)}))
	b.listeners = append(b.listeners, nil)
	return i
}

// detector returns the shared detector for cfg's detection setup,
// building it on first request and rebuilding it checked when cfg asks
// for self-checking that it lacks.
func (b *Bank) detector(cfg Config) *sharedDetector {
	key := Config{DDTCapacity: cfg.DDTCapacity, SplitDDT: cfg.SplitDDT, Mode: cfg.Mode}
	sc := cfg.SelfCheck || SelfCheckEnabled()
	if i, ok := b.byDetect[key]; ok {
		s := b.shared[i]
		if sc && !s.sc {
			s.det, s.sc = newDetector(key, true), true
		}
		return s
	}
	s := &sharedDetector{det: newDetector(key, sc), sc: sc}
	b.byDetect[key] = len(b.shared)
	b.shared = append(b.shared, s)
	return s
}

// Engine returns the bank's engine for cfg, adding one if no earlier
// request named cfg. Drive it only through the bank: its detector
// answers for the bank's latest event.
func (b *Bank) Engine(cfg Config) *Engine { return b.engines[b.add(cfg)] }

// Engines returns the bank's engines in the order their configs were
// first requested.
func (b *Bank) Engines() []*Engine { return b.engines }

// OnLoad registers fn to receive every load after the engine for cfg
// (added if new) has processed it, with the outcome that engine
// reported.
func (b *Bank) OnLoad(cfg Config, fn func(pc, addr, value uint32, out LoadOutcome)) {
	i := b.add(cfg)
	b.listeners[i] = append(b.listeners[i], fn)
}

// Profile returns the profile of every dependence that the detector
// for cfg's detection setup reports: the profile a Collector with the
// same DDT would collect over the stream.
func (b *Bank) Profile(cfg Config) *Profile {
	s := b.detector(cfg)
	if s.profile == nil {
		s.profile = NewProfile()
	}
	return s.profile
}

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

// Load feeds one committed load to every engine, and each engine's
// outcome to its listeners.
func (b *Bank) Load(pc, addr, value uint32) {
	for _, s := range b.shared {
		s.addr, s.pc = addr, pc
		s.dep, s.ok = s.det.Load(addr, pc)
		if s.ok && s.profile != nil {
			s.profile.Record(s.dep)
		}
	}
	for i, e := range b.engines {
		out := e.Load(pc, addr, value)
		for _, fn := range b.listeners[i] {
			fn(pc, addr, value, out)
		}
	}
}
